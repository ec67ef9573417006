#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "netlist/bench_format.hpp"
#include "netlist/suite.hpp"
#include "tree/task_tree.hpp"
#include "tree/tree_generator.hpp"

namespace diac {
namespace {

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::nominal_45nm();
  return l;
}

Netlist diamond() {
  // a,b -> g1; g1 -> g2, g3; g2,g3 -> g4 -> y  (diamond).
  return parse_bench(R"(
INPUT(a)
INPUT(b)
OUTPUT(g4)
g1 = AND(a, b)
g2 = NOT(g1)
g3 = BUF(g1)
g4 = XOR(g2, g3)
)");
}

TEST(TaskTree, PerGatePartition) {
  const Netlist nl = diamond();
  const TaskTree tree = per_gate_tree(nl, lib());
  EXPECT_EQ(tree.size(), nl.logic_gate_count());
  EXPECT_NO_THROW(tree.validate());
}

TEST(TaskTree, EdgesFollowConnectivity) {
  const Netlist nl = diamond();
  const TaskTree tree = per_gate_tree(nl, lib());
  // Find the node holding g1: it must have two successors (g2, g3).
  const int n1 = tree.partition()[nl.find("g1")];
  ASSERT_GE(n1, 0);
  EXPECT_EQ(tree.node(static_cast<TaskId>(n1)).succs.size(), 2u);
}

TEST(TaskTree, LevelsIncreaseAlongEdges) {
  const Netlist nl = diamond();
  const TaskTree tree = per_gate_tree(nl, lib());
  for (const TaskNode& n : tree.nodes()) {
    for (TaskId s : n.succs) {
      EXPECT_GT(tree.node(s).dict.level, n.dict.level);
    }
  }
}

TEST(TaskTree, ScheduleIsTopological) {
  const Netlist nl = build_benchmark("s208");
  const TaskTree tree = initial_tree(nl, lib());
  std::vector<char> done(tree.size(), 0);
  for (TaskId id : tree.schedule()) {
    for (TaskId p : tree.node(id).preds) EXPECT_TRUE(done[p]);
    done[id] = 1;
  }
}

TEST(TaskTree, FeatureDictCountsExternalSignals) {
  const Netlist nl = diamond();
  // Two nodes: {g1} and {g2,g3,g4}.
  std::vector<int> part(nl.size(), kNoNode);
  part[nl.find("g1")] = 0;
  part[nl.find("g2")] = 1;
  part[nl.find("g3")] = 1;
  part[nl.find("g4")] = 1;
  const TaskTree tree = TaskTree::from_partition(nl, lib(), part, 2);
  const TaskNode& n0 = tree.node(0);
  const TaskNode& n1 = tree.node(1);
  EXPECT_EQ(n0.dict.fanin, 2);   // a, b
  EXPECT_EQ(n0.dict.fanout, 1);  // g1 read by node 1
  EXPECT_EQ(n1.dict.fanin, 1);   // g1
  EXPECT_EQ(n1.dict.fanout, 1);  // g4 -> output port
}

// Recounts every node's fan-in, fan-out and edges from the netlist's
// fanin *and* fanout lists, the definitions FeatureDict documents.
void expect_brute_force_fans(const TaskTree& tree, const std::string& what) {
  const Netlist& nl = tree.netlist();
  const std::vector<int>& part = tree.partition();
  for (TaskId id = 0; id < tree.size(); ++id) {
    const TaskNode& node = tree.node(id);
    const int self = static_cast<int>(id);
    std::set<GateId> inputs;
    std::set<TaskId> preds, succs;
    int outputs = 0;
    for (GateId g : node.gates) {
      const Gate gate = nl.gate(g);
      for (GateId f : gate.fanin) {
        if (part[f] == self) continue;
        inputs.insert(f);
        if (part[f] != kNoNode && gate.kind != GateKind::kDff) {
          preds.insert(static_cast<TaskId>(part[f]));
        }
      }
      bool read_outside = false;
      for (GateId c : gate.fanout) {
        if (part[c] == self) continue;
        read_outside = true;
        if (part[c] != kNoNode && nl.gate(c).kind != GateKind::kDff) {
          succs.insert(static_cast<TaskId>(part[c]));
        }
      }
      outputs += read_outside ? 1 : 0;
    }
    ASSERT_EQ(node.dict.fanin, static_cast<int>(inputs.size()))
        << what << " node " << id;
    ASSERT_EQ(node.dict.fanout, outputs) << what << " node " << id;
    ASSERT_TRUE(std::ranges::equal(node.preds, preds))
        << what << " node " << id;
    ASSERT_TRUE(std::ranges::equal(node.succs, succs))
        << what << " node " << id;
  }
}

TEST(TaskTree, FanCountsMatchBruteForceOverSuite) {
  for (const BenchmarkSpec& spec : benchmark_suite()) {
    const Netlist nl = build_benchmark(spec.name);
    expect_brute_force_fans(per_gate_tree(nl, lib()), spec.name + "/per_gate");
    expect_brute_force_fans(initial_tree(nl, lib()), spec.name + "/initial");
  }
}

TEST(TaskTree, RejectsCyclicPartition) {
  // g2 and g3 in one node, g1 and g4 in another: node A reads g1 (B) and
  // B reads g2/g3 (A) -> cycle.
  const Netlist nl = diamond();
  std::vector<int> part(nl.size(), kNoNode);
  part[nl.find("g1")] = 0;
  part[nl.find("g4")] = 0;
  part[nl.find("g2")] = 1;
  part[nl.find("g3")] = 1;
  EXPECT_THROW(TaskTree::from_partition(nl, lib(), part, 2),
               std::invalid_argument);
}

TEST(TaskTree, RejectsUnassignedLogicGate) {
  const Netlist nl = diamond();
  std::vector<int> part(nl.size(), kNoNode);
  part[nl.find("g1")] = 0;  // others unassigned
  EXPECT_THROW(TaskTree::from_partition(nl, lib(), part, 1),
               std::invalid_argument);
}

TEST(TaskTree, RejectsAssignedPort) {
  const Netlist nl = diamond();
  std::vector<int> part(nl.size(), 0);  // assigns ports too
  EXPECT_THROW(TaskTree::from_partition(nl, lib(), part,1),
               std::invalid_argument);
}

TEST(TaskTree, RejectsEmptyNode) {
  const Netlist nl = diamond();
  std::vector<int> part(nl.size(), kNoNode);
  for (GateId id = 0; id < nl.size(); ++id) {
    if (is_logic(nl.gate(id).kind)) part[id] = 0;
  }
  EXPECT_THROW(TaskTree::from_partition(nl, lib(), part, 2),
               std::invalid_argument);  // node 1 empty
}

TEST(TaskTree, TotalsAggregate) {
  const Netlist nl = diamond();
  const TaskTree tree = per_gate_tree(nl, lib());
  double sum = 0;
  for (const TaskNode& n : tree.nodes()) sum += n.dict.energy();
  EXPECT_NEAR(tree.total_energy(), sum, 1e-18);
  EXPECT_GE(tree.max_node_energy(), tree.avg_node_energy());
  EXPECT_LE(tree.min_node_energy(), tree.avg_node_energy());
}

TEST(TaskTree, InitialTreeGroupsByCone) {
  const Netlist nl = diamond();
  const TaskTree tree = initial_tree(nl, lib());
  // Cones: {g1}, {g2}, {g3}, {g4} (g2/g3 single-fanout feed g4 -> merge).
  // g2 and g3 each have single fanout g4 -> all three in one cone.
  EXPECT_EQ(tree.size(), 2u);
}

TEST(TaskTree, InitialTreeHandlesDffs) {
  const Netlist nl = parse_bench(
      "INPUT(a)\nOUTPUT(y)\nw = NOT(a)\nq = DFF(w)\ny = NOT(q)\n");
  const TaskTree tree = initial_tree(nl, lib());
  // DFF is its own node; its D-input edge is sequential (no dep edge).
  bool found_dff_node = false;
  for (const TaskNode& n : tree.nodes()) {
    if (n.gates.size() == 1 && nl.gate(n.gates[0]).kind == GateKind::kDff) {
      found_dff_node = true;
      EXPECT_TRUE(n.preds.empty());  // sequential boundary
    }
  }
  EXPECT_TRUE(found_dff_node);
}

TEST(TaskTree, NodesAtLevelSelects) {
  const Netlist nl = diamond();
  const TaskTree tree = per_gate_tree(nl, lib());
  std::size_t total = 0;
  for (int l = 0; l <= tree.max_level(); ++l) {
    total += tree.nodes_at_level(l).size();
  }
  EXPECT_EQ(total, tree.size());
}

// Copies share one structure, which outlives the tree it was built for.
TEST(TaskTree, CopiesShareStructureBeyondTheOriginal) {
  const Netlist nl = build_benchmark("s344");
  TaskTree copy;
  EXPECT_EQ(copy.size(), 0u);
  {
    const TaskTree original = initial_tree(nl, lib());
    copy = original;
    EXPECT_EQ(copy.nodes().data(), original.nodes().data());
  }
  EXPECT_NO_THROW(copy.validate());
  const TaskTree fresh = initial_tree(nl, lib());
  ASSERT_EQ(copy.size(), fresh.size());
  for (TaskId id = 0; id < copy.size(); ++id) {
    ASSERT_TRUE(std::ranges::equal(copy.node(id).gates, fresh.node(id).gates));
    ASSERT_TRUE(std::ranges::equal(copy.node(id).succs, fresh.node(id).succs));
  }
  // Every tree over one netlist shares its NetlistFacts.
  const TaskTree rebuilt = fresh.repartition(fresh.partition(),
                                             static_cast<int>(fresh.size()));
  EXPECT_EQ(&rebuilt.facts(), &fresh.facts());
  EXPECT_EQ(rebuilt.facts().cone_root.size(), nl.size());
}

TEST(TaskTree, NvmAccessors) {
  const Netlist nl = diamond();
  TaskTree tree = per_gate_tree(nl, lib());
  EXPECT_TRUE(tree.nvm_points().empty());
  tree.annotation(0).has_nvm = true;
  tree.annotation(0).nvm_bits = 12;
  EXPECT_EQ(tree.nvm_points().size(), 1u);
  EXPECT_EQ(tree.total_nvm_bits(), 12);
}

TEST(TreeGenerator, GroupingsProduceValidTrees) {
  const Netlist nl = build_benchmark("s208");
  for (TreeGrouping g :
       {TreeGrouping::kCones, TreeGrouping::kPerGate, TreeGrouping::kLevels}) {
    TreeGeneratorOptions opt;
    opt.grouping = g;
    const TaskTree tree = TreeGenerator(nl, lib(), opt).generate();
    EXPECT_NO_THROW(tree.validate());
    EXPECT_GT(tree.size(), 0u);
  }
}

TEST(TreeGenerator, LevelGroupingIsCoarser) {
  const Netlist nl = build_benchmark("s208");
  TreeGeneratorOptions cones;
  TreeGeneratorOptions levels;
  levels.grouping = TreeGrouping::kLevels;
  levels.level_band = 8;
  const auto t_cones = TreeGenerator(nl, lib(), cones).generate();
  const auto t_levels = TreeGenerator(nl, lib(), levels).generate();
  EXPECT_LT(t_levels.size(), t_cones.size());
}

TEST(TreeGenerator, Fig2NetlistHasPaperStructure) {
  const Netlist nl = fig2_netlist();
  EXPECT_EQ(nl.inputs().size(), 8u);
  EXPECT_EQ(nl.outputs().size(), 1u);
  const TaskTree tree = fig2_tree(nl, lib());
  // F1..F8 plus the output reduction cone = 9 function nodes.
  EXPECT_EQ(tree.size(), 9u);
  // F2 is the heavy node and F5..F8 are light under the fig2 scale.
  const double scale = fig2_energy_scale(tree);
  int heavy = 0, light = 0;
  for (const TaskNode& n : tree.nodes()) {
    const double e = scale * n.dict.energy();
    if (e > 25.0e-3) ++heavy;
    if (e < 20.0e-3) ++light;
  }
  EXPECT_EQ(heavy, 1);
  EXPECT_GE(light, 7);
}

}  // namespace
}  // namespace diac
