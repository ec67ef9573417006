#include <gtest/gtest.h>

#include <algorithm>

#include "netlist/analysis.hpp"
#include "netlist/bench_format.hpp"

namespace diac {
namespace {

Netlist chain3() {
  // a -> n1 -> n2 -> n3 -> y
  Netlist nl("chain");
  const GateId a = nl.add(GateKind::kInput, "a");
  const GateId n1 = nl.add(GateKind::kNot, "n1", {a});
  const GateId n2 = nl.add(GateKind::kNot, "n2", {n1});
  const GateId n3 = nl.add(GateKind::kNot, "n3", {n2});
  nl.add(GateKind::kOutput, "y$out", {n3});
  nl.seal();
  return nl;
}

TEST(Analysis, TopologicalOrderRespectsDeps) {
  const Netlist nl = chain3();
  const auto order = topological_order(nl);
  ASSERT_EQ(order.size(), nl.size());
  std::vector<std::size_t> pos(nl.size());
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (GateId id = 0; id < nl.size(); ++id) {
    const Gate g = nl.gate(id);
    if (g.kind == GateKind::kDff) continue;
    for (GateId f : g.fanin) {
      EXPECT_LT(pos[f], pos[id]) << nl.gate(id).name;
    }
  }
}

TEST(Analysis, LevelizeChain) {
  const Netlist nl = chain3();
  const auto level = levelize(nl);
  EXPECT_EQ(level[nl.find("a")], 0);
  EXPECT_EQ(level[nl.find("n1")], 1);
  EXPECT_EQ(level[nl.find("n2")], 2);
  EXPECT_EQ(level[nl.find("n3")], 3);
  EXPECT_EQ(depth(nl), 3);
}

TEST(Analysis, DffIsLevelZeroSource) {
  const Netlist nl = parse_bench(
      "OUTPUT(y)\nq = DFF(d)\nd = NOT(q)\ny = BUF(q)\n");
  const auto level = levelize(nl);
  EXPECT_EQ(level[nl.find("q")], 0);
  EXPECT_EQ(level[nl.find("d")], 1);
}

TEST(Analysis, CriticalPathAccumulatesDelays) {
  const Netlist nl = chain3();
  const CellLibrary lib = CellLibrary::nominal_45nm();
  const double cpd = critical_path_delay(nl, lib);
  EXPECT_NEAR(cpd, 3 * lib.delay(GateKind::kNot, 1), 1e-15);
}

TEST(Analysis, CriticalPathPicksLongestBranch) {
  Netlist nl;
  const GateId a = nl.add(GateKind::kInput, "a");
  // Short branch: one NOT.  Long branch: three NOTs.
  const GateId s = nl.add(GateKind::kNot, "s", {a});
  GateId l = a;
  for (int i = 0; i < 3; ++i) {
    l = nl.add(GateKind::kNot, "l" + std::to_string(i), {l});
  }
  const GateId j = nl.add(GateKind::kAnd, "j", {s, l});
  nl.add(GateKind::kOutput, "y$out", {j});
  nl.seal();
  const CellLibrary lib = CellLibrary::nominal_45nm();
  const double expect =
      3 * lib.delay(GateKind::kNot, 1) + lib.delay(GateKind::kAnd, 2);
  EXPECT_NEAR(critical_path_delay(nl, lib), expect, 1e-15);
}

TEST(Analysis, ArrivalTimesCutAtDff) {
  const Netlist nl = parse_bench(
      "INPUT(a)\nOUTPUT(y)\nw = NOT(a)\nq = DFF(w)\ny = NOT(q)\n");
  const CellLibrary lib = CellLibrary::nominal_45nm();
  const auto at = arrival_times(nl, lib);
  // q restarts timing: its arrival is 0.
  EXPECT_DOUBLE_EQ(at[nl.find("q")], 0.0);
  EXPECT_NEAR(at[nl.find("y")], lib.delay(GateKind::kNot, 1), 1e-15);
}

TEST(Analysis, FanoutFreeConesPartitionCombGates) {
  const Netlist nl = chain3();
  const auto cones = fanout_free_cones(nl);
  // The three NOTs chain into a single cone rooted at n3.
  ASSERT_EQ(cones.size(), 1u);
  EXPECT_EQ(cones[0].root, nl.find("n3"));
  EXPECT_EQ(cones[0].members.size(), 3u);
}

TEST(Analysis, MultiFanoutSplitsCones) {
  Netlist nl;
  const GateId a = nl.add(GateKind::kInput, "a");
  const GateId b = nl.add(GateKind::kInput, "b");
  const GateId shared = nl.add(GateKind::kAnd, "shared", {a, b});  // fanout 2
  const GateId u = nl.add(GateKind::kNot, "u", {shared});
  const GateId v = nl.add(GateKind::kNot, "v", {shared});
  nl.add(GateKind::kOutput, "y1$out", {u});
  nl.add(GateKind::kOutput, "y2$out", {v});
  nl.seal();
  const auto cones = fanout_free_cones(nl);
  EXPECT_EQ(cones.size(), 3u);  // shared, u, v
}

TEST(Analysis, EveryCombGateInExactlyOneCone) {
  const Netlist nl = parse_bench(R"(
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(x)
OUTPUT(y)
w1 = AND(a, b)
w2 = OR(w1, c)
w3 = XOR(w1, b)
x = NOT(w2)
y = NOT(w3)
)");
  const auto cones = fanout_free_cones(nl);
  std::vector<int> count(nl.size(), 0);
  for (const auto& cone : cones) {
    for (GateId g : cone.members) ++count[g];
  }
  for (GateId id = 0; id < nl.size(); ++id) {
    const int expected = is_combinational(nl.gate(id).kind) ? 1 : 0;
    EXPECT_EQ(count[id], expected) << nl.gate(id).name;
  }
}

TEST(Analysis, ConeRootsHaveExternalFanout) {
  const Netlist nl = parse_bench(R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
w1 = AND(a, b)
w2 = NOT(w1)
q = DFF(w2)
y = XOR(q, w1)
)");
  for (const auto& cone : fanout_free_cones(nl)) {
    const Gate root = nl.gate(cone.root);
    const bool multi = root.fanout.size() != 1;
    const bool feeds_noncomb =
        root.fanout.size() == 1 &&
        !is_combinational(nl.gate(root.fanout[0]).kind);
    EXPECT_TRUE(multi || feeds_noncomb || root.fanout.empty())
        << root.name;
  }
}

TEST(Analysis, StatsAggregate) {
  const Netlist nl = chain3();
  const CellLibrary lib = CellLibrary::nominal_45nm();
  const NetlistStats s = analyze(nl, lib);
  EXPECT_EQ(s.gates, 3u);
  EXPECT_EQ(s.inputs, 1u);
  EXPECT_EQ(s.outputs, 1u);
  EXPECT_EQ(s.depth, 3);
  EXPECT_GT(s.total_area, 0.0);
}

}  // namespace
}  // namespace diac
