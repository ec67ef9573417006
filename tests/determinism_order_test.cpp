// Input-order independence of report-feeding aggregation (lint rule D2's
// behavioural counterpart, see docs/LINTS.md).  The quantities that reach
// reports and row codecs — operand costs, task fan counts, clustering
// bits, logic-sim outputs — must be bit-identical no matter how the
// caller happens to order members or declare gates: they are computed
// from sorted snapshots, never from hash iteration order.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "diac/baselines.hpp"
#include "netlist/bench_format.hpp"
#include "netlist/compiled_sim.hpp"
#include "tree/energy_model.hpp"
#include "tree/task_tree.hpp"

namespace diac {
namespace {

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::nominal_45nm();
  return l;
}

// A small sequential circuit, declared in two different line orders: the
// same design, but every GateId differs between the two parses.
constexpr const char* kForwardBench = R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
d1 = DFF(n1)
d2 = DFF(n2)
n1 = AND(a, d2)
n2 = NOT(d1)
g1 = XOR(d1, d2)
g2 = OR(g1, b)
y = BUF(g2)
)";

constexpr const char* kShuffledBench = R"(
OUTPUT(y)
g2 = OR(g1, b)
n2 = NOT(d1)
d2 = DFF(n2)
g1 = XOR(d1, d2)
INPUT(b)
y = BUF(g2)
n1 = AND(a, d2)
INPUT(a)
d1 = DFF(n1)
)";

TEST(DeterminismOrder, OperandCostIgnoresMemberOrder) {
  const Netlist nl = parse_bench(kForwardBench);
  std::vector<GateId> members;
  for (GateId id = 0; id < nl.size(); ++id) {
    if (is_logic(nl.gate(id).kind)) members.push_back(id);
  }
  const OperandCost ref = operand_cost(nl, members, lib());

  std::vector<std::vector<GateId>> orders;
  orders.push_back({members.rbegin(), members.rend()});
  std::vector<GateId> rotated = members;
  std::rotate(rotated.begin(), rotated.begin() + 2, rotated.end());
  orders.push_back(rotated);
  std::vector<GateId> shuffled = members;
  std::mt19937 rng(7);  // fixed seed: the test itself stays reproducible
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  orders.push_back(shuffled);

  for (const auto& order : orders) {
    const OperandCost got = operand_cost(nl, order, lib());
    // Bit-exact, not approximate: the accumulation order inside
    // operand_cost is the topological order, not the caller's order.
    EXPECT_EQ(got.delay, ref.delay);
    EXPECT_EQ(got.dynamic_energy, ref.dynamic_energy);
    EXPECT_EQ(got.static_energy, ref.static_energy);
    EXPECT_EQ(got.power, ref.power);
  }
}

TEST(DeterminismOrder, TaskFanCountsIgnoreDeclarationOrder) {
  const Netlist fwd = parse_bench(kForwardBench);
  const Netlist shf = parse_bench(kShuffledBench);
  ASSERT_EQ(fwd.logic_gate_count(), shf.logic_gate_count());

  const TaskTree tf = per_gate_tree(fwd, lib());
  const TaskTree ts = per_gate_tree(shf, lib());
  for (GateId id = 0; id < fwd.size(); ++id) {
    if (!is_logic(fwd.gate(id).kind)) continue;
    const std::string_view name = fwd.gate_name(id);
    const int nf = tf.partition()[id];
    const int ns = ts.partition()[shf.find(name)];
    ASSERT_GE(nf, 0);
    ASSERT_GE(ns, 0);
    const TaskNode& a = tf.node(static_cast<TaskId>(nf));
    const TaskNode& b = ts.node(static_cast<TaskId>(ns));
    EXPECT_EQ(a.dict.fanin, b.dict.fanin) << name;
    EXPECT_EQ(a.dict.fanout, b.dict.fanout) << name;
    EXPECT_EQ(a.dict.level, b.dict.level) << name;
    EXPECT_EQ(a.dict.delay, b.dict.delay) << name;
    EXPECT_EQ(a.dict.dynamic_energy, b.dict.dynamic_energy) << name;
  }
}

TEST(DeterminismOrder, ClusteringBitsIgnoreDeclarationOrder) {
  const Netlist fwd = parse_bench(kForwardBench);
  const Netlist shf = parse_bench(kShuffledBench);
  EXPECT_EQ(nv_based_state_bits(fwd), nv_based_state_bits(shf));
  EXPECT_EQ(nv_clustering_state_bits(fwd), nv_clustering_state_bits(shf));
  EXPECT_EQ(le_ff_clustering_ratio(fwd), le_ff_clustering_ratio(shf));
}

TEST(DeterminismOrder, LogicSimOutputsIgnoreDeclarationOrder) {
  const Netlist fwd = parse_bench(kForwardBench);
  const Netlist shf = parse_bench(kShuffledBench);
  CompiledSimulator sa(fwd);
  CompiledSimulator sb(shf);
  std::mt19937_64 rng(0xD1AC);  // fixed seed
  for (int cycle = 0; cycle < 32; ++cycle) {
    const Word a = rng(), b = rng();
    sa.set_input(fwd.find("a"), a);
    sa.set_input(fwd.find("b"), b);
    sb.set_input(shf.find("a"), a);
    sb.set_input(shf.find("b"), b);
    sa.step();
    sb.step();
    EXPECT_EQ(sa.value(fwd.find("y")), sb.value(shf.find("y"))) << "cycle " << cycle;
    EXPECT_EQ(sa.value(fwd.find("d1")), sb.value(shf.find("d1"))) << "cycle " << cycle;
    EXPECT_EQ(sa.value(fwd.find("d2")), sb.value(shf.find("d2"))) << "cycle " << cycle;
  }
}

}  // namespace
}  // namespace diac
