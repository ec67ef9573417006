#include <gtest/gtest.h>

#include <algorithm>

#include "netlist/bench_format.hpp"
#include "netlist/suite.hpp"
#include "tree/energy_model.hpp"
#include "tree/task_tree.hpp"

namespace diac {
namespace {

TEST(EnergyModel, EmptyOperandIsFree) {
  const Netlist nl = parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n");
  const CellLibrary lib = CellLibrary::nominal_45nm();
  const OperandCost c = operand_cost(nl, {}, lib);
  EXPECT_DOUBLE_EQ(c.energy(), 0.0);
  EXPECT_DOUBLE_EQ(c.delay, 0.0);
}

TEST(EnergyModel, SingleGateMatchesPaperFormula) {
  const Netlist nl = parse_bench(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n");
  const CellLibrary lib = CellLibrary::nominal_45nm();
  const GateId g = nl.find("y");
  const OperandCost c = operand_cost(nl, std::vector<GateId>{g}, lib);
  // dynamic = 2 * delay * dyn_power; static excludes the active gate -> 0.
  EXPECT_NEAR(c.dynamic_energy, lib.switching_energy(GateKind::kNand, 2),
              1e-20);
  EXPECT_DOUBLE_EQ(c.static_energy, 0.0);
  EXPECT_NEAR(c.delay, lib.delay(GateKind::kNand, 2), 1e-15);
}

TEST(EnergyModel, DynamicEnergySumsOverMembers) {
  const Netlist nl = parse_bench(
      "INPUT(a)\nOUTPUT(y)\nw1 = NOT(a)\nw2 = NOT(w1)\ny = NOT(w2)\n");
  const CellLibrary lib = CellLibrary::nominal_45nm();
  std::vector<GateId> members = {nl.find("w1"), nl.find("w2"), nl.find("y")};
  const OperandCost c = operand_cost(nl, members, lib);
  EXPECT_NEAR(c.dynamic_energy, 3 * lib.switching_energy(GateKind::kNot, 1),
              1e-19);
  // Chain of 3: CDP = 3 inverter delays.
  EXPECT_NEAR(c.delay, 3 * lib.delay(GateKind::kNot, 1), 1e-15);
}

TEST(EnergyModel, StaticEnergyUsesCdpTimesLeakage) {
  const Netlist nl = parse_bench(
      "INPUT(a)\nOUTPUT(y)\nw1 = NOT(a)\nw2 = NOT(w1)\ny = NOT(w2)\n");
  const CellLibrary lib = CellLibrary::nominal_45nm();
  std::vector<GateId> members = {nl.find("w1"), nl.find("w2"), nl.find("y")};
  const OperandCost c = operand_cost(nl, members, lib);
  const double st = lib.static_power(GateKind::kNot, 1);
  // CDP * (sum - max) = 3d * (3st - st) = 3d * 2st.
  EXPECT_NEAR(c.static_energy, c.delay * 2 * st, 1e-24);
}

TEST(EnergyModel, ExternalFaninsArriveAtZero) {
  // Two parallel inverters: the operand containing only the second one
  // sees its input (the first inverter, outside the set) at t=0.
  const Netlist nl = parse_bench(
      "INPUT(a)\nOUTPUT(y)\nw1 = NOT(a)\ny = NOT(w1)\n");
  const CellLibrary lib = CellLibrary::nominal_45nm();
  const OperandCost c =
      operand_cost(nl, std::vector<GateId>{nl.find("y")}, lib);
  EXPECT_NEAR(c.delay, lib.delay(GateKind::kNot, 1), 1e-15);
}

TEST(EnergyModel, ParallelMembersShareCdp) {
  // Two independent inverters in one operand: CDP is one delay, not two.
  const Netlist nl = parse_bench(
      "INPUT(a)\nINPUT(b)\nOUTPUT(x)\nOUTPUT(y)\nx = NOT(a)\ny = NOT(b)\n");
  const CellLibrary lib = CellLibrary::nominal_45nm();
  std::vector<GateId> members = {nl.find("x"), nl.find("y")};
  const OperandCost c = operand_cost(nl, members, lib);
  EXPECT_NEAR(c.delay, lib.delay(GateKind::kNot, 1), 1e-15);
  EXPECT_NEAR(c.dynamic_energy, 2 * lib.switching_energy(GateKind::kNot, 1),
              1e-19);
}

TEST(EnergyModel, PowerIsEnergyOverDelay) {
  const Netlist nl = parse_bench(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nw = AND(a, b)\ny = NOT(w)\n");
  const CellLibrary lib = CellLibrary::nominal_45nm();
  std::vector<GateId> members = {nl.find("w"), nl.find("y")};
  const OperandCost c = operand_cost(nl, members, lib);
  EXPECT_NEAR(c.power, c.energy() / c.delay, 1e-12);
}

TEST(EnergyModel, NetlistCostCoversAllLogic) {
  const Netlist nl = parse_bench(R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
w1 = AND(a, b)
w2 = XOR(w1, a)
q = DFF(w2)
y = NOT(q)
)");
  const CellLibrary lib = CellLibrary::nominal_45nm();
  const OperandCost c = netlist_cost(nl, lib);
  const double expected = lib.switching_energy(GateKind::kAnd, 2) +
                          lib.switching_energy(GateKind::kXor, 2) +
                          lib.switching_energy(GateKind::kDff, 1) +
                          lib.switching_energy(GateKind::kNot, 1);
  EXPECT_NEAR(c.dynamic_energy, expected, 1e-18);
}

TEST(EnergyModel, PrecomputedPositionsMatchAdHoc) {
  const Netlist nl = parse_bench(R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
w1 = NAND(a, b)
w2 = NOR(w1, a)
y = XOR(w1, w2)
)");
  const CellLibrary lib = CellLibrary::nominal_45nm();
  std::vector<GateId> members = {nl.find("y"), nl.find("w1"), nl.find("w2")};
  const OperandCost c1 = operand_cost(nl, members, lib);
  // The kernel takes the members ordered by their topological positions.
  const auto pos = topological_positions(nl);
  std::sort(members.begin(), members.end(),
            [&pos](GateId a, GateId b) { return pos[a] < pos[b]; });
  std::vector<double> arrival(nl.size(), -1.0);
  const OperandCost c2 = ordered_operand_cost(nl, members, lib, arrival);
  EXPECT_DOUBLE_EQ(c1.dynamic_energy, c2.dynamic_energy);
  EXPECT_DOUBLE_EQ(c1.static_energy, c2.static_energy);
  EXPECT_DOUBLE_EQ(c1.delay, c2.delay);
  std::vector<double> short_buffer(nl.size() - 1, -1.0);
  EXPECT_THROW(ordered_operand_cost(nl, members, lib, short_buffer),
               std::invalid_argument);
}

TEST(EnergyModel, SharedScratchBufferMatchesFreshBuffersOnS38417) {
  // One arrival buffer reused across every operand of a tree build must
  // give the bits a fresh buffer gives, and hand the buffer back clean.
  const Netlist nl = build_benchmark("s38417");
  const CellLibrary lib = CellLibrary::nominal_45nm();
  const TaskTree tree = initial_tree(nl, lib);
  ASSERT_GT(tree.size(), 1000u);
  std::vector<double> shared(nl.size(), -1.0);
  for (TaskId id = 0; id < tree.size(); ++id) {
    const TaskNode& node = tree.node(id);
    std::vector<double> fresh(nl.size(), -1.0);
    const OperandCost a =
        ordered_operand_cost(nl, tree.topo_gates(id), lib, shared);
    const OperandCost b =
        ordered_operand_cost(nl, tree.topo_gates(id), lib, fresh);
    ASSERT_EQ(a.delay, b.delay) << node.label;
    ASSERT_EQ(a.dynamic_energy, b.dynamic_energy) << node.label;
    ASSERT_EQ(a.static_energy, b.static_energy) << node.label;
    ASSERT_EQ(a.power, b.power) << node.label;
    // The tree's own dictionary was costed through the same path.
    ASSERT_EQ(node.dict.delay, a.delay) << node.label;
    ASSERT_EQ(node.dict.dynamic_energy, a.dynamic_energy) << node.label;
  }
  EXPECT_TRUE(std::all_of(shared.begin(), shared.end(),
                          [](double v) { return v == -1.0; }));
}

TEST(EnergyModel, DffMemberContributesCaptureDelay) {
  const Netlist nl = parse_bench(
      "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n");
  const CellLibrary lib = CellLibrary::nominal_45nm();
  const OperandCost c =
      operand_cost(nl, std::vector<GateId>{nl.find("q")}, lib);
  EXPECT_NEAR(c.delay, lib.delay(GateKind::kDff, 1), 1e-15);
  EXPECT_GT(c.dynamic_energy, 0.0);
}

}  // namespace
}  // namespace diac
