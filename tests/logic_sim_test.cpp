#include <gtest/gtest.h>

#include "netlist/bench_format.hpp"
#include "netlist/generators.hpp"
#include "netlist/compiled_sim.hpp"
#include "oracle/reference_logic_sim.hpp"
#include "util/rng.hpp"

namespace diac {
namespace {

TEST(LogicSim, GateFunctions) {
  const Word a = 0b1100, b = 0b1010;
  EXPECT_EQ(eval_gate(GateKind::kAnd, {a, b}) & 0xF, Word{0b1000});
  EXPECT_EQ(eval_gate(GateKind::kOr, {a, b}) & 0xF, Word{0b1110});
  EXPECT_EQ(eval_gate(GateKind::kXor, {a, b}) & 0xF, Word{0b0110});
  EXPECT_EQ(eval_gate(GateKind::kNand, {a, b}) & 0xF, Word{0b0111});
  EXPECT_EQ(eval_gate(GateKind::kNor, {a, b}) & 0xF, Word{0b0001});
  EXPECT_EQ(eval_gate(GateKind::kXnor, {a, b}) & 0xF, Word{0b1001});
  EXPECT_EQ(eval_gate(GateKind::kNot, {a}) & 0xF, Word{0b0011});
  EXPECT_EQ(eval_gate(GateKind::kBuf, {a}) & 0xF, Word{0b1100});
}

TEST(LogicSim, MuxSelects) {
  const Word sel = 0b10, a = 0b11, b = 0b00;
  // sel=0 -> a, sel=1 -> b (lane-wise).
  EXPECT_EQ(eval_gate(GateKind::kMux, {sel, a, b}) & 0x3, Word{0b01});
}

TEST(LogicSim, WideGates) {
  EXPECT_EQ(eval_gate(GateKind::kAnd, {~Word{0}, ~Word{0}, Word{0b1}}) & 0x1,
            Word{1});
  EXPECT_EQ(eval_gate(GateKind::kOr, {Word{0}, Word{0}, Word{0b1}}) & 0x1,
            Word{1});
}

TEST(LogicSim, Constants) {
  EXPECT_EQ(eval_gate(GateKind::kConst0, {}), Word{0});
  EXPECT_EQ(eval_gate(GateKind::kConst1, {}), ~Word{0});
}

TEST(LogicSim, CombinationalSettle) {
  const Netlist nl = parse_bench(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n");
  CompiledSimulator sim(nl);
  sim.set_input(nl.find("a"), 0b1100);
  sim.set_input(nl.find("b"), 0b1010);
  sim.settle();
  EXPECT_EQ(sim.value(nl.find("y")) & 0xF, Word{0b0110});
}

TEST(LogicSim, SequentialCounterBit) {
  // q toggles every cycle: q' = NOT(q).
  const Netlist nl =
      parse_bench("OUTPUT(q)\nq = DFF(d)\nd = NOT(q)\n");
  CompiledSimulator sim(nl);
  sim.settle();
  EXPECT_EQ(sim.value(nl.find("q")), Word{0});  // reset state
  sim.step();
  sim.settle();
  EXPECT_EQ(sim.value(nl.find("q")), ~Word{0});
  sim.step();
  sim.settle();
  EXPECT_EQ(sim.value(nl.find("q")), Word{0});
}

TEST(LogicSim, ShiftRegisterDelaysInput) {
  const Netlist nl = parse_bench(
      "INPUT(d)\nOUTPUT(q2)\nq1 = DFF(d)\nq2 = DFF(q1)\n");
  CompiledSimulator sim(nl);
  sim.set_input(nl.find("d"), 0xABCD);
  sim.step();  // q1 <- d
  sim.step();  // q2 <- q1
  sim.settle();
  EXPECT_EQ(sim.value(nl.find("q2")), Word{0xABCD});
}

TEST(LogicSim, StateSnapshotRoundTrip) {
  const Netlist nl =
      parse_bench("OUTPUT(q)\nq = DFF(d)\nd = NOT(q)\n");
  CompiledSimulator sim(nl);
  sim.run(3);
  const auto snapshot = sim.state();
  const auto fp_before = (sim.settle(), sim.fingerprint());
  sim.run(5);  // diverge
  sim.set_state(snapshot);
  sim.settle();
  EXPECT_EQ(sim.fingerprint(), fp_before);
}

TEST(LogicSim, SetStateRejectsWrongSize) {
  const Netlist nl =
      parse_bench("OUTPUT(q)\nq = DFF(d)\nd = NOT(q)\n");
  CompiledSimulator sim(nl);
  EXPECT_THROW(sim.set_state({1, 2, 3}), std::invalid_argument);
}

TEST(LogicSim, SetInputRejectsNonInput) {
  const Netlist nl = parse_bench(
      "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n");
  CompiledSimulator sim(nl);
  EXPECT_THROW(sim.set_input(nl.find("y"), 1), std::invalid_argument);
  EXPECT_THROW(sim.set_input(nl.find("ghost"), 1), std::invalid_argument);
}

TEST(LogicSim, MultiplierComputesProducts) {
  // The structural array multiplier must actually multiply.
  const Netlist nl = gen::array_multiplier("mul4", 4);
  CompiledSimulator sim(nl);
  SplitMix64 rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const unsigned a = static_cast<unsigned>(rng.below(16));
    const unsigned b = static_cast<unsigned>(rng.below(16));
    for (int i = 0; i < 4; ++i) {
      sim.set_input(nl.find("a" + std::to_string(i)), (a >> i) & 1 ? ~Word{0} : 0);
      sim.set_input(nl.find("b" + std::to_string(i)), (b >> i) & 1 ? ~Word{0} : 0);
    }
    sim.settle();
    unsigned product = 0;
    for (int k = 0; k < 8; ++k) {
      const GateId out = nl.find("p" + std::to_string(k) + "$out");
      if (out == kNullGate) continue;
      if (sim.value(out) & 1) product |= 1u << k;
    }
    EXPECT_EQ(product, a * b) << a << " * " << b;
  }
}

TEST(LogicSim, MajorityVoterVotes) {
  const Netlist nl = gen::majority_voter("maj", 3);
  CompiledSimulator sim(nl);
  // Lanes: try all 8 combinations in parallel lanes.
  Word v0 = 0, v1 = 0, v2 = 0;
  for (int lane = 0; lane < 8; ++lane) {
    if (lane & 1) v0 |= Word{1} << lane;
    if (lane & 2) v1 |= Word{1} << lane;
    if (lane & 4) v2 |= Word{1} << lane;
  }
  sim.set_input(nl.find("v0"), v0);
  sim.set_input(nl.find("v1"), v1);
  sim.set_input(nl.find("v2"), v2);
  sim.settle();
  const Word out = sim.value(nl.find("maj$out"));
  for (int lane = 0; lane < 8; ++lane) {
    const int ones = ((lane & 1) != 0) + ((lane & 2) != 0) + ((lane & 4) != 0);
    EXPECT_EQ((out >> lane) & 1, Word{ones >= 2 ? 1u : 0u}) << lane;
  }
}

TEST(LogicSim, FingerprintDetectsDifferences) {
  const Netlist nl = parse_bench(
      "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n");
  CompiledSimulator sim(nl);
  sim.set_input(nl.find("a"), 0);
  sim.settle();
  const auto fp0 = sim.fingerprint();
  sim.set_input(nl.find("a"), ~Word{0});
  sim.settle();
  EXPECT_NE(sim.fingerprint(), fp0);
}

TEST(LogicSim, DeterministicAcrossRuns) {
  const Netlist nl = gen::random_logic("rl", 8, 4, 200, 1234);
  CompiledSimulator s1(nl), s2(nl);
  for (GateId in : nl.inputs()) {
    s1.set_input(in, 0x5555AAAA5555AAAAULL);
    s2.set_input(in, 0x5555AAAA5555AAAAULL);
  }
  s1.run(10);
  s2.run(10);
  s1.settle();
  s2.settle();
  EXPECT_EQ(s1.fingerprint(), s2.fingerprint());
}

}  // namespace
}  // namespace diac
