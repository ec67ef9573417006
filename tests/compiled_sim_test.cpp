// Differential tests of the compiled SoA kernel against the scalar
// reference simulator (D1-clean: every stimulus is derived from fixed
// seeds, so failures replay exactly).  Covers all 24 suite circuits,
// every gate kind the netlist layer admits, batched-vs-unbatched lane
// identity, and a ~100k-gate synthetic stress circuit.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "netlist/compiled_sim.hpp"
#include "netlist/generators.hpp"
#include "netlist/suite.hpp"
#include "oracle/reference_logic_sim.hpp"
#include "util/rng.hpp"

namespace diac {
namespace {

// Drives `ref` and `cs` (word `word`) with identical per-cycle random
// inputs for `cycles` cycles and requires bit-identical fingerprints,
// outputs, and state after every cycle.
void expect_lockstep(const Netlist& nl, ReferenceSimulator& ref,
                     CompiledSimulator& cs, int word, int cycles,
                     std::uint64_t seed) {
  SplitMix64 rng(seed);
  for (int c = 0; c < cycles; ++c) {
    for (GateId in : nl.inputs()) {
      const Word v = rng.next();
      ref.set_input(in, v);
      cs.set_input(in, v, word);
    }
    ref.step();
    cs.step();
    const std::vector<Word> all = cs.state();  // DFF-major: i * B + w
    std::vector<Word> lane;
    lane.reserve(nl.dffs().size());
    for (std::size_t i = 0; i < nl.dffs().size(); ++i) {
      lane.push_back(all[i * static_cast<std::size_t>(cs.batch_words()) +
                         static_cast<std::size_t>(word)]);
    }
    ASSERT_EQ(ref.state(), lane) << nl.name() << " cycle " << c;
    ref.settle();
    cs.settle();
    ASSERT_EQ(ref.output_values(), cs.output_values(word))
        << nl.name() << " cycle " << c;
    ASSERT_EQ(ref.fingerprint(), cs.fingerprint(word))
        << nl.name() << " cycle " << c;
  }
}

TEST(CompiledSim, DifferentialAllSuiteCircuits) {
  for (const BenchmarkSpec& spec : benchmark_suite()) {
    const Netlist nl = build_benchmark(spec);
    ReferenceSimulator ref(nl);
    CompiledSimulator cs(nl);
    const int cycles = nl.size() > 5000 ? 3 : 8;
    expect_lockstep(nl, ref, cs, 0, cycles, 0x9E3779B97F4A7C15ULL ^ spec.seed);
  }
}

TEST(CompiledSim, DifferentialEveryGateKind) {
  // One hand-built netlist exercising every schedulable kind, including
  // MUX, XNOR, >=3-input reducers, constants, and DFF-to-DFF chains.
  Netlist nl("kinds");
  const GateId a = nl.add(GateKind::kInput, "a");
  const GateId b = nl.add(GateKind::kInput, "b");
  const GateId c = nl.add(GateKind::kInput, "c");
  const GateId d = nl.add(GateKind::kInput, "d");
  const GateId zero = nl.add(GateKind::kConst0, "zero");
  const GateId one = nl.add(GateKind::kConst1, "one");
  const GateId buf = nl.add(GateKind::kBuf, "buf", {a});
  const GateId inv = nl.add(GateKind::kNot, "inv", {b});
  const GateId and2 = nl.add(GateKind::kAnd, "and2", {a, b});
  const GateId nand2 = nl.add(GateKind::kNand, "nand2", {b, c});
  const GateId or2 = nl.add(GateKind::kOr, "or2", {c, d});
  const GateId nor2 = nl.add(GateKind::kNor, "nor2", {d, a});
  const GateId xor2 = nl.add(GateKind::kXor, "xor2", {a, c});
  const GateId xnor2 = nl.add(GateKind::kXnor, "xnor2", {b, d});
  const GateId mux = nl.add(GateKind::kMux, "mux", {inv, and2, or2});
  const GateId and4 = nl.add(GateKind::kAnd, "and4", {a, b, c, d});
  const GateId nand3 = nl.add(GateKind::kNand, "nand3", {buf, inv, one});
  const GateId or3 = nl.add(GateKind::kOr, "or3", {nor2, xor2, zero});
  const GateId nor4 = nl.add(GateKind::kNor, "nor4", {a, b, c, d});
  const GateId xor3 = nl.add(GateKind::kXor, "xor3", {mux, and4, nand3});
  const GateId xnor5 =
      nl.add(GateKind::kXnor, "xnor5", {a, b, c, d, or3});
  const GateId q0 = nl.add(GateKind::kDff, "q0", {xor3});
  const GateId q1 = nl.add(GateKind::kDff, "q1", {q0});  // DFF -> DFF chain
  const GateId feed = nl.add(GateKind::kXor, "feed", {q1, xnor5});
  const GateId q2 = nl.add(GateKind::kDff, "q2", {feed});
  nl.add(GateKind::kOutput, "y0", {mux});
  nl.add(GateKind::kOutput, "y1", {xor3});
  nl.add(GateKind::kOutput, "y2", {q2});
  nl.add(GateKind::kOutput, "y3", {xnor2});
  nl.add(GateKind::kOutput, "y4", {nor4});
  nl.add(GateKind::kOutput, "y5", {nand2});
  nl.add(GateKind::kOutput, "y6", {zero});
  nl.add(GateKind::kOutput, "y7", {one});
  nl.seal();

  ReferenceSimulator ref(nl);
  CompiledSimulator cs(nl);
  expect_lockstep(nl, ref, cs, 0, 64, 0xD1FFC0DEULL);
  // Per-gate value parity after the final settle (not just outputs).
  for (GateId id = 0; id < nl.size(); ++id) {
    EXPECT_EQ(ref.value(id), cs.value(id)) << nl.gate(id).name;
  }
}

TEST(CompiledSim, BatchedLanesMatchUnbatched) {
  const auto compiled = CompiledNetlist::compile(build_benchmark("s1238"));
  const Netlist nl = build_benchmark("s1238");
  for (const int batch : {1, 2, 3, 4, 8}) {  // 3 exercises the generic path
    // Each word of the batched simulator must reproduce, bit for bit, a
    // solo batch-1 run fed the same per-cycle stimulus.
    CompiledSimulator multi(compiled, batch);
    std::vector<CompiledSimulator> solos;
    for (int w = 0; w < batch; ++w) solos.emplace_back(compiled, 1);
    std::vector<SplitMix64> rngs;
    for (int w = 0; w < batch; ++w) {
      rngs.emplace_back(0x5EEDULL * static_cast<std::uint64_t>(w + 1));
    }
    for (int cycle = 0; cycle < 6; ++cycle) {
      for (int w = 0; w < batch; ++w) {
        for (GateId in : compiled->inputs()) {
          const Word v = rngs[static_cast<std::size_t>(w)].next();
          multi.set_input(in, v, w);
          solos[static_cast<std::size_t>(w)].set_input(in, v);
        }
      }
      multi.step();
      for (auto& solo : solos) solo.step();
      multi.settle();
      for (int w = 0; w < batch; ++w) {
        solos[static_cast<std::size_t>(w)].settle();
        ASSERT_EQ(solos[static_cast<std::size_t>(w)].fingerprint(),
                  multi.fingerprint(w))
            << "batch " << batch << " word " << w << " cycle " << cycle;
      }
    }
  }
}

TEST(CompiledSim, WrapperMatchesReference) {
  // A batch-1 simulator, the form the robustness checks and examples
  // drive, must keep the classic semantics bit for bit.
  const Netlist nl = build_benchmark("s953");
  ReferenceSimulator ref(nl);
  CompiledSimulator sim(nl);
  SplitMix64 rng(0xFACEFEEDULL);
  for (int cycle = 0; cycle < 10; ++cycle) {
    for (GateId in : nl.inputs()) {
      const Word v = rng.next();
      ref.set_input(in, v);
      sim.set_input(in, v);
    }
    ref.step();
    sim.step();
    ref.settle();
    sim.settle();
    ASSERT_EQ(ref.fingerprint(), sim.fingerprint()) << cycle;
    ASSERT_EQ(ref.state(), sim.state()) << cycle;
  }
}

TEST(CompiledSim, SharedCompilationIsEquivalent) {
  const Netlist nl = build_benchmark("s820");
  CompiledSimulator priv(nl);
  CompiledSimulator shared(priv.compiled_ptr());
  EXPECT_EQ(priv.compiled_ptr().get(), shared.compiled_ptr().get());
  for (GateId in : nl.inputs()) {
    priv.set_input(in, 0x0123456789ABCDEFULL);
    shared.set_input(in, 0x0123456789ABCDEFULL);
  }
  priv.run(5);
  shared.run(5);
  priv.settle();
  shared.settle();
  EXPECT_EQ(priv.fingerprint(), shared.fingerprint());
}

TEST(CompiledSim, PlanRespectsDependencyOrder) {
  // Structural invariant: every AND step reads only slots defined earlier
  // (constants, inputs, DFF outputs, or previously emitted steps).
  for (const char* name : {"s27", "s1238", "b10"}) {
    const auto cn = CompiledNetlist::compile(build_benchmark(name));
    ASSERT_EQ(cn->slot_count(),
              cn->node_base() + static_cast<std::uint32_t>(cn->plan().size()));
    std::uint32_t next = cn->node_base();
    for (const AndStep& n : cn->plan()) {
      EXPECT_LT(n.a >> 1, next);
      EXPECT_LT(n.b >> 1, next);
      ++next;
    }
    for (GateId id = 0; id < cn->size(); ++id) {
      EXPECT_LT(cn->literal(id) >> 1, cn->slot_count());
    }
  }
}

TEST(CompiledSim, Synthetic100kGateCircuit) {
  const Netlist nl = gen::random_logic("synth100k", 64, 32, 100000, 0xC1ABULL);
  ASSERT_EQ(nl.logic_gate_count(), 100000u);
  ReferenceSimulator ref(nl);
  CompiledSimulator cs(CompiledNetlist::compile(nl), 4);
  expect_lockstep(nl, ref, cs, 2, 2, 0x100000ULL);
}

TEST(CompiledSim, RejectsInvalidConstruction) {
  const Netlist nl = build_benchmark("s27");
  EXPECT_THROW(CompiledSimulator(nl, 0), std::invalid_argument);
  EXPECT_THROW(CompiledSimulator(nl, -3), std::invalid_argument);
  EXPECT_THROW(CompiledSimulator(nullptr, 1), std::invalid_argument);
  CompiledSimulator cs(nl, 2);
  EXPECT_THROW(cs.set_input(nl.inputs()[0], 1, 2), std::invalid_argument);
  EXPECT_THROW(cs.value(nl.inputs()[0], -1), std::invalid_argument);
  EXPECT_THROW(cs.value(static_cast<GateId>(nl.size()), 0), std::out_of_range);
  EXPECT_THROW(cs.set_input(nl.outputs()[0], 1, 0), std::invalid_argument);
}

// The ASan CI smoke target: compile the largest suite circuit and run a
// thousand batched cycles, exercising every hot-path array end to end.
TEST(CompiledSim, S38417BatchedThousandCycles) {
  const Netlist nl = build_benchmark("s38417");
  CompiledSimulator cs(CompiledNetlist::compile(nl), 4);
  SplitMix64 rng(0x5384170ULL);
  for (GateId in : nl.inputs()) {
    for (int w = 0; w < 4; ++w) cs.set_input(in, rng.next(), w);
  }
  cs.run(1000);
  cs.settle();
  std::uint64_t combined = 0;
  for (int w = 0; w < 4; ++w) combined ^= cs.fingerprint(w);
  EXPECT_NE(combined, 0u);  // anti-DCE; exact lanes checked differentially
}

}  // namespace
}  // namespace diac
