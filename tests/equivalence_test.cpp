// Equivalence checker (src/verify/equivalence) + design-level checks:
// exhaustive and random modes, sequential lockstep, counterexample
// soundness under injected faults, transform-preservation and the
// codegen round trip across the full 24-circuit suite.
#include <gtest/gtest.h>

#include <list>
#include <string>
#include <vector>

#include "cell/cell_library.hpp"
#include "diac/synthesizer.hpp"
#include "netlist/suite.hpp"
#include "netlist/transforms.hpp"
#include "verify/design_check.hpp"
#include "verify/equivalence.hpp"

namespace diac {
namespace {

using verify::check_equivalence;
using verify::EquivalenceOptions;
using verify::EquivalenceResult;
using verify::EquivalenceStatus;

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::nominal_45nm();
  return l;
}

// y = a AND b, spelled directly.
Netlist and_direct() {
  Netlist nl("and_direct");
  const GateId a = nl.add(GateKind::kInput, "a");
  const GateId b = nl.add(GateKind::kInput, "b");
  nl.add(GateKind::kOutput, "y", {nl.add(GateKind::kAnd, "g", {a, b})});
  nl.seal();
  return nl;
}

// y = a AND b via De Morgan: ~(~a | ~b).
Netlist and_demorgan() {
  Netlist nl("and_demorgan");
  const GateId a = nl.add(GateKind::kInput, "a");
  const GateId b = nl.add(GateKind::kInput, "b");
  const GateId na = nl.add(GateKind::kNot, "na", {a});
  const GateId nb = nl.add(GateKind::kNot, "nb", {b});
  nl.add(GateKind::kOutput, "y",
         {nl.add(GateKind::kNor, "nr", {na, nb})});
  nl.seal();
  return nl;
}

// y = a OR b (differs from AND on patterns 01 and 10).
Netlist or_direct() {
  Netlist nl("or_direct");
  const GateId a = nl.add(GateKind::kInput, "a");
  const GateId b = nl.add(GateKind::kInput, "b");
  nl.add(GateKind::kOutput, "y", {nl.add(GateKind::kOr, "g", {a, b})});
  nl.seal();
  return nl;
}

// A 2-stage DFF delay line from input `i` to output `y`; `invert_d`
// feeds ~i into the first stage, which is observable only from cycle 2.
Netlist delay_line(bool invert_d) {
  Netlist nl(invert_d ? "delay_inv" : "delay");
  const GateId i = nl.add(GateKind::kInput, "i");
  const GateId d =
      invert_d ? nl.add(GateKind::kNot, "nd", {i}) : i;
  const GateId q1 = nl.add(GateKind::kDff, "q1", {d});
  const GateId q2 = nl.add(GateKind::kDff, "q2", {q1});
  nl.add(GateKind::kOutput, "y", {q2});
  nl.seal();
  return nl;
}

TEST(Equivalence, ExhaustiveProvesSmallCombinational) {
  const EquivalenceResult r =
      check_equivalence(and_direct(), and_demorgan());
  EXPECT_TRUE(r.equivalent());
  EXPECT_TRUE(r.exhaustive);
  EXPECT_EQ(r.patterns, 4u) << "2 inputs -> 2^2 patterns exactly";
  EXPECT_FALSE(r.counterexample.has_value());
}

TEST(Equivalence, ExhaustiveFindsCounterexample) {
  const Netlist a = and_direct();
  const Netlist b = or_direct();
  EquivalenceOptions opts;
  const EquivalenceResult r = check_equivalence(a, b, opts);
  EXPECT_EQ(r.status, EquivalenceStatus::kNotEquivalent);
  ASSERT_TRUE(r.counterexample.has_value());
  const verify::Counterexample& cex = *r.counterexample;
  EXPECT_TRUE(cex.replayed);
  EXPECT_EQ(cex.cycle, 0);
  EXPECT_EQ(cex.output, "y");
  ASSERT_EQ(cex.pattern.size(), 1u);
  ASSERT_EQ(cex.pattern[0].size(), 2u);
  // AND != OR exactly when exactly one input is 1.
  EXPECT_EQ(int{cex.pattern[0][0]} + int{cex.pattern[0][1]}, 1);
  EXPECT_NE(cex.value_a, cex.value_b);
  EXPECT_TRUE(verify::replay_counterexample(a, b, opts, cex));
}

TEST(Equivalence, InterfaceMismatchIsReportedNotThrown) {
  Netlist renamed = and_direct();
  // Same function, different input names.
  Netlist other("other");
  const GateId p = other.add(GateKind::kInput, "p");
  const GateId q = other.add(GateKind::kInput, "q");
  other.add(GateKind::kOutput, "y",
            {other.add(GateKind::kAnd, "g", {p, q})});
  other.seal();
  const EquivalenceResult r = check_equivalence(renamed, other);
  EXPECT_EQ(r.status, EquivalenceStatus::kInterfaceMismatch);
  EXPECT_FALSE(r.equivalent());
  EXPECT_NE(r.reason.find("'a'"), std::string::npos) << r.reason;
  // Positional matching bridges the renaming.
  EquivalenceOptions by_order;
  by_order.match_ports_by_order = true;
  EXPECT_TRUE(check_equivalence(renamed, other, by_order).equivalent());
}

TEST(Equivalence, SequentialDivergenceCarriesCycleIndex) {
  const Netlist a = delay_line(false);
  const Netlist b = delay_line(true);
  EquivalenceOptions opts;
  const EquivalenceResult r = check_equivalence(a, b, opts);
  ASSERT_EQ(r.status, EquivalenceStatus::kNotEquivalent);
  ASSERT_TRUE(r.counterexample.has_value());
  // The inverted D pin is observable exactly two DFF stages later.
  EXPECT_EQ(r.counterexample->cycle, 2);
  EXPECT_EQ(r.counterexample->pattern.size(), 3u);
  EXPECT_TRUE(r.counterexample->replayed);
  EXPECT_TRUE(verify::replay_counterexample(a, b, opts, *r.counterexample));
}

TEST(Equivalence, BoundedLockstepHonorsSeqCycles) {
  // Within 2 cycles the inverted delay line is indistinguishable: the
  // divergence needs 3 observed cycles (0, 1, 2).
  EquivalenceOptions opts;
  opts.seq_cycles = 2;
  const EquivalenceResult r =
      check_equivalence(delay_line(false), delay_line(true), opts);
  EXPECT_TRUE(r.equivalent());
  EXPECT_EQ(r.patterns,
            static_cast<std::uint64_t>(opts.random_rounds) * 2u * 64u *
                static_cast<std::uint64_t>(opts.batch_words));
}

TEST(Equivalence, ResultIsDeterministic) {
  const Netlist a = build_benchmark("s208");
  const Netlist b = cleanup(a);
  EquivalenceOptions opts;
  opts.random_rounds = 4;
  const EquivalenceResult r1 = check_equivalence(a, b, opts);
  const EquivalenceResult r2 = check_equivalence(a, b, opts);
  EXPECT_EQ(r1.status, r2.status);
  EXPECT_EQ(r1.patterns, r2.patterns);
  EXPECT_EQ(r1.exhaustive, r2.exhaustive);
}

// --- fault injection: checker soundness --------------------------------

enum class Mutation {
  kStuckAtOutput,
  kInvertedPolarity,
  kSwappedMuxArms,
  kDroppedGate,
};

const char* to_string(Mutation m) {
  switch (m) {
    case Mutation::kStuckAtOutput: return "stuck-at-output";
    case Mutation::kInvertedPolarity: return "inverted-polarity";
    case Mutation::kSwappedMuxArms: return "swapped-mux-arms";
    case Mutation::kDroppedGate: return "dropped-gate";
  }
  return "?";
}

GateKind inverted(GateKind k) {
  switch (k) {
    case GateKind::kAnd: return GateKind::kNand;
    case GateKind::kNand: return GateKind::kAnd;
    case GateKind::kOr: return GateKind::kNor;
    case GateKind::kNor: return GateKind::kOr;
    case GateKind::kXor: return GateKind::kXnor;
    case GateKind::kXnor: return GateKind::kXor;
    default: return k;
  }
}

// A copy of `nl` with gate `target` re-typed to `kind`; a netlist has no
// in-place kind setter.
Netlist retyped(const Netlist& nl, GateId target, GateKind kind) {
  Netlist out(nl.name());
  for (GateId id = 0; id < nl.size(); ++id) {
    out.add(id == target ? kind : nl.kind(id), nl.gate_name(id));
  }
  for (GateId id = 0; id < nl.size(); ++id) out.set_fanin(id, nl.fanin(id));
  return out;
}

// Applies `m` to a copy of `nl`; returns false when the netlist has no
// applicable site (e.g. no MUX with distinct arms).
bool apply_mutation(Netlist& nl, Mutation m) {
  switch (m) {
    case Mutation::kStuckAtOutput: {
      if (nl.outputs().empty()) return false;
      const GateId out = nl.outputs()[0];
      const GateId c0 = nl.add(GateKind::kConst0, "mut_stuck0");
      nl.set_fanin(out, {c0});
      return true;
    }
    case Mutation::kInvertedPolarity: {
      for (GateId id = 0; id < nl.size(); ++id) {
        const GateKind k = nl.kind(id);
        if (inverted(k) != k) {
          nl = retyped(nl, id, inverted(k));
          return true;
        }
      }
      return false;
    }
    case Mutation::kSwappedMuxArms: {
      for (GateId id = 0; id < nl.size(); ++id) {
        const Gate g = nl.gate(id);
        if (g.kind == GateKind::kMux && g.fanin[1] != g.fanin[2]) {
          nl.set_fanin(id, {g.fanin[0], g.fanin[2], g.fanin[1]});
          return true;
        }
      }
      return false;
    }
    case Mutation::kDroppedGate: {
      // Bypass the last wide gate: its consumers see fanin[0] instead
      // of the computed function.
      for (GateId id = static_cast<GateId>(nl.size()); id-- > 0;) {
        const Gate g = nl.gate(id);
        if (is_combinational(g.kind) && g.fanin.size() >= 2 &&
            g.kind != GateKind::kMux) {
          const GateId first = g.fanin[0];
          nl = retyped(nl, id, GateKind::kBuf);
          nl.set_fanin(id, {first});
          return true;
        }
      }
      return false;
    }
  }
  return false;
}

class MutationCatching
    : public ::testing::TestWithParam<std::tuple<std::string, Mutation>> {};

TEST_P(MutationCatching, FaultIsCaughtWithValidCounterexample) {
  const auto& [name, mutation] = GetParam();
  const Netlist original = build_benchmark(name);
  Netlist mutant = original;
  ASSERT_TRUE(apply_mutation(mutant, mutation))
      << name << " has no site for " << to_string(mutation);
  mutant.seal();  // every mutant stays structurally legal
  EquivalenceOptions opts;
  const EquivalenceResult r = check_equivalence(original, mutant, opts);
  ASSERT_EQ(r.status, EquivalenceStatus::kNotEquivalent)
      << to_string(mutation) << " escaped on " << name;
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_TRUE(r.counterexample->replayed)
      << "counterexample failed independent replay";
  EXPECT_NE(r.counterexample->value_a, r.counterexample->value_b);
  EXPECT_EQ(r.counterexample->inputs.size(), original.inputs().size());
  EXPECT_TRUE(
      verify::replay_counterexample(original, mutant, opts, *r.counterexample));
}

INSTANTIATE_TEST_SUITE_P(
    Faults, MutationCatching,
    ::testing::Combine(::testing::Values("s344", "s953", "b10", "sbc"),
                       ::testing::Values(Mutation::kStuckAtOutput,
                                         Mutation::kInvertedPolarity,
                                         Mutation::kSwappedMuxArms,
                                         Mutation::kDroppedGate)),
    [](const auto& inf) {
      std::string label = std::get<0>(inf.param);
      label += "_";
      for (const char* c = to_string(std::get<1>(inf.param)); *c; ++c) {
        label += *c == '-' ? '_' : *c;
      }
      return label;
    });

// --- whole-suite sweeps ------------------------------------------------

std::vector<std::string> suite_names() {
  std::vector<std::string> names;
  for (const BenchmarkSpec& spec : benchmark_suite()) {
    names.push_back(spec.name);
  }
  return names;
}

class SuiteEquivalence : public ::testing::TestWithParam<std::string> {};

// The netlist transforms must be behavior-preserving on every circuit.
TEST_P(SuiteEquivalence, TransformsPreserveFunction) {
  static std::list<Netlist> cache;
  cache.push_back(build_benchmark(GetParam()));
  const Netlist& original = cache.back();
  EquivalenceOptions opts;
  opts.random_rounds = 4;
  opts.seq_cycles = 6;
  for (const Netlist& variant :
       {sweep_dead_gates(original), propagate_constants(original),
        elide_buffers(original), cleanup(original)}) {
    const EquivalenceResult r = check_equivalence(original, variant, opts);
    EXPECT_TRUE(r.equivalent())
        << GetParam() << " vs " << variant.name() << ": "
        << verify::to_string(r.status) << " " << r.reason;
  }
}

// Acceptance: emit -> re-import -> equivalence over the whole suite.
TEST_P(SuiteEquivalence, CodegenRoundTripIsEquivalent) {
  const Netlist original = build_benchmark(GetParam());
  DiacSynthesizer synth(original, lib());
  const SynthesisResult sr = synth.synthesize();
  EXPECT_TRUE(verify::run_design_drc(sr.design).clean()) << GetParam();
  EquivalenceOptions opts;
  opts.random_rounds = 4;
  opts.seq_cycles = 6;
  const verify::RoundTripResult rt =
      verify::check_codegen_roundtrip(sr.design, opts);
  EXPECT_TRUE(rt.ok())
      << GetParam() << ": " << verify::to_string(rt.equivalence.status);
  EXPECT_GT(rt.gates_reimported, 0u);
  EXPECT_GT(rt.equivalence.patterns, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllCircuits, SuiteEquivalence,
                         ::testing::ValuesIn(suite_names()),
                         [](const auto& inf) { return inf.param; });

}  // namespace
}  // namespace diac
