// DRC engine (src/verify/drc): every rule trips on a crafted netlist,
// the 24-circuit suite is error-free, reports are deterministic, and
// Netlist::validate() is a faithful facade over the same engine.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "netlist/suite.hpp"
#include "verify/drc.hpp"

namespace diac {
namespace {

using verify::DrcOptions;
using verify::DrcReport;
using verify::DrcRule;
using verify::DrcSeverity;
using verify::run_drc;

// A small clean sequential netlist: every gate reaches an output, no
// constants, safe names, logic between the DFF stages.
Netlist clean_netlist() {
  Netlist nl("clean");
  const GateId a = nl.add(GateKind::kInput, "a");
  const GateId b = nl.add(GateKind::kInput, "b");
  const GateId x = nl.add(GateKind::kXor, "x", {a, b});
  const GateId q = nl.add(GateKind::kDff, "q", {x});
  const GateId n = nl.add(GateKind::kNand, "n", {q, a});
  nl.add(GateKind::kOutput, "y", {n});
  return nl;
}

TEST(Drc, CleanNetlistHasNoFindings) {
  const DrcReport r = run_drc(clean_netlist());
  EXPECT_TRUE(r.clean());
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.errors, 0u);
  EXPECT_EQ(r.warnings, 0u);
  EXPECT_EQ(r.first_error(), nullptr);
}

// Expects `f` to throw std::invalid_argument with exactly `message`.
template <typename F>
void expect_invalid_argument(F&& f, const std::string& message) {
  try {
    f();
    ADD_FAILURE() << "expected std::invalid_argument: " << message;
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), message);
  }
}

// An out-of-range fanin cannot enter the netlist: add() and set_fanin()
// reject it with their messages before storing anything, so the netlist
// stays clean.  N1 keeps the range check for completeness.
TEST(Drc, N1OutOfRangeFanin) {
  Netlist nl = clean_netlist();
  const GateId n = nl.find("n");
  expect_invalid_argument([&] { nl.add(GateKind::kNot, "bad", {1000}); },
                          "Netlist: fanin id out of range for 'bad'");
  expect_invalid_argument([&] { nl.set_fanin(n, {nl.find("q"), 1000}); },
                          "Netlist::set_fanin: fanin id out of range");
  expect_invalid_argument([&] { nl.set_fanin(1000, {n}); },
                          "Netlist::set_fanin: gate id out of range");
  EXPECT_FALSE(nl.contains("bad"));
  EXPECT_EQ(nl.size(), 6u);
  ASSERT_EQ(nl.fanin(n).size(), 2u);
  EXPECT_EQ(nl.fanin(n)[1], nl.find("a"));
  EXPECT_TRUE(run_drc(nl).clean());
  EXPECT_NO_THROW(nl.seal());
}

// Fanout is derived from the fanins, so the one N1 error a re-linked
// gate can still produce is reading an OUTPUT port.
TEST(Drc, N1RelinkedGateReadsOutput) {
  Netlist nl = clean_netlist();
  nl.set_fanin(nl.find("n"), {nl.find("q"), nl.find("y")});
  const DrcReport r = run_drc(nl, DrcOptions::structural());
  ASSERT_EQ(r.count(DrcRule::kLinks), 1u);
  EXPECT_EQ(r.findings[0].gate_name, "n");
  EXPECT_EQ(r.findings[0].message, "OUTPUT 'y' drives gate 'n'");
  EXPECT_THROW(nl.seal(), std::runtime_error);
  EXPECT_FALSE(nl.sealed());
}

TEST(Drc, N1OutputUsedAsDriver) {
  Netlist nl = clean_netlist();
  nl.add(GateKind::kNot, "bad", {nl.find("y")});
  const DrcReport r = run_drc(nl, DrcOptions::structural());
  ASSERT_EQ(r.count(DrcRule::kLinks), 1u);
  EXPECT_NE(r.first_error()->message.find("OUTPUT 'y' drives gate 'bad'"),
            std::string::npos);
  EXPECT_THROW(nl.validate(), std::runtime_error);
}

TEST(Drc, N2ArityViolations) {
  Netlist nl("arity");
  const GateId a = nl.add(GateKind::kInput, "a");
  nl.add(GateKind::kAnd, "and1", {a});         // needs >= 2
  nl.add(GateKind::kMux, "mux2", {a, a});      // needs exactly 3
  nl.add(GateKind::kInput, "i1", {a});         // needs 0
  const DrcReport r = run_drc(nl, DrcOptions::structural());
  EXPECT_EQ(r.count(DrcRule::kArity), 3u);
  EXPECT_EQ(r.errors, 3u);
  EXPECT_THROW(nl.validate(), std::runtime_error);
}

TEST(Drc, N3CycleReportedWithFullPath) {
  Netlist nl("cyc");
  const GateId i = nl.add(GateKind::kInput, "i");
  const GateId a = nl.add(GateKind::kAnd, "a", {i, i});
  const GateId b = nl.add(GateKind::kNot, "b", {a});
  const GateId c = nl.add(GateKind::kBuf, "c", {b});
  nl.set_fanin(a, {i, c});  // a -> c -> b -> a
  nl.add(GateKind::kOutput, "y", {c});
  const DrcReport r = run_drc(nl, DrcOptions::structural());
  ASSERT_EQ(r.count(DrcRule::kCycle), 1u);
  const std::string& msg = r.first_error()->message;
  EXPECT_NE(msg.find("combinational cycle"), std::string::npos);
  // The full path names every member of the loop.
  EXPECT_NE(msg.find("'a'"), std::string::npos);
  EXPECT_NE(msg.find("'b'"), std::string::npos);
  EXPECT_NE(msg.find("'c'"), std::string::npos);
  EXPECT_THROW(nl.validate(), std::runtime_error);
}

TEST(Drc, N3CycleThroughDffIsFine) {
  Netlist nl("seqloop");
  const GateId i = nl.add(GateKind::kInput, "i");
  const GateId x = nl.add(GateKind::kXor, "x", {i, i});
  const GateId q = nl.add(GateKind::kDff, "q", {x});
  nl.set_fanin(x, {i, q});  // x -> q -> x, broken by the DFF
  nl.add(GateKind::kOutput, "y", {x});
  const DrcReport r = run_drc(nl);
  EXPECT_EQ(r.count(DrcRule::kCycle), 0u);
  EXPECT_TRUE(r.clean());
  EXPECT_NO_THROW(nl.validate());
}

TEST(Drc, N4UnreachableAndFloating) {
  Netlist nl = clean_netlist();
  const GateId dead_in = nl.add(GateKind::kInput, "dead_in");
  nl.add(GateKind::kNot, "dead_not", {dead_in});
  const DrcReport r = run_drc(nl);
  EXPECT_EQ(r.count(DrcRule::kFloating), 2u);
  EXPECT_TRUE(r.clean()) << "N4 findings are warnings, not errors";
  EXPECT_EQ(r.warnings, 2u);
  EXPECT_NO_THROW(nl.validate()) << "validate() checks N1-N3 only";
}

TEST(Drc, N4NoOutputsAtAll) {
  Netlist nl("noout");
  nl.add(GateKind::kInput, "a");
  const DrcReport r = run_drc(nl);
  ASSERT_EQ(r.count(DrcRule::kFloating), 1u);
  EXPECT_EQ(r.findings[0].gate, kNullGate);
  EXPECT_NE(r.findings[0].message.find("no output ports"),
            std::string::npos);
}

TEST(Drc, N5UnsafeNameWarnsCollisionErrors) {
  Netlist nl("names");
  const GateId a = nl.add(GateKind::kInput, "sig.1");
  const GateId b = nl.add(GateKind::kInput, "sig_1");
  const GateId x = nl.add(GateKind::kXor, "x", {a, b});
  nl.add(GateKind::kOutput, "y", {x});
  const DrcReport r = run_drc(nl);
  // 'sig.1' needs sanitization (warning) and then collides with
  // 'sig_1' (error): codegen would merge the two wires.
  EXPECT_EQ(r.count(DrcRule::kNames), 2u);
  EXPECT_EQ(r.errors, 1u);
  EXPECT_EQ(r.warnings, 1u);
  ASSERT_EQ(r.findings.size(), 2u);
  EXPECT_EQ(r.findings[0].message,
            "name 'sig.1' needs sanitization for codegen ('w_sig_1')");
  EXPECT_EQ(r.findings[1].message,
            "sanitized name 'w_sig_1' of 'sig_1' collides with gate 'sig.1'");
  EXPECT_NO_THROW(nl.validate()) << "name rules stay out of validate()";
}

TEST(Drc, N5FollowsTheVerilogIdentifierRule) {
  // '$' after the first character is legal ("<signal>$out" port gates);
  // two rewritten names that sanitize alike collide with the lower id.
  Netlist nl("names");
  const GateId a = nl.add(GateKind::kInput, "a$1");
  const GateId b = nl.add(GateKind::kInput, "b-c");
  const GateId c = nl.add(GateKind::kInput, "b.c");
  const GateId d = nl.add(GateKind::kInput, "9");
  const GateId x = nl.add(GateKind::kXor, "x", {a, b, c, d});
  nl.add(GateKind::kOutput, "y$out", {x});
  const DrcReport r = run_drc(nl);
  ASSERT_EQ(r.count(DrcRule::kNames), 3u);
  EXPECT_EQ(r.warnings, 2u);
  EXPECT_EQ(r.errors, 1u);
  EXPECT_EQ(r.findings[2].gate, c);
  EXPECT_EQ(r.findings[2].message,
            "sanitized name 'w_b_c' of 'b.c' collides with gate 'b-c'");
}

TEST(Drc, N6Degeneracies) {
  Netlist nl("degen");
  const GateId i = nl.add(GateKind::kInput, "i");
  const GateId c0 = nl.add(GateKind::kConst0, "c0");
  const GateId q1 = nl.add(GateKind::kDff, "q1", {i});
  const GateId q2 = nl.add(GateKind::kDff, "q2", {q1});   // DFF-of-DFF
  const GateId qc = nl.add(GateKind::kDff, "qc", {c0});   // constant D
  const GateId an = nl.add(GateKind::kAnd, "an", {i, c0});  // forced 0
  const GateId mx = nl.add(GateKind::kMux, "mx", {c0, q2, qc});  // const sel
  const GateId x = nl.add(GateKind::kXor, "x", {an, mx});
  nl.add(GateKind::kOutput, "y", {x});
  nl.add(GateKind::kOutput, "yc", {c0});                  // const output
  const DrcReport r = run_drc(nl);
  EXPECT_EQ(r.count(DrcRule::kDegenerate), 5u);
  EXPECT_TRUE(r.clean()) << "N6 findings are warnings";
  EXPECT_NO_THROW(nl.validate());
}

TEST(Drc, ValidateDelegatesToDrcEngine) {
  Netlist nl("delegate");
  const GateId a = nl.add(GateKind::kInput, "a");
  nl.add(GateKind::kAnd, "narrow", {a});
  try {
    nl.validate();
    FAIL() << "validate() must throw on an arity violation";
  } catch (const std::runtime_error& e) {
    const DrcReport r = run_drc(nl, DrcOptions::structural());
    ASSERT_NE(r.first_error(), nullptr);
    // The thrown message IS the engine's first error — no drift possible.
    EXPECT_EQ(std::string("Netlist::validate: ") + r.first_error()->message,
              e.what());
  }
}

TEST(Drc, StructuralOptionsSkipAdvisoryRules) {
  Netlist nl("adv");
  nl.add(GateKind::kInput, "unused.in");  // N4 + N5 material
  nl.add(GateKind::kOutput, "y", {nl.add(GateKind::kConst1, "c1")});
  EXPECT_FALSE(run_drc(nl).findings.empty());
  EXPECT_TRUE(run_drc(nl, DrcOptions::structural()).findings.empty());
}

TEST(Drc, ReportIsDeterministicAndOrdered) {
  // Advisory findings on several gates: N4 (unused input, unreachable
  // gate), N5 (unsafe names) and N6 (constant-driven DFF).
  Netlist nl = clean_netlist();
  nl.add(GateKind::kInput, "dead.in");
  const GateId c = nl.add(GateKind::kConst0, "zero");
  nl.add(GateKind::kDff, "stuck.q", {c});
  const DrcReport r1 = run_drc(nl);
  EXPECT_TRUE(r1.clean());
  EXPECT_GE(r1.warnings, 4u);
  EXPECT_GT(r1.count(DrcRule::kFloating), 0u);
  EXPECT_GT(r1.count(DrcRule::kNames), 0u);
  EXPECT_GT(r1.count(DrcRule::kDegenerate), 0u);
  const DrcReport r2 = run_drc(nl);
  std::ostringstream s1, s2;
  verify::write_drc_report(s1, r1, nl.name());
  verify::write_drc_report(s2, r2, nl.name());
  EXPECT_EQ(s1.str(), s2.str());
  EXPECT_FALSE(s1.str().empty());
  for (std::size_t i = 1; i < r1.findings.size(); ++i) {
    EXPECT_LE(r1.findings[i - 1].gate, r1.findings[i].gate)
        << "findings must be sorted by gate id";
  }
}

TEST(Drc, RuleMetadataIsComplete) {
  for (int i = 0; i < verify::kDrcRuleCount; ++i) {
    const auto rule = static_cast<DrcRule>(i);
    EXPECT_EQ(std::string(verify::to_string(rule)),
              "N" + std::to_string(i + 1));
    EXPECT_FALSE(std::string(verify::rule_summary(rule)).empty());
  }
  EXPECT_STREQ(verify::to_string(DrcSeverity::kError), "error");
  EXPECT_STREQ(verify::to_string(DrcSeverity::kWarning), "warning");
}

// The whole 24-circuit suite must be DRC-error-free (warnings — e.g.
// the generators' '$'-suffixed port names — are allowed).
TEST(Drc, SuiteIsErrorFree) {
  for (const BenchmarkSpec& spec : benchmark_suite()) {
    const Netlist nl = build_benchmark(spec);
    const DrcReport r = run_drc(nl);
    EXPECT_TRUE(r.clean()) << spec.name << ": " << r.errors << " errors";
    EXPECT_EQ(r.count(DrcRule::kCycle), 0u) << spec.name;
    EXPECT_EQ(r.count(DrcRule::kLinks), 0u) << spec.name;
    EXPECT_EQ(r.count(DrcRule::kArity), 0u) << spec.name;
  }
}

}  // namespace
}  // namespace diac
