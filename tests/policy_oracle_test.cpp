// Differential test of the quotient-graph merge stage against the
// rebuild-per-stage reference (tests/oracle/reference_policy.*): the two
// must produce the same tree node for node, every FeatureDict double bit
// for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "diac/synthesizer.hpp"
#include "netlist/suite.hpp"
#include "oracle/reference_policy.hpp"
#include "tree/tree_generator.hpp"

namespace diac {
namespace {

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::nominal_45nm();
  return l;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_same_tree(const TaskTree& got, const TaskTree& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (TaskId id = 0; id < got.size(); ++id) {
    const TaskNode& x = got.node(id);
    const TaskNode& y = want.node(id);
    ASSERT_TRUE(std::ranges::equal(x.gates, y.gates)) << what << " node " << id;
    ASSERT_EQ(x.label, y.label) << what << " node " << id;
    ASSERT_TRUE(std::ranges::equal(x.preds, y.preds)) << what << " node " << id;
    ASSERT_TRUE(std::ranges::equal(x.succs, y.succs)) << what << " node " << id;
    ASSERT_EQ(x.dict.fanin, y.dict.fanin) << what << " node " << id;
    ASSERT_EQ(x.dict.fanout, y.dict.fanout) << what << " node " << id;
    ASSERT_EQ(x.dict.level, y.dict.level) << what << " node " << id;
    ASSERT_TRUE(same_bits(x.dict.power, y.dict.power)) << what << " node " << id;
    ASSERT_TRUE(same_bits(x.dict.delay, y.dict.delay)) << what << " node " << id;
    ASSERT_TRUE(same_bits(x.dict.dynamic_energy, y.dict.dynamic_energy))
        << what << " node " << id;
    ASSERT_TRUE(same_bits(x.dict.static_energy, y.dict.static_energy))
        << what << " node " << id;
  }
  EXPECT_EQ(got.schedule(), want.schedule()) << what;
  EXPECT_EQ(got.partition(), want.partition()) << what;
  EXPECT_EQ(got.max_level(), want.max_level()) << what;

  // The commit plan the replacement engine derives from each tree.
  TaskTree got_plan = got;
  TaskTree want_plan = want;
  ReplacementOptions ro;
  ro.scale = 1.6 * 25.0e-3 / want.total_energy();
  ro.budget = 0.25 * 25.0e-3;
  const ReplacementResult x = insert_nvm(got_plan, ro);
  const ReplacementResult y = insert_nvm(want_plan, ro);
  EXPECT_EQ(x.points, y.points) << what;
  EXPECT_EQ(x.total_bits, y.total_bits) << what;
  EXPECT_TRUE(same_bits(x.max_exposed_energy, y.max_exposed_energy)) << what;
  for (TaskId id = 0; id < got.size(); ++id) {
    const NvmAnnotation& u = got_plan.annotation(id);
    const NvmAnnotation& v = want_plan.annotation(id);
    ASSERT_EQ(u.has_nvm, v.has_nvm) << what << " node " << id;
    ASSERT_EQ(u.nvm_bits, v.nvm_bits) << what << " node " << id;
    ASSERT_TRUE(same_bits(u.accumulated_energy, v.accumulated_energy))
        << what << " node " << id;
  }
}

// The limits DiacSynthesizer::policy_tree derives from default options.
PolicyLimits default_limits(const TaskTree& initial) {
  const SynthesisOptions o;
  PolicyLimits limits;
  limits.scale = o.instance_rho * o.e_max / initial.total_energy();
  limits.upper = o.upper_fraction * o.e_max;
  limits.lower = o.lower_ratio * limits.upper;
  return limits;
}

constexpr PolicyKind kPolicies[] = {PolicyKind::kPolicy1, PolicyKind::kPolicy2,
                                    PolicyKind::kPolicy3};

class PolicyOracle : public ::testing::TestWithParam<std::string> {};

TEST_P(PolicyOracle, QuotientMergeMatchesSequentialRebuilds) {
  const Netlist nl = build_benchmark(GetParam());
  const TaskTree initial = DiacSynthesizer(nl, lib()).initial_tree();
  for (bool structural_only : {false, true}) {
    PolicyLimits limits = default_limits(initial);
    limits.structural_only = structural_only;
    for (PolicyKind policy : kPolicies) {
      expect_same_tree(apply_policy(initial, policy, limits),
                       reference_apply_policy(initial, policy, limits),
                       GetParam() + "/" + to_string(policy) +
                           (structural_only ? "/structural" : ""));
    }
  }
}

TEST_P(PolicyOracle, Policy3MergesTheMemoizedPolicy1Tree) {
  // A search builds Policy3's tree by merging the Policy1 tree it already
  // holds, and takes Policy2's tree when that Policy1 tree shares the
  // initial tree's structure (the split was a no-op).  Both must equal
  // apply_policy(Policy3) bit for bit.
  const Netlist nl = build_benchmark(GetParam());
  const TaskTree initial = DiacSynthesizer(nl, lib()).initial_tree();
  const PolicyLimits limits = default_limits(initial);
  SynthesisOptions o;
  const auto policy_tree = [&](PolicyKind kind) {
    o.policy = kind;
    return DiacSynthesizer(nl, lib(), o).policy_tree(initial);
  };
  const TaskTree split = policy_tree(PolicyKind::kPolicy1);
  const TaskTree want = apply_policy(initial, PolicyKind::kPolicy3, limits);
  o.policy = PolicyKind::kPolicy3;
  expect_same_tree(DiacSynthesizer(nl, lib(), o).policy_tree(initial, split),
                   want, GetParam() + "/merged Policy1");

  // A no-op split is a property of the circuit: three of the suite's.
  const bool no_op = split.nodes().data() == initial.nodes().data();
  EXPECT_EQ(no_op, GetParam() == "b14" || GetParam() == "dsip" ||
                       GetParam() == "s38417")
      << GetParam();
  if (no_op) {
    expect_same_tree(policy_tree(PolicyKind::kPolicy2), want,
                     GetParam() + "/Policy2");
  }
}

std::vector<std::string> suite_names() {
  std::vector<std::string> names;
  for (const BenchmarkSpec& spec : benchmark_suite()) {
    names.push_back(spec.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllCircuits, PolicyOracle,
                         ::testing::ValuesIn(suite_names()),
                         [](const auto& inf) { return inf.param; });

// Limits under which the packing stage contracts two or more times, each
// pass reading the energies and schedule of the previous contraction.
struct MultiPassCase {
  const char* circuit;
  bool per_gate;  // start from per_gate_tree instead of initial_tree
  double upper_fraction;
  double lower_ratio;
};

TEST(PolicyOracle, MultiPassPackingMatchesReference) {
  const MultiPassCase cases[] = {
      {"s953", false, 0.0275, 0.1}, {"b14", false, 0.0044, 0.8},
      {"s38417", false, 0.003, 0.8}, {"b12", true, 0.002, 0.8},
      {"s820", true, 0.0074, 0.7},
  };
  for (const MultiPassCase& c : cases) {
    const Netlist nl = build_benchmark(c.circuit);
    const TaskTree base =
        c.per_gate ? per_gate_tree(nl, lib()) : initial_tree(nl, lib());
    const SynthesisOptions o;
    PolicyLimits limits;
    limits.scale = o.instance_rho * o.e_max / base.total_energy();
    limits.upper = c.upper_fraction * o.e_max;
    limits.lower = c.lower_ratio * limits.upper;
    int passes = 0;
    const TaskTree want = reference_merge_small_nodes(base, limits, &passes);
    EXPECT_GE(passes, 2) << c.circuit;
    expect_same_tree(merge_small_nodes(base, limits), want, c.circuit);
    expect_same_tree(apply_policy(base, PolicyKind::kPolicy3, limits),
                     reference_apply_policy(base, PolicyKind::kPolicy3, limits),
                     std::string(c.circuit) + "/Policy3");
  }
}

TEST(PolicyOracle, Fig2MatchesReference) {
  const Netlist nl = fig2_netlist();
  const TaskTree tree = fig2_tree(nl, lib());
  for (bool structural_only : {true, false}) {
    PolicyLimits limits;
    limits.upper = 25.0e-3;
    limits.lower = 20.0e-3;
    limits.scale = fig2_energy_scale(tree);
    limits.structural_only = structural_only;
    for (PolicyKind policy : kPolicies) {
      expect_same_tree(apply_policy(tree, policy, limits),
                       reference_apply_policy(tree, policy, limits),
                       std::string("fig2/") + to_string(policy) +
                           (structural_only ? "/structural" : ""));
    }
  }
}

}  // namespace
}  // namespace diac
