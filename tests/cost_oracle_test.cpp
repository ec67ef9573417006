// Differential test of the operand cost kernel against the sort-based
// reference (tests/oracle/reference_cost.*): every node of every tree the
// flow builds must carry, bit for bit, the cost of sorting its members by
// topological position and walking them.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "diac/synthesizer.hpp"
#include "netlist/suite.hpp"
#include "oracle/reference_cost.hpp"

namespace diac {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_reference_costs(const TaskTree& tree, const std::string& what) {
  const Netlist& nl = tree.netlist();
  const std::vector<std::uint32_t> pos = topological_positions(nl);
  for (TaskId id = 0; id < tree.size(); ++id) {
    const FeatureDict& d = tree.node(id).dict;
    const OperandCost want =
        reference_operand_cost(nl, tree.node(id).gates, tree.library(), pos);
    ASSERT_TRUE(same_bits(d.delay, want.delay)) << what << " node " << id;
    ASSERT_TRUE(same_bits(d.power, want.power)) << what << " node " << id;
    ASSERT_TRUE(same_bits(d.dynamic_energy, want.dynamic_energy))
        << what << " node " << id;
    ASSERT_TRUE(same_bits(d.static_energy, want.static_energy))
        << what << " node " << id;
  }
}

TEST(TaskTree, TopologicalPoolMatchesSortedCost) {
  const CellLibrary lib = CellLibrary::nominal_45nm();
  for (const BenchmarkSpec& spec : benchmark_suite()) {
    const Netlist nl = build_benchmark(spec.name);
    const TaskTree initial = DiacSynthesizer(nl, lib).initial_tree();
    expect_reference_costs(initial, spec.name + "/initial");
    for (PolicyKind policy : {PolicyKind::kPolicy1, PolicyKind::kPolicy2,
                              PolicyKind::kPolicy3}) {
      SynthesisOptions options;
      options.policy = policy;
      expect_reference_costs(
          DiacSynthesizer(nl, lib, options).policy_tree(initial),
          spec.name + "/" + to_string(policy));
    }
  }
}

}  // namespace
}  // namespace diac
