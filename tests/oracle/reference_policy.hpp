// Reference policy transforms for differential tests of merge_small_nodes
// and apply_policy.
//
// The sequential form of the merge stage: rules (a)+(b) rebuild the tree
// through TaskTree::repartition, and every packing pass that changes
// anything rebuilds it again, reading the rebuilt tree's energies and
// schedule.  Production runs the same decisions on a quotient graph and
// rebuilds once; the two must agree node for node, bit for bit.
#pragma once

#include "diac/policy.hpp"

namespace diac {

// `changing_passes`, when non-null, receives the number of packing passes
// that merged anything (tests use it to prove a case exercises more than
// one contraction).
TaskTree reference_merge_small_nodes(const TaskTree& tree,
                                     const PolicyLimits& limits,
                                     int* changing_passes = nullptr);

// split_large_nodes, then reference_merge_small_nodes, as `kind` asks.
TaskTree reference_apply_policy(const TaskTree& tree, PolicyKind kind,
                                const PolicyLimits& limits);

}  // namespace diac
