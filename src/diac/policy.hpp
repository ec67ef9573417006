// The three DIAC tree-transformation policies (SIII.A).
//
//  - Policy1 (resiliency): large operands are *split* into smaller tasks so
//    that every task's energy satisfies avg(F_power) < Vth << Vpeak.  Best
//    resiliency, pays per-task overhead.
//  - Policy2 (efficiency): small operands are *merged* into larger ones
//    while max(F_power) << Vth, giving the best performance at the cost of
//    resiliency (a failure loses a bigger task).
//  - Policy3 (balanced): split above an upper limit and merge below a lower
//    limit — the paper's worked example uses 25 mJ / 20 mJ per operand,
//    splitting F2 into F9..F11 and merging F5..F8 into F13.
//
// Transforms are expressed as new gate->node partitions and rebuilt through
// TaskTree::repartition, so the result is always a valid levelized DAG:
//
//  - splitting cuts a node's member gates along their topological order
//    into energy-bounded chunks (chunk dependencies can only point forward,
//    so no cycles);
//  - merging combines (a) same-level nodes with identical successor sets
//    (this is what turns F5..F8 into F13) and (b) single-pred/single-succ
//    chains; both rules provably preserve acyclicity.
//
// Merging coarsens in levels: rules (a)+(b) group the input's nodes, the
// first packing pass reads those groups (merged ones recosted over the
// union of their gates, scheduled off the input's edges), and each
// productive pass is rebuilt into a tree once, which the next pass reads.
// A pass that packs nothing returns the tree it read.
#pragma once

#include "tree/task_tree.hpp"

namespace diac {

enum class PolicyKind { kPolicy1, kPolicy2, kPolicy3 };

const char* to_string(PolicyKind kind);

struct PolicyLimits {
  // Energy limits per operand, in J *after* scaling: a node with
  // energy() * scale > upper splits; nodes with energy() * scale < lower
  // are merge candidates.  `scale` maps per-evaluation gate energies into
  // the instance regime (assumption 1: benchmarks re-run until total
  // energy exceeds the storage capacity, so operands are compared in mJ).
  double upper = 25.0e-3;
  double lower = 20.0e-3;
  double scale = 1.0;

  // Split granularity: an oversized node is cut into chunks of at most
  // upper * split_fraction (0.5 reproduces the paper's F2 -> F9..F11).
  double split_fraction = 0.5;

  // When false (default), merging adds a third stage that packs
  // topologically-contiguous runs of still-small nodes up to `upper`
  // (contiguous segments of a topological order can only have forward
  // edges, so the packing is provably acyclic).  This is what coarsens a
  // many-thousand-cone netlist into tens of operand tasks.  Set true to
  // restrict merging to the two structure-preserving rules — the exact
  // behaviour of the paper's Fig. 2 worked example.
  bool structural_only = false;

  double scaled(double energy) const { return energy * scale; }
};

// Applies `kind` with `limits` and returns the transformed tree.
TaskTree apply_policy(const TaskTree& tree, PolicyKind kind,
                      const PolicyLimits& limits);

// The individual transforms (exposed for tests and ablations).  When no
// node splits, split_large_nodes returns a copy of `tree` as is.
TaskTree split_large_nodes(const TaskTree& tree, const PolicyLimits& limits);
TaskTree merge_small_nodes(const TaskTree& tree, const PolicyLimits& limits);

// Derives limits for a tree that must execute on storage of capacity
// `e_max` joules: upper = headroom_fraction * e_max, lower = 0.8 * upper
// (the paper's 25/20 ratio), scale chosen so the whole tree's energy maps
// to `instance_energy` joules.
PolicyLimits limits_for_storage(const TaskTree& tree, double e_max,
                                double instance_energy,
                                double headroom_fraction = 0.1);

}  // namespace diac
