// The DIAC Replacement procedure (SIII.A step 2): NVM insertion.
//
// Traverses the levelized task tree from the leaves (inputs) towards the
// roots (outputs) along the topological schedule, accumulating the total
// consumed energy P_total since the last commit point.  When P_total
// crosses the backup budget, an NVM commit point is inserted: "the
// previous power values are set to zero" and the node's dictionary gains
// the NVM write cost (paper: "new power consumption = P_total + P_n").
// Because execution and recovery are linear in schedule order (commit
// points are checkpoint barriers), the accumulation bounds exactly the
// work one power failure can destroy.
//
// The three replacement criteria are embodied as follows:
//  (I)  upper-level preference — accumulation inserts as *late* (as close
//       to the outputs) as the budget allows;
//  (II) high-power preference — the budget is an energy budget, so heavy
//       cones trigger insertion exactly where the consumed power is
//       concentrated;
//  (III) fan consolidation — a commit at a node with fan-in+fan-out k
//       persists all k boundary signals in one write event, reducing the
//       write count by 1/(fanin+fanout) versus per-signal writes.
//
// Terminal nodes (results) always commit: the Transmit state reads them
// after arbitrarily many power failures.
#pragma once

#include "cell/nvm_model.hpp"
#include "tree/task_tree.hpp"

namespace diac {

// How the commit position is chosen when the budget is crossed.
enum class InsertionStrategy {
  // Commit at the crossing task itself (latest possible position — the
  // pure criterion-I behaviour).
  kAccumulate,
  // Choose among the trailing window of uncommitted tasks by the weighted
  // criteria score
  //   w_level * (level j / max level)             (criterion I)
  //   + w_power * (accumulated energy / budget)   (criterion II)
  //   + w_fan * min(1, (fanin+fanout) / bits_cap) (criterion III)
  // — committing at a high-fan node consolidates more boundary signals
  // per write event.
  kScored,
  // Globally optimal placement by dynamic programming over the schedule,
  // minimizing the expected per-pass cost
  //     sum over commits of write_event_cost(bits)
  //   + failure_rate * sum over segments of T_seg * (E_seg / 2)
  // (a Poisson failure mid-segment re-executes half the segment in
  // expectation).  O(n^2) in the task count.  The budget is ignored — the
  // failure rate and write-cost parameters are the knobs.  Serves as the
  // optimality baseline the greedy strategies are measured against.
  kOptimalDp,
};

struct ReplacementOptions {
  // Maximum scaled energy allowed to accumulate between commit points, J.
  // Typically a fraction of the storage capacity E_MAX: on a power failure
  // at most this much forward progress must be re-executed.
  double budget = 10.0e-3;

  InsertionStrategy strategy = InsertionStrategy::kAccumulate;
  // kScored parameters.
  int window = 4;        // trailing candidates considered per commit
  double w_level = 1.0;  // criterion I weight
  double w_power = 1.0;  // criterion II weight
  double w_fan = 1.0;    // criterion III weight

  // Scale from per-evaluation node energies to the instance regime (same
  // value as PolicyLimits::scale).
  double scale = 1.0;

  // Control state (Reg_Flag, loop counters) persisted with every commit.
  int control_bits = 8;

  // Persisted data signals per commit are capped at the architectural
  // register-file width (matches kBoundaryBitsCap in design.hpp).
  int bits_cap = 64;

  // Always commit the final task: the terminal barrier persists the
  // instance result (primary outputs) before Transmit.
  bool commit_roots = true;

  // kOptimalDp cost model.
  double failure_rate = 0.05;           // expected failures per active second
  double active_power = 3.0e-3;         // W, task durations = E / P
  double controller_event_energy = 0.15e-3;  // J per write event
  double energy_per_bit = 10.0e-6;      // J per persisted bit (system level)
};

struct ReplacementResult {
  std::vector<TaskId> points;  // nodes that received an NVM commit
  int total_bits = 0;          // sum of persisted bits across points
  // Largest scaled energy that can be lost to one power failure (the
  // maximum accumulated total anywhere in the final tree), J.
  double max_exposed_energy = 0;
};

// Inserts NVM commit points into `tree` (sets has_nvm / nvm_bits /
// accumulated_energy in its NvmAnnotations; other copies of the tree keep
// their own) and returns the plan summary.
// Throws std::invalid_argument on non-positive budget/scale.
ReplacementResult insert_nvm(TaskTree& tree, const ReplacementOptions& options);

// Per-pass commit cost of the planned tree: energy/time spent writing the
// NVM points during one failure-free evaluation of the whole tree, under
// `nvm` with system-level amplification `system_factor` and a fixed
// controller cost per write event (see diac/design.hpp for the
// calibration rationale).
struct CommitCost {
  double energy = 0;  // J per pass
  double time = 0;    // s per pass
  int writes = 0;     // commit events per pass
};
CommitCost per_pass_commit_cost(const TaskTree& tree, const NvmParameters& nvm,
                                double system_factor,
                                double controller_event_energy,
                                double system_time_factor);

}  // namespace diac
