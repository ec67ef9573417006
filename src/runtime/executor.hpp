// TaskProgram: the executable form of an IntermittentDesign.
//
// Linearizes the design's task tree along its topological schedule into
// atomic steps with instance-scaled energy and duration, annotates DIAC
// commit points, and answers the recovery question: after volatile state
// is lost, from which step does execution resume?
//
//  - Checkpoint schemes (NV-Based / NV-Clustering) persist the full
//    architectural state at every backup, so they resume at the exact step
//    the backup captured.
//  - DIAC schemes persist data only at commit points (backups carry just
//    control state), so they resume after the last commit point at or
//    before the captured step; the steps in between re-execute.
#pragma once

#include <vector>

#include "diac/design.hpp"
#include "runtime/fsm.hpp"

namespace diac {

struct TaskStep {
  TaskId task = kNullTask;
  double energy = 0;    // J per execution (scaled; jitter applied at run time)
  double duration = 0;  // s at the configured active power

  // NVM persistence when this step completes: every step for the
  // checkpoint schemes (boundary registers are NV elements), only commit
  // points for DIAC.  `persist` marks whether the completed step can serve
  // as a post-outage resume point.
  bool persist = false;
  int persist_bits = 0;
  double persist_energy = 0;  // J, the NVM write event
  double persist_time = 0;    // s
};

class TaskProgram {
 public:
  TaskProgram(const IntermittentDesign& design, const FsmConfig& config);

  const std::vector<TaskStep>& steps() const { return steps_; }
  std::size_t size() const { return steps_.size(); }
  Scheme scheme() const { return scheme_; }

  // Total per-instance compute energy/time (failure-free, no dispatch).
  double instance_energy() const { return instance_energy_; }
  double instance_duration() const { return instance_duration_; }

  // Largest single atomic unit (task + dispatch + commit) — determines the
  // Compute entry threshold.
  double max_step_energy() const { return max_step_energy_; }

  // Resume step after volatile loss when `captured_step` was the next
  // unexecuted step at backup time (clamped to [0, size()]; a table
  // lookup).
  int resume_after_loss(int captured_step) const;

  // Summed (unjittered) energy of steps [from, to), clamped to the
  // program; the cost of re-executing them.
  double steps_energy(int from, int to) const;

 private:
  Scheme scheme_;
  std::vector<TaskStep> steps_;
  std::vector<double> step_prefix_;  // prefix sums of step energies
  std::vector<int> resume_;          // resume_after_loss over [0, size()]
  double instance_energy_ = 0;
  double instance_duration_ = 0;
  double max_step_energy_ = 0;
};

}  // namespace diac
