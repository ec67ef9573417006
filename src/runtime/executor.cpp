#include "runtime/executor.hpp"

#include <algorithm>
#include <stdexcept>

namespace diac {

TaskProgram::TaskProgram(const IntermittentDesign& design,
                         const FsmConfig& config)
    : scheme_(design.scheme) {
  if (config.active_power <= 0) {
    throw std::invalid_argument("TaskProgram: active_power must be positive");
  }
  steps_.reserve(design.tree.size());
  for (TaskId id : design.tree.schedule()) {
    TaskStep step;
    step.task = id;
    step.energy = design.scale * design.tree.node(id).dict.energy();
    step.duration = step.energy / config.active_power;
    step.persist_bits = design.boundary_bits(id);
    step.persist = step.persist_bits > 0;
    step.persist_energy = design.boundary_write_energy(id);
    step.persist_time = design.boundary_write_time(id);
    steps_.push_back(step);

    instance_energy_ += step.energy + step.persist_energy;
    instance_duration_ += step.duration + step.persist_time;
    max_step_energy_ =
        std::max(max_step_energy_,
                 step.energy + step.persist_energy + config.dispatch_energy);
  }
  if (steps_.empty()) {
    throw std::invalid_argument("TaskProgram: design has no tasks");
  }
  step_prefix_.resize(steps_.size() + 1, 0.0);
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    step_prefix_[i + 1] = step_prefix_[i] + steps_[i].energy;
  }
  // Execution resumes just after the last persisted step strictly before
  // the captured one.  For the checkpoint schemes every step persists, so
  // resume_[k] = k; for DIAC it rewinds to the last commit point.
  resume_.assign(steps_.size() + 1, 0);
  for (std::size_t k = 1; k <= steps_.size(); ++k) {
    resume_[k] = steps_[k - 1].persist ? static_cast<int>(k) : resume_[k - 1];
  }
}

int TaskProgram::resume_after_loss(int captured_step) const {
  const int n = static_cast<int>(steps_.size());
  return resume_[static_cast<std::size_t>(std::clamp(captured_step, 0, n))];
}

double TaskProgram::steps_energy(int from, int to) const {
  const int n = static_cast<int>(steps_.size());
  from = std::clamp(from, 0, n);
  to = std::clamp(to, 0, n);
  if (to <= from) return 0;
  return step_prefix_[static_cast<std::size_t>(to)] -
         step_prefix_[static_cast<std::size_t>(from)];
}

}  // namespace diac
