#include "runtime/sim_plan.hpp"

#include <cmath>
#include <stdexcept>

namespace diac {

namespace {

bool positive_finite(double v) { return std::isfinite(v) && v > 0; }

}  // namespace

void validate_simulator_options(const SimulatorOptions& o) {
  if (o.target_instances < 1) {
    throw std::invalid_argument(
        "SystemSimulator: target_instances must be at least 1");
  }
  if (!positive_finite(o.max_time)) {
    throw std::invalid_argument(
        "SystemSimulator: max_time must be positive and finite");
  }
  if (!positive_finite(o.capacitance) || !positive_finite(o.voltage)) {
    throw std::invalid_argument(
        "SystemSimulator: capacitance and voltage must be positive and "
        "finite");
  }
  if (!(o.initial_energy_fraction >= 0 && o.initial_energy_fraction <= 1)) {
    throw std::invalid_argument(
        "SystemSimulator: initial_energy_fraction must be in [0, 1]");
  }
  if (!(o.charge_efficiency > 0 && o.charge_efficiency <= 1)) {
    throw std::invalid_argument(
        "SystemSimulator: charge_efficiency must be in (0, 1]");
  }
  if (!(std::isfinite(o.storage_leakage) && o.storage_leakage >= 0)) {
    throw std::invalid_argument(
        "SystemSimulator: storage_leakage must be non-negative and finite");
  }
  if (!positive_finite(o.trace_interval)) {
    throw std::invalid_argument(
        "SystemSimulator: trace_interval must be positive and finite");
  }
}

SimPlan::SimPlan(const IntermittentDesign& design, const FsmConfig& config,
                 const SimulatorOptions& options)
    : design_(&design),
      config_(config),
      program_(design, config),
      e_max_(storage_capacity(options)),
      backup_energy_(design.backup_energy()),
      backup_time_(design.backup_time()),
      backup_bits_(design.backup_bits()),
      restore_energy_(design.restore_energy()),
      restore_time_(design.restore_time()),
      safe_zone_(uses_safe_zone(design.scheme)),
      total_packets_(static_cast<int>(
          std::ceil(config.transmit_energy / config.transmit_packet_energy))) {
  validate_simulator_options(options);
  thresholds_ = thresholds_for(config_, e_max_, backup_energy_,
                               program_.max_step_energy());
  restore_level_ = thresholds_.safe + 1.25 * restore_energy_;

  const std::vector<TaskStep>& steps = program_.steps();
  step_need_.reserve(steps.size());
  for (const TaskStep& s : steps) {
    const double e = config_.dispatch_energy + s.energy + s.persist_energy;
    step_need_.push_back(thresholds_.safe + config_.entry_margin * e);
  }
}

}  // namespace diac
