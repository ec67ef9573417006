// SimPlan: a design compiled once for simulation.
//
// Everything the Algorithm-1 machine reads that depends only on the
// design, the FSM configuration and the storage size lives here, computed
// once: the TaskProgram (with its resume-after-loss table), the threshold
// stack, each compute step's entry level, the backup and restore costs
// and the level at which an Off node restores.  A sweep
// builds one plan per (design, FsmConfig, storage) and every job of it
// shares the plan read-only, so a Monte-Carlo sweep of N seeds over four
// schemes compiles four programs, not 4N.
//
// A plan is derived data: each table entry is the same expression over
// the same inputs the machine would otherwise evaluate on every event, so
// simulating through a plan moves no result bit.
#pragma once

#include <cstdint>
#include <vector>

#include "diac/design.hpp"
#include "power/pmu.hpp"
#include "runtime/executor.hpp"
#include "runtime/fsm.hpp"

namespace diac {

struct SimulatorOptions {
  double capacitance = 2.0e-3;  // F  (paper: 2 mF)
  double voltage = 5.0;         // V  (paper: 5 V  -> E_MAX = 25 mJ)
  double initial_energy_fraction = 0.5;

  // Storage non-idealities (ideal by default).
  double charge_efficiency = 1.0;  // rectifier/regulator path, (0, 1]
  double storage_leakage = 0.0;    // W of capacitor self-discharge

  int target_instances = 12;    // sense->compute->transmit cycles to finish
  double max_time = 50000.0;    // s, safety stop

  std::uint64_t seed = 0xD1AC;  // operation-jitter stream

  bool record_trace = false;    // sample (t, E, P_harvest, state)
  double trace_interval = 1.0;  // s between samples
};

// Throws std::invalid_argument naming the first out-of-range option.
void validate_simulator_options(const SimulatorOptions& options);

// E_MAX of the storage capacitor: 1/2 C V^2.
inline double storage_capacity(const SimulatorOptions& options) {
  return 0.5 * options.capacitance * options.voltage * options.voltage;
}

class SimPlan {
 public:
  // Compiles `design` under `config` for the storage of `options` (its
  // capacitance and voltage; the rest of `options` is validated, not
  // kept).  `design` must outlive the plan.  Throws std::invalid_argument
  // on out-of-range options or a threshold stack that does not fit.
  SimPlan(const IntermittentDesign& design, const FsmConfig& config,
          const SimulatorOptions& options);

  const IntermittentDesign& design() const { return *design_; }
  const FsmConfig& config() const { return config_; }
  const TaskProgram& program() const { return program_; }
  const Thresholds& thresholds() const { return thresholds_; }
  double e_max() const { return e_max_; }

  // Stored energy at which compute step `idx` may start:
  // Th_Safe + entry_margin * (dispatch + step + commit energy).
  double step_need(std::size_t idx) const { return step_need_[idx]; }

  double backup_energy() const { return backup_energy_; }
  double backup_time() const { return backup_time_; }
  int backup_bits() const { return backup_bits_; }
  double restore_energy() const { return restore_energy_; }
  double restore_time() const { return restore_time_; }
  // An Off node restores once stored energy pays for the restore and
  // still lands above the safe zone: Th_Safe + 1.25 * restore energy.
  double restore_level() const { return restore_level_; }
  bool safe_zone() const { return safe_zone_; }
  int total_packets() const { return total_packets_; }

 private:
  const IntermittentDesign* design_;
  FsmConfig config_;
  TaskProgram program_;
  double e_max_;
  Thresholds thresholds_;
  std::vector<double> step_need_;
  double backup_energy_;
  double backup_time_;
  int backup_bits_;
  double restore_energy_;
  double restore_time_;
  double restore_level_ = 0;
  bool safe_zone_;
  int total_packets_;
};

}  // namespace diac
