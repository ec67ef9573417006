// SystemSimulator: the "system-level in-house framework" of SIV.A.
//
// Couples a harvest source, the storage capacitor, the PMU threshold
// stack, and the Algorithm-1 FSM executing a TaskProgram.  The virtual
// energy source "accumulates energy during power availability and deducts
// energy consumption" exactly as the paper describes; every stochastic
// quantity (the +-10% operation energies) comes from a seeded stream so
// runs are reproducible and schemes can be compared on identical traces.
//
// SystemSimulator is the event integrator around the one Algorithm-1
// machine (runtime/node_machine.hpp).  Between events the net power is
// piecewise constant (a forward SupplyCursor, owned by run(), reads the
// source's power and its next breakpoint as t advances), so the stored
// energy is a closed-form linear ramp: the simulator jumps directly to the
// earliest of {next source change, threshold crossing, operation
// completion, sense-timer expiry, trace sample} instead of ticking every
// dt.  Sources whose power varies continuously (SolarSource) advance by
// the closed-form sine-envelope solver — exact integrals via
// energy_between() plus break-even-level crossings via
// next_power_crossing(), with threshold crossings bisected on the exact
// energy trajectory.  A fixed-dt reference integrator driving
// the same machine lives with the tests (tests/oracle/).
#pragma once

#include <cstdint>
#include <vector>

#include "power/harvester.hpp"
#include "runtime/executor.hpp"
#include "runtime/node_machine.hpp"
#include "runtime/stats.hpp"

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

struct TracePoint {
  double t = 0;
  double energy = 0;         // J stored
  double harvest_power = 0;  // W
  NodeState state = NodeState::kSleep;
};

class SystemSimulator {
 public:
  // Throws std::invalid_argument when options are out of range (see
  // validate_options in simulator.cpp for the exact constraints).
  SystemSimulator(const IntermittentDesign& design, const HarvestSource& source,
                  FsmConfig config = {}, SimulatorOptions options = {});

  // Runs until the target instance count completes or max_time elapses.
  RunStats run();

  const std::vector<TracePoint>& trace() const { return trace_; }
  const std::vector<SimEvent>& events() const { return events_; }
  const Thresholds& thresholds() const { return thresholds_; }
  double e_max() const { return e_max_; }

 private:
  // --- wiring ----------------------------------------------------------
  const IntermittentDesign* design_;
  const HarvestSource* source_;
  FsmConfig config_;
  SimulatorOptions options_;
  TaskProgram program_;
  Thresholds thresholds_;
  double e_max_;

  std::vector<TracePoint> trace_;
  std::vector<SimEvent> events_;
};

}  // namespace diac
