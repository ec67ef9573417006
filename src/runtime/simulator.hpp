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
// machine (runtime/node_machine.hpp), reading the design through a
// SimPlan (runtime/sim_plan.hpp) compiled once per design.  Between
// events the net power is piecewise constant (a forward SupplyCursor,
// owned by run(), reads the source's power and its next breakpoint as t
// advances), so the stored energy is a closed-form linear ramp: the
// simulator jumps directly to the earliest of {next source change,
// threshold crossing, operation completion, sense-timer expiry, trace
// sample} instead of ticking every dt.  Sources whose power varies
// continuously (SolarSource) advance by the closed-form sine-envelope
// solver — exact integrals via energy_between() plus break-even-level
// crossings via next_power_crossing(), with threshold crossings bisected
// on the exact energy trajectory.  Two references live with the tests
// (tests/oracle/): a fixed-dt integrator driving the same machine, and
// the unspecialized event engine this loop must match bit for bit.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "power/harvester.hpp"
#include "runtime/executor.hpp"
#include "runtime/node_machine.hpp"
#include "runtime/sim_plan.hpp"
#include "runtime/stats.hpp"

namespace diac {

struct TracePoint {
  double t = 0;
  double energy = 0;         // J stored
  double harvest_power = 0;  // W
  NodeState state = NodeState::kSleep;
};

class SystemSimulator {
 public:
  // Compiles a private SimPlan for `design`.  Throws std::invalid_argument
  // when options are out of range (see validate_simulator_options).
  SystemSimulator(const IntermittentDesign& design, const HarvestSource& source,
                  FsmConfig config = {}, SimulatorOptions options = {});
  // Simulates a shared, pre-compiled plan; `plan` must outlive the
  // simulator.  Throws std::invalid_argument when options are out of
  // range or describe a different storage size than the plan's.
  SystemSimulator(const SimPlan& plan, const HarvestSource& source,
                  SimulatorOptions options);

  // Runs until the target instance count completes or max_time elapses.
  RunStats run();

  const std::vector<TracePoint>& trace() const { return trace_; }
  const std::vector<SimEvent>& events() const { return events_; }
  // The last run's sensing witness (NodeMachine::sensing_mode_mattered):
  // false proves a run of the same plan under the other sensing mode
  // would reproduce this run's RunStats, events and trace bit for bit.
  bool sensing_mode_mattered() const { return sensing_mode_mattered_; }
  const Thresholds& thresholds() const { return plan_->thresholds(); }
  double e_max() const { return plan_->e_max(); }

 private:
  // The event loop, specialized on the source kind and on trace
  // recording; run() picks one per run.
  template <bool kPiecewiseConstant, bool kRecordTrace>
  RunStats run_loop();

  // --- wiring ----------------------------------------------------------
  std::unique_ptr<const SimPlan> owned_plan_;  // set by the design ctor
  const SimPlan* plan_;
  const HarvestSource* source_;
  SimulatorOptions options_;

  std::vector<TracePoint> trace_;
  std::vector<SimEvent> events_;
  bool sensing_mode_mattered_ = false;
};

}  // namespace diac
