#include "oracle/stepped_integrator.hpp"

#include <algorithm>

#include "power/capacitor.hpp"

namespace diac {

SteppedRun run_stepped(const IntermittentDesign& design,
                       const HarvestSource& source, const FsmConfig& config,
                       const SimulatorOptions& options, double dt) {
  SteppedRun out;
  RunStats& stats = out.stats;
  const SimPlan plan(design, config, options);
  Capacitor cap(options.capacitance, options.voltage);
  cap.set_energy(options.initial_energy_fraction * cap.e_max());
  cap.set_charge_efficiency(options.charge_efficiency);
  cap.set_leakage_power(options.storage_leakage);
  NodeMachine m(plan, options.target_instances, options.seed, stats,
                out.events);
  NodeMachine::Operation& op = m.op();

  double t = 0;
  for (; t < options.max_time; t += dt) {
    // 1) Harvest over the tick.
    const double offered = source.power_at(t) * dt;
    const double stored = cap.charge(offered);
    stats.energy_harvested += stored;
    stats.energy_wasted += offered - stored + cap.self_discharge(dt);

    // 2) Apply every transition due at the tick start.
    bool done = false;
    for (;;) {
      double e = cap.energy();
      if (op.finished()) {
        done = m.complete_operation(t, e);
        cap.set_energy(e);
        if (done) break;
      } else if (!m.resolve(t, e)) {
        break;
      }
    }
    if (done) break;

    // 3) Draw the tick's load: one dt slice of the in-flight operation,
    //    or the standby drain.
    if (op.active) {
      const double slice = std::min(dt, op.time_left);
      const double de = op.energy_left * (slice / op.time_left);
      stats.energy_consumed += cap.draw(de);
      op.energy_left -= de;
      op.time_left -= slice;
    } else {
      stats.energy_consumed += cap.draw(m.load_power() * dt);
    }
    switch (m.state()) {
      case NodeState::kSleep: stats.time_sleep += dt; break;
      case NodeState::kOff: stats.time_off += dt; break;
      case NodeState::kBackup:
      case NodeState::kRestore: stats.time_backup += dt; break;
      default: stats.time_active += dt; break;
    }
  }

  stats.makespan = t;
  stats.workload_completed =
      stats.instances_completed >= options.target_instances;
  return out;
}

}  // namespace diac
