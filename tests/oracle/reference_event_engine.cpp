#include "oracle/reference_event_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace diac {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kCrossEps = 1.0e-15;  // J
constexpr double kTimeEps = NodeMachine::kTimeEps;

}  // namespace

ReferenceEventRun run_reference_event_engine(const IntermittentDesign& design,
                                             const HarvestSource& source,
                                             const FsmConfig& config,
                                             const SimulatorOptions& options) {
  // Per-run set-up, as the simulator constructor once did it.
  const TaskProgram program(design, config);
  const double e_max =
      0.5 * options.capacitance * options.voltage * options.voltage;
  validate_simulator_options(options);
  const Thresholds thresholds = thresholds_for(
      config, e_max, design.backup_energy(), program.max_step_energy());
  // The machine reads its transitions' constants from a plan.
  const SimPlan plan(design, config, options);

  ReferenceEventRun out;
  RunStats& stats = out.stats;
  std::vector<TracePoint>& trace = out.trace;
  NodeMachine m(plan, options.target_instances, options.seed, stats,
                out.events);
  NodeMachine::Operation& op = m.op();

  const double e_cap = e_max;
  const double eta = options.charge_efficiency;
  const double leak = options.storage_leakage;
  double energy = options.initial_energy_fraction * e_cap;
  const bool pwc = source.piecewise_constant();
  SupplyCursor supply = source.cursor();
  double next_trace = 0;
  double t = 0;

  // The decision level nearest to `e` in the travel direction, or `bound`
  // when no level lies between.
  auto next_level = [&](double e, bool rising, double bound) {
    double target = bound;
    auto consider = [&](double level) {
      if (rising ? level > e && level < target : level < e && level > target) {
        target = level;
      }
    };
    const Thresholds& th = thresholds;
    consider(th.off);
    consider(th.backup);
    consider(th.safe);
    consider(th.sense);
    consider(th.compute);
    consider(th.transmit);
    if (m.state() == NodeState::kOff) {
      consider(th.safe + 1.25 * design.restore_energy());
    }
    if (m.state() == NodeState::kSleep && m.reg() == RegFlag::kCompute &&
        m.step_index() < static_cast<int>(program.size())) {
      const TaskStep& s =
          program.steps()[static_cast<std::size_t>(m.step_index())];
      const double need = config.dispatch_energy + s.energy + s.persist_energy;
      consider(th.safe + config.entry_margin * need);
    }
    return target;
  };

  auto integrate = [&](double h, double ph) {
    const double in = eta * ph;
    const double load = m.load_power();
    const double out_power = leak + load;
    if (energy >= e_cap * (1.0 - 1e-12) && in >= out_power) {
      stats.energy_harvested += out_power * h;
      stats.energy_wasted += (ph - out_power) * h + leak * h;
      stats.energy_consumed += load * h;
      energy = e_cap;
    } else if (energy <= kCrossEps && in <= out_power) {
      stats.energy_harvested += in * h;
      stats.energy_wasted += (ph - in) * h + in * h;
      energy = 0;
    } else {
      stats.energy_harvested += in * h;
      stats.energy_wasted += (ph - in) * h + leak * h;
      stats.energy_consumed += load * h;
      energy = std::clamp(energy + (in - out_power) * h, 0.0, e_cap);
    }
    if (op.active) {
      const double slice = std::min(h, op.time_left);
      op.energy_left -= op.power() * slice;
      op.time_left -= slice;
    }
    switch (m.state()) {
      case NodeState::kSleep: stats.time_sleep += h; break;
      case NodeState::kOff: stats.time_off += h; break;
      case NodeState::kBackup:
      case NodeState::kRestore: stats.time_backup += h; break;
      default: stats.time_active += h; break;
    }
  };

  auto next_crossing = [&](double net) -> double {
    if (net == 0) return kInf;
    if (net > 0) {
      const double target = next_level(energy, true, e_cap);
      if (target >= e_cap && energy >= e_cap * (1.0 - 1e-12)) return kInf;
      const double overshoot = target < e_cap ? kCrossEps : 0.0;
      return (target - energy + overshoot) / net;
    }
    const double target = next_level(energy, false, 0.0);
    if (target <= 0.0 && energy <= kCrossEps) return kInf;
    const double overshoot = target > 0.0 ? kCrossEps : 0.0;
    return (energy - target + overshoot) / -net;
  };

  auto energy_after = [&](double h, double drain) {
    return energy + eta * source.energy_between(t, t + h) - drain * h;
  };

  auto next_crossing_closed_form = [&](double te_bound,
                                       double drain) -> double {
    const double horizon = te_bound - t;
    if (horizon <= 0) return kInf;
    const double e_end = energy_after(horizon, drain);
    if (e_end == energy) return kInf;
    const bool rising = e_end > energy;
    double goal;
    if (rising) {
      const double target = next_level(energy, true, e_cap);
      if (target >= e_cap && energy >= e_cap * (1.0 - 1e-12)) return kInf;
      goal = target + (target < e_cap ? kCrossEps : 0.0);
      if (e_end < goal) return kInf;
    } else {
      const double target = next_level(energy, false, 0.0);
      if (target <= 0.0 && energy <= kCrossEps) return kInf;
      goal = target - (target > 0.0 ? kCrossEps : 0.0);
      if (e_end > goal) return kInf;
    }
    double lo = 0.0, hi = horizon;
    for (int i = 0; i < 200 && hi - lo > 1.0e-12; ++i) {
      const double mid = 0.5 * (lo + hi);
      const double e_mid = energy_after(mid, drain);
      const bool passed = rising ? e_mid >= goal : e_mid <= goal;
      (passed ? hi : lo) = mid;
    }
    return t + hi;
  };

  std::uint64_t guard = 0;
  while (t < options.max_time - kTimeEps) {
    if (++guard > 100'000'000ULL) {
      throw std::runtime_error("reference event engine: event loop stalled");
    }
    if (options.record_trace && t >= next_trace - kTimeEps) {
      supply.seek(t);
      trace.push_back({t, energy, supply.power(), m.state()});
      next_trace += options.trace_interval;
      continue;
    }
    if (op.finished()) {
      if (m.complete_operation(t, energy)) break;
      continue;
    }
    if (m.resolve(t, energy)) continue;

    supply.seek(t);
    const double ph = supply.power();
    double te = options.max_time;
    te = std::min(te, supply.next_change() + kTimeEps);
    if (options.record_trace) te = std::min(te, next_trace);
    if (op.active) te = std::min(te, t + op.time_left);
    if (m.timer_armed()) {
      const double due = m.sense_due(energy);
      if (due > t) te = std::min(te, due);
    }
    const double drain = leak + m.load_power();

    if (!pwc) {
      const double cross = source.next_power_crossing(t, drain / eta, te);
      if (cross < te) te = cross;
      const double t_cross = next_crossing_closed_form(te, drain);
      if (t_cross < te) te = t_cross;
      double h = std::max(te - t, 1e-12);
      h = std::min(h, options.max_time - t);
      integrate(h, source.energy_between(t, t + h) / h);
      t += h;
      continue;
    }

    const double net = eta * ph - drain;
    const double t_cross = next_crossing(net);
    if (t_cross < kInf) te = std::min(te, t + t_cross);
    double h = std::max(te - t, 1e-12);
    h = std::min(h, options.max_time - t);
    integrate(h, ph);
    t += h;
  }

  stats.makespan = t;
  stats.workload_completed =
      stats.instances_completed >= options.target_instances;
  return out;
}

}  // namespace diac
