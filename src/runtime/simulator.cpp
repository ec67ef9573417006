#include "runtime/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/obs.hpp"

namespace diac {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Energy overshoot past a threshold when jumping to a crossing: large
// enough to dominate double rounding at the mJ scale, far below any
// threshold separation, so the post-jump comparisons resolve the same way
// the continuous trajectory would an instant after the crossing.
constexpr double kCrossEps = 1.0e-15;  // J
constexpr double kTimeEps = NodeMachine::kTimeEps;

bool positive_finite(double v) { return std::isfinite(v) && v > 0; }

void validate_options(const SimulatorOptions& o) {
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

#if !defined(DIAC_OBS_DISABLED)
// Flushes one run's event mix into the obs metrics side channel.  This
// reads the already-recorded event list after the fact; RunStats is
// computed independently, so obs can never perturb results (rule D6).
void record_run_metrics(const std::vector<SimEvent>& events,
                        std::uint64_t bisections) {
  std::uint64_t backups = 0, restores = 0, saves = 0, shutdowns = 0,
                done = 0, interrupts = 0;
  for (const SimEvent& e : events) {
    switch (e.kind) {
      case SimEvent::Kind::kBackup: ++backups; break;
      case SimEvent::Kind::kRestore: ++restores; break;
      case SimEvent::Kind::kSafeZoneSave: ++saves; break;
      case SimEvent::Kind::kShutdown: ++shutdowns; break;
      case SimEvent::Kind::kInstanceDone: ++done; break;
      case SimEvent::Kind::kPowerInterrupt: ++interrupts; break;
    }
  }
  DIAC_OBS_COUNT("sim.runs", 1);
  DIAC_OBS_COUNT("sim.threshold_bisections", bisections);
  DIAC_OBS_COUNT("sim.events.backup", backups);
  DIAC_OBS_COUNT("sim.events.restore", restores);
  DIAC_OBS_COUNT("sim.events.safe_zone_save", saves);
  DIAC_OBS_COUNT("sim.events.shutdown", shutdowns);
  DIAC_OBS_COUNT("sim.events.instance_done", done);
  DIAC_OBS_COUNT("sim.events.power_interrupt", interrupts);
}
#endif  // !DIAC_OBS_DISABLED

}  // namespace

SystemSimulator::SystemSimulator(const IntermittentDesign& design,
                                 const HarvestSource& source, FsmConfig config,
                                 SimulatorOptions options)
    : design_(&design),
      source_(&source),
      config_(config),
      options_(options),
      program_(design, config),
      e_max_(0.5 * options.capacitance * options.voltage * options.voltage) {
  validate_options(options_);
  thresholds_ = thresholds_for(config_, e_max_, design.backup_energy(),
                               program_.max_step_energy());
}

// ---------------------------------------------------------------------------
// The event integrator.
//
// The state trajectory between two events is a linear energy ramp: the
// harvest power is constant (piecewise-constant sources) or integrated in
// closed form (continuous sources), the load is either the standby drain
// or the in-flight operation's constant power, and leakage is constant.
// NodeMachine's decisions are made exactly at the crossing / completion
// instants.
// ---------------------------------------------------------------------------
RunStats SystemSimulator::run() {
  DIAC_TRACE_SPAN("simulate", "sim");
  trace_.clear();
  events_.clear();
  RunStats stats;
  NodeMachine m(*design_, program_, config_, thresholds_,
                options_.target_instances, options_.seed, stats, events_);
  NodeMachine::Operation& op = m.op();

  const double e_cap = e_max_;
  const double eta = options_.charge_efficiency;
  const double leak = options_.storage_leakage;
  double energy = options_.initial_energy_fraction * e_cap;
  const bool pwc = source_->piecewise_constant();
  // The harvest power and its next breakpoint at t: the event loop's t
  // only moves forward, so one cursor reads the whole run.
  SupplyCursor supply = source_->cursor();
  double next_trace = 0;
  double t = 0;
  // Crossing-bisection iterations this run; exported to the obs metrics
  // side channel only — never part of RunStats.
  std::uint64_t bisections = 0;

  // Advances the stored energy and the accounting over [t, t+h) given the
  // harvest power over the interval.  The caller guarantees no regime
  // boundary (empty/full) and no decision threshold is crossed inside the
  // open interval.
  auto integrate = [&](double h, double ph) {
    const double in = eta * ph;
    const double load = m.load_power();
    const double out = leak + load;
    if (energy >= e_cap * (1.0 - 1e-12) && in >= out) {
      // Pinned at E_MAX: the inflow covers the outflow; the surplus is
      // shunted exactly as a real regulator would.
      stats.energy_harvested += out * h;
      stats.energy_wasted += (ph - out) * h + leak * h;
      stats.energy_consumed += load * h;
      energy = e_cap;
    } else if (energy <= kCrossEps && in <= out) {
      // Pinned at empty (deep drought while Off): the trickle leaks away.
      stats.energy_harvested += in * h;
      stats.energy_wasted += (ph - in) * h + in * h;
      energy = 0;
    } else {
      stats.energy_harvested += in * h;
      stats.energy_wasted += (ph - in) * h + leak * h;
      stats.energy_consumed += load * h;
      energy = std::clamp(energy + (in - out) * h, 0.0, e_cap);
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

  // Earliest decision threshold in the travel direction, as a time offset
  // from t (infinity when none applies).
  auto next_crossing = [&](double net) -> double {
    if (net == 0) return kInf;
    if (net > 0) {
      // Bounded by the saturation regime boundary.
      const double target = m.next_level(energy, true, e_cap);
      if (target >= e_cap && energy >= e_cap * (1.0 - 1e-12)) return kInf;
      const double overshoot = target < e_cap ? kCrossEps : 0.0;
      return (target - energy + overshoot) / net;
    }
    // Bounded by the empty regime boundary.
    const double target = m.next_level(energy, false, 0.0);
    if (target <= 0.0 && energy <= kCrossEps) return kInf;
    const double overshoot = target > 0.0 ? kCrossEps : 0.0;
    return (energy - target + overshoot) / -net;
  };

  // --- closed-form advance over a continuous envelope -------------------
  // The stored energy after h seconds, with the harvest integrated
  // exactly (energy_between is the source's closed form) and the drain
  // constant — valid while no event interrupts the interval.
  auto energy_after = [&](double h, double drain) {
    return energy + eta * source_->energy_between(t, t + h) - drain * h;
  };

  // Earliest decision-threshold crossing inside (t, te], as an absolute
  // time (infinity when the trajectory stays between its boundaries).
  // The caller caps te at the envelope's break-even crossing
  // (next_power_crossing at drain/eta), so the trajectory is monotone on
  // the window and bisection against the exact closed form finds the
  // crossing; like the linear path, the goal is bumped kCrossEps past
  // the threshold so post-jump comparisons resolve cleanly.
  auto next_crossing_closed_form = [&](double te_bound,
                                       double drain) -> double {
    const double horizon = te_bound - t;
    if (horizon <= 0) return kInf;
    const double e_end = energy_after(horizon, drain);
    if (e_end == energy) return kInf;
    const bool rising = e_end > energy;
    double goal;
    if (rising) {
      const double target = m.next_level(energy, true, e_cap);
      if (target >= e_cap && energy >= e_cap * (1.0 - 1e-12)) return kInf;
      goal = target + (target < e_cap ? kCrossEps : 0.0);
      if (e_end < goal) return kInf;
    } else {
      const double target = m.next_level(energy, false, 0.0);
      if (target <= 0.0 && energy <= kCrossEps) return kInf;
      goal = target - (target > 0.0 ? kCrossEps : 0.0);
      if (e_end > goal) return kInf;
    }
    double lo = 0.0, hi = horizon;  // goal is reached within (lo, hi]
    for (int i = 0; i < 200 && hi - lo > 1.0e-12; ++i) {
      ++bisections;
      const double mid = 0.5 * (lo + hi);
      const double e_mid = energy_after(mid, drain);
      const bool passed = rising ? e_mid >= goal : e_mid <= goal;
      (passed ? hi : lo) = mid;
    }
    return t + hi;
  };

  std::uint64_t guard = 0;
  while (t < options_.max_time - kTimeEps) {
    if (++guard > 100'000'000ULL) {
      throw std::runtime_error("SystemSimulator: event loop stalled");
    }
    // --- zero-time work due at t ---------------------------------------
    if (options_.record_trace && t >= next_trace - kTimeEps) {
      supply.seek(t);
      trace_.push_back({t, energy, supply.power(), m.state()});
      next_trace += options_.trace_interval;
      continue;
    }
    if (op.finished()) {
      if (m.complete_operation(t, energy)) break;  // workload target reached
      continue;
    }
    if (m.resolve(t, energy)) continue;

    // --- pick the horizon ----------------------------------------------
    supply.seek(t);
    const double ph = supply.power();
    double te = options_.max_time;
    // Source breakpoint, bumped past the edge so the next seek sees the
    // new level.
    te = std::min(te, supply.next_change() + kTimeEps);
    if (options_.record_trace) te = std::min(te, next_trace);
    if (op.active) te = std::min(te, t + op.time_left);
    if (m.timer_armed()) {
      const double due = m.sense_due(energy);
      if (due > t) te = std::min(te, due);
    }
    const double drain = leak + m.load_power();

    if (!pwc) {
      // Cap the window at the envelope's crossing of the break-even
      // level: on (t, te) the net power then has constant sign, so the
      // energy trajectory is monotone (and a storage pinned at E_MAX
      // stays pinned for the whole window — the surplus accounting in
      // integrate() is exact).
      const double cross = source_->next_power_crossing(t, drain / eta, te);
      if (cross < te) te = cross;
      const double t_cross = next_crossing_closed_form(te, drain);
      if (t_cross < te) te = t_cross;

      double h = std::max(te - t, 1e-12);
      h = std::min(h, options_.max_time - t);
      // The mean power over the window reproduces the exact integral, so
      // the stored energy lands on the closed-form trajectory.
      integrate(h, source_->energy_between(t, t + h) / h);
      t += h;
      continue;
    }

    const double net = eta * ph - drain;
    const double t_cross = next_crossing(net);
    if (t_cross < kInf) te = std::min(te, t + t_cross);

    double h = std::max(te - t, 1e-12);
    h = std::min(h, options_.max_time - t);
    integrate(h, ph);
    t += h;
  }

  stats.makespan = t;
  stats.workload_completed =
      stats.instances_completed >= options_.target_instances;
#if !defined(DIAC_OBS_DISABLED)
  record_run_metrics(events_, bisections);
  DIAC_OBS_COUNT("power.source_segments", supply.segments_generated());
#endif
  return stats;
}

}  // namespace diac
