#include "runtime/simulator.hpp"

#include <algorithm>
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
// Relative slack of the crossing gate in run_loop (see there).
constexpr double kGateSlack = 1.0 + 1.0e-12;
constexpr double kMinNormal = std::numeric_limits<double>::min();

#if !defined(DIAC_OBS_DISABLED)
// Flushes one run's work counts into the obs metrics side channel.  The
// event counts are read from RunStats after the run, and the loop only
// counts into locals, so obs can never perturb results (rule D6).
void record_run_metrics(const RunStats& stats, std::uint64_t iterations,
                        std::uint64_t bisections) {
  DIAC_OBS_COUNT("sim.runs", 1);
  DIAC_OBS_COUNT("sim.loop_iterations", iterations);
  DIAC_OBS_COUNT("sim.threshold_bisections", bisections);
  DIAC_OBS_COUNT("sim.events.backup", stats.backups);
  DIAC_OBS_COUNT("sim.events.restore", stats.restores);
  DIAC_OBS_COUNT("sim.events.safe_zone_save", stats.safe_zone_saves);
  DIAC_OBS_COUNT("sim.events.shutdown", stats.deep_outages);
  DIAC_OBS_COUNT("sim.events.instance_done", stats.instances_completed);
  DIAC_OBS_COUNT("sim.events.power_interrupt", stats.power_interrupts);
}
#endif  // !DIAC_OBS_DISABLED

}  // namespace

SystemSimulator::SystemSimulator(const IntermittentDesign& design,
                                 const HarvestSource& source, FsmConfig config,
                                 SimulatorOptions options)
    : owned_plan_(std::make_unique<const SimPlan>(design, config, options)),
      plan_(owned_plan_.get()),
      source_(&source),
      options_(options) {}

SystemSimulator::SystemSimulator(const SimPlan& plan,
                                 const HarvestSource& source,
                                 SimulatorOptions options)
    : plan_(&plan), source_(&source), options_(options) {
  validate_simulator_options(options_);
  if (storage_capacity(options_) != plan.e_max()) {
    throw std::invalid_argument(
        "SystemSimulator: options describe a different storage size than "
        "the plan was compiled for");
  }
}

RunStats SystemSimulator::run() {
  DIAC_TRACE_SPAN("simulate", "sim");
  trace_.clear();
  events_.clear();
  sensing_mode_mattered_ = false;
  if (source_->piecewise_constant()) {
    return options_.record_trace ? run_loop<true, true>()
                                 : run_loop<true, false>();
  }
  return options_.record_trace ? run_loop<false, true>()
                               : run_loop<false, false>();
}

// ---------------------------------------------------------------------------
// The event integrator.
//
// The state trajectory between two events is a linear energy ramp: the
// harvest power is constant (piecewise-constant sources) or integrated in
// closed form (continuous sources), the load is either the standby drain
// or the in-flight operation's constant power, and leakage is constant.
// NodeMachine's decisions are made exactly at the crossing / completion
// instants.  The loop is instantiated once per {source kind, trace
// recording}, so neither is re-tested per iteration.
// ---------------------------------------------------------------------------
template <bool kPiecewiseConstant, bool kRecordTrace>
RunStats SystemSimulator::run_loop() {
  RunStats stats;
  NodeMachine m(*plan_, options_.target_instances, options_.seed, stats,
                events_);
  NodeMachine::Operation& op = m.op();

  const double e_cap = plan_->e_max();
  const double eta = options_.charge_efficiency;
  const double leak = options_.storage_leakage;
  const double max_time = options_.max_time;
  double energy = options_.initial_energy_fraction * e_cap;
  // The harvest power and its next breakpoint at t: the event loop's t
  // only moves forward, so one cursor reads the whole run.
  SupplyCursor supply = source_->cursor();
  double next_trace = 0;
  double t = 0;
  // Crossing-bisection iterations this run; exported to the obs metrics
  // side channel only — never part of RunStats.
  std::uint64_t bisections = 0;

  // Advances the stored energy and the accounting over [t, t+h) given the
  // harvest power over the interval and the node's load over it.  The
  // caller guarantees no regime boundary (empty/full) and no decision
  // threshold is crossed inside the open interval.
  auto integrate = [&](double h, double ph, double load) {
    const double in = eta * ph;
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
      const double target = m.level_above(energy, e_cap);
      if (target >= e_cap && energy >= e_cap * (1.0 - 1e-12)) return kInf;
      goal = target + (target < e_cap ? kCrossEps : 0.0);
      if (e_end < goal) return kInf;
    } else {
      const double target = m.level_below(energy, 0.0);
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

  std::uint64_t iterations = 0;
  while (t < max_time - kTimeEps) {
    if (++iterations > 100'000'000ULL) {
      throw std::runtime_error("SystemSimulator: event loop stalled");
    }
    // --- zero-time work due at t ---------------------------------------
    if constexpr (kRecordTrace) {
      if (t >= next_trace - kTimeEps) {
        supply.seek(t);
        trace_.push_back({t, energy, supply.power(), m.state()});
        next_trace += options_.trace_interval;
        continue;
      }
    }
    if (op.finished()) {
      if (m.complete_operation(t, energy)) break;  // workload target reached
      continue;
    }
    if (m.resolve(t, energy)) continue;

    // --- pick the horizon ----------------------------------------------
    supply.seek(t);
    const double ph = supply.power();
    double te = max_time;
    // Source breakpoint, bumped past the edge so the next seek sees the
    // new level.
    te = std::min(te, supply.next_change() + kTimeEps);
    if constexpr (kRecordTrace) te = std::min(te, next_trace);
    if (op.active) te = std::min(te, t + op.time_left);
    if (m.timer_armed()) te = m.timer_horizon(t, energy, te);
    const double load = m.load_power();
    const double drain = leak + load;

    if constexpr (!kPiecewiseConstant) {
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
      h = std::min(h, max_time - t);
      // The mean power over the window reproduces the exact integral, so
      // the stored energy lands on the closed-form trajectory.
      integrate(h, source_->energy_between(t, t + h) / h, load);
      t += h;
      continue;
    } else {
      // Earliest decision threshold in the travel direction: the ramp
      // covers distance d at `rate` and crosses at t + fl(d / rate).
      const double net = eta * ph - drain;
      if (net != 0) {
        const bool rising = net > 0;
        double d;
        bool bounded;  // false: pinned at the regime boundary, no crossing
        if (rising) {
          // Bounded by the saturation regime boundary.
          const double target = m.level_above(energy, e_cap);
          bounded = !(target >= e_cap && energy >= e_cap * (1.0 - 1e-12));
          d = target - energy + (target < e_cap ? kCrossEps : 0.0);
        } else {
          // Bounded by the empty regime boundary.
          const double target = m.level_below(energy, 0.0);
          bounded = !(target <= 0.0 && energy <= kCrossEps);
          d = energy - target + (target > 0.0 ? kCrossEps : 0.0);
        }
        const double rate = rising ? net : -net;
        // The crossing gate.  Most advances end at a source change or an
        // operation completion, not at a crossing, and then the division
        // below cannot move te.  Skipping it is exact: with
        //   s = fl(te - t),  p = fl(rate * s) >= DBL_MIN (normal),
        //   d >= R = fl(p * fl(1 + 1e-12)),
        // each rounding costs at most a factor (1 - u), u = 2^-53, so
        //   d / rate >= (te - t) (1 - u)^3 (1 + 1e-12 - u) > (te - t)
        // and q = fl(d / rate) >= te - t: when q is normal its own
        // rounding costs one more (1 - u), still > (te - t) since
        // 1e-12 >> 5u; when q is subnormal, so is te - t, which is
        // then an exact double and rounding is monotone.  So t + q >= te
        // and, te being a double, fl(t + fl(d / rate)) >= te: the min
        // keeps te.  Otherwise the crossing time is computed exactly as
        // before.
        const double p = rate * (te - t);
        if (bounded && !(p >= kMinNormal && d >= p * kGateSlack)) {
          const double t_cross = d / rate;
          if (t_cross < kInf) te = std::min(te, t + t_cross);
        }
      }

      double h = std::max(te - t, 1e-12);
      h = std::min(h, max_time - t);
      integrate(h, ph, load);
      t += h;
    }
  }

  sensing_mode_mattered_ = m.sensing_mode_mattered();
  stats.makespan = t;
  stats.workload_completed =
      stats.instances_completed >= options_.target_instances;
#if !defined(DIAC_OBS_DISABLED)
  record_run_metrics(stats, iterations, bisections);
  DIAC_OBS_COUNT("power.source_segments", supply.segments_generated());
#endif
  return stats;
}

}  // namespace diac
