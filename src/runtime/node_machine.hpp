// NodeMachine: the Algorithm-1 state machine (SIII.B, Fig. 3a), once.
//
// Holds the node's control state — NodeState, Reg_Flag, the next compute
// step and transmit packet, whether NVM holds the current progress, the
// pending safe-zone dip, the recovery point captured by the last backup,
// the in-flight atomic operation and the seeded operation-jitter stream —
// and applies every transition: state entries, exits below Th_Safe, the
// power and timer interrupts, backup/restore roll-back and the Compute /
// Transmit chaining of Algorithm 1's inner loops.
//
// It owns no energy model.  An integrator advances stored energy and time
// between decisions and hands the machine the current (t, E) whenever a
// decision may be due; the machine writes its counters into the caller's
// RunStats and its events into the caller's SimEvent log.  Every
// design-derived constant it reads (program steps, thresholds, entry
// levels, resume points, backup/restore costs) comes from a SimPlan.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "runtime/sim_plan.hpp"
#include "runtime/stats.hpp"
#include "util/rng.hpp"

namespace diac {

struct SimEvent {
  enum class Kind {
    kBackup,
    kRestore,
    kSafeZoneSave,
    kShutdown,
    kInstanceDone,
    kPowerInterrupt,
  };
  Kind kind;
  double t = 0;
};

const char* to_string(SimEvent::Kind kind);

class NodeMachine {
 public:
  // Slack on time comparisons (timer expiry, trace sampling) so events
  // scheduled *at* a boundary fire despite rounding.
  static constexpr double kTimeEps = 1.0e-9;  // s

  // An atomic operation: its remaining energy drains at constant power
  // over its remaining time.  Integrators advance it; the machine arms,
  // aborts and completes it.
  struct Operation {
    // Residual below which an in-flight operation counts as finished.
    static constexpr double kDoneEps = 1.0e-12;  // s

    double energy_left = 0;
    double time_left = 0;
    bool active = false;
    double power() const {
      return time_left > 0 ? energy_left / time_left : 0;
    }
    bool finished() const { return active && time_left <= kDoneEps; }
  };

  // All references must outlive the machine.
  NodeMachine(const SimPlan& plan, int target_instances, std::uint64_t seed,
              RunStats& stats, std::vector<SimEvent>& events);

  NodeState state() const { return state_; }
  RegFlag reg() const { return reg_; }
  int step_index() const { return step_idx_; }  // next compute step
  Operation& op() { return op_; }

  // Power the node draws from storage in its current state.
  double load_power() const {
    switch (state_) {
      case NodeState::kSleep: return standby_power();
      case NodeState::kOff: return 0.0;
      default: return op_.active ? op_.power() : 0.0;
    }
  }

  // The decision levels an integrator must stop at are the threshold
  // stack plus one state-dependent level: the restore level while Off,
  // the next step's entry level while waiting to compute.  level_above
  // returns the lowest level above stored energy `e` (or `bound`, the
  // regime boundary E_MAX, when none lies between); level_below the
  // highest level below `e` (or `bound`, 0).  Each level is one select
  // over a min/max, with no data-dependent branch; a NaN state level
  // (none applies) compares false and never wins.
  double level_above(double e, double bound) const {
    const Thresholds& th = *thresholds_;
    double target = bound;
    for (const double level : {th.off, th.backup, th.safe, th.sense,
                               th.compute, th.transmit, state_level()}) {
      target = level > e ? std::min(target, level) : target;
    }
    return target;
  }
  double level_below(double e, double bound) const {
    const Thresholds& th = *thresholds_;
    double target = bound;
    for (const double level : {th.off, th.backup, th.safe, th.sense,
                               th.compute, th.transmit, state_level()}) {
      target = level < e ? std::max(target, level) : target;
    }
    return target;
  }

  // True while the sense timer is armed: only an idle sleeping node waits
  // on it.
  bool timer_armed() const {
    return state_ == NodeState::kSleep && reg_ == RegFlag::kIdle;
  }
  // Absolute time at which the armed sense timer fires, given stored
  // energy `e`.
  double sense_due(double e) const {
    return last_sense_done_ + sense_interval_at(e);
  }
  // The integrator's horizon decision for the armed timer at (t, e):
  // `te` capped at the timer's expiry when that lies ahead.
  double timer_horizon(double t, double e, double te) {
    const double cap = capped_at_due(t, sense_due(e), te);
    if (e < thresholds_->compute &&
        capped_at_due(t, last_sense_done_ + twin_sense_interval(), te) != cap) {
      sensing_mode_mattered_ = true;
    }
    return cap;
  }

  // The sensing witness.  FsmConfig::adaptive_sensing is read only by
  // sense_interval_at, whose value feeds exactly two decisions: the timer
  // test in resolve() (D1) and the timer cap on the integrator's horizon
  // (D2, timer_horizon).  Below Th_Compute, where the two modes'
  // intervals differ, every D1 and D2 evaluation also takes the other
  // mode's decision from the same state and sets this flag when the two
  // disagree.  While it stays clear, a run under the other mode (the
  // twin: the same plan but for adaptive_sensing, the same source and
  // options) holds the identical state after every loop iteration, by
  // induction: both start identical, every other decision reads state
  // the two share, and D1/D2 agree.  So a run that ends with the flag
  // clear *is* its twin's run: RunStats, events and trace, bit for bit.
  bool sensing_mode_mattered() const { return sensing_mode_mattered_; }

  // Finishes the in-flight operation at time t: draws any residual from
  // `energy`, then applies the completion transition.  Returns true when
  // the workload target was reached (the run is over).
  bool complete_operation(double t, double& energy);

  // Applies one zero-time transition due at (t, energy); returns true when
  // something changed (callers re-resolve until quiescent).
  bool resolve(double t, double energy);

 private:
  double standby_power() const {
    return backed_up_ ? config_->sleep_power_backed_up : config_->sleep_power;
  }
  double sense_interval_at(double e) const {
    double interval = config_->sense_interval;
    if (config_->adaptive_sensing && e < thresholds_->compute) {
      interval *= config_->adaptive_slowdown;
    }
    return interval;
  }
  // The other sensing mode's interval below Th_Compute.
  double twin_sense_interval() const {
    return config_->adaptive_sensing
               ? config_->sense_interval
               : config_->sense_interval * config_->adaptive_slowdown;
  }
  // D1: has the timer armed at last_sense_done_ expired at t?
  bool timer_expired(double t, double interval) const {
    return t - last_sense_done_ >= interval - kTimeEps;
  }
  static double capped_at_due(double t, double due, double te) {
    return due > t ? std::min(te, due) : te;
  }
  // Entry energy for compute step `idx`.
  double step_need(std::size_t idx) const { return plan_->step_need(idx); }
  int program_size() const { return static_cast<int>(steps_->size()); }
  // The state-dependent decision level, NaN when none applies.
  double state_level() const {
    if (state_ == NodeState::kOff) return plan_->restore_level();
    if (state_ == NodeState::kSleep && reg_ == RegFlag::kCompute &&
        step_idx_ < program_size()) {
      return step_need(static_cast<std::size_t>(step_idx_));
    }
    return std::numeric_limits<double>::quiet_NaN();
  }

  void start_operation(double energy, double duration);
  void start_compute_step();
  void start_packet();
  void begin_backup(double t);
  void record_event(SimEvent::Kind kind, double t) {
    events_->push_back({kind, t});
  }

  // --- wiring ----------------------------------------------------------
  const SimPlan* plan_;
  const std::vector<TaskStep>* steps_;
  const FsmConfig* config_;
  const Thresholds* thresholds_;
  int target_instances_;
  int total_packets_;
  bool safe_zone_;
  RunStats* stats_;
  std::vector<SimEvent>* events_;
  SplitMix64 rng_;

  // --- machine state -----------------------------------------------------
  // state_ and reg_ sit more than a word apart on purpose: GCC folds a
  // test of two adjacent byte fields into one 16-bit load, which stalls
  // on store forwarding once the fields live in registers and spill
  // slots — measurably slowing every integrator step.
  NodeState state_ = NodeState::kSleep;
  int step_idx_ = 0;    // next compute step
  int packet_idx_ = 0;  // next transmit packet
  RegFlag reg_ = RegFlag::kIdle;
  double last_sense_done_;  // timer fires at t=0
  bool backed_up_ = false;
  struct Captured {
    RegFlag reg = RegFlag::kIdle;
    int step = 0;
    int packet = 0;
  } captured_;
  bool pending_dip_ = false;  // inside the safe zone without a backup yet
  Operation op_;              // the in-flight atomic operation, if any
  bool sensing_mode_mattered_ = false;  // see sensing_mode_mattered()
};

// The construction and transitions are defined inline: integrators call
// them once per step, and inlining lets the compiler keep the whole
// machine in registers.  The two transitions are forced inline because
// the event loop is instantiated four times, and past the first copy the
// compiler's size heuristics would otherwise call them out of line.
inline NodeMachine::NodeMachine(const SimPlan& plan, int target_instances,
                                std::uint64_t seed, RunStats& stats,
                                std::vector<SimEvent>& events)
    : plan_(&plan),
      steps_(&plan.program().steps()),
      config_(&plan.config()),
      thresholds_(&plan.thresholds()),
      target_instances_(target_instances),
      total_packets_(plan.total_packets()),
      safe_zone_(plan.safe_zone()),
      stats_(&stats),
      events_(&events),
      rng_(seed),
      last_sense_done_(-plan.config().sense_interval) {}

inline void NodeMachine::start_operation(double energy, double duration) {
  // Zero-duration operations complete immediately.
  op_.energy_left = energy;
  op_.time_left = std::max(duration, 0.0);
  op_.active = true;
}

inline void NodeMachine::start_compute_step() {
  const TaskStep& s = (*steps_)[static_cast<std::size_t>(step_idx_)];
  const double te = config_->dispatch_energy +
                    rng_.jitter(s.energy, config_->op_jitter) +
                    s.persist_energy;
  const double tt = config_->dispatch_time + s.duration + s.persist_time;
  start_operation(te, tt);
}

inline void NodeMachine::start_packet() {
  const double pe =
      rng_.jitter(config_->transmit_packet_energy, config_->op_jitter);
  start_operation(pe, pe / config_->transmit_power);
}

inline void NodeMachine::begin_backup(double t) {
  op_ = Operation{};
  state_ = NodeState::kBackup;
  start_operation(plan_->backup_energy(), plan_->backup_time());
  record_event(SimEvent::Kind::kPowerInterrupt, t);
  ++stats_->power_interrupts;
}

[[gnu::always_inline]] inline bool NodeMachine::complete_operation(
    double t, double& energy) {
  RunStats& stats = *stats_;
  const double residue = std::clamp(op_.energy_left, 0.0, energy);
  energy -= residue;
  stats.energy_consumed += residue;
  op_ = Operation{};

  switch (state_) {
    case NodeState::kRestore: {
      ++stats.restores;
      // Roll back to the recovery point of the captured state.
      reg_ = captured_.reg;
      packet_idx_ = captured_.packet;
      const int resume = plan_->program().resume_after_loss(captured_.step);
      if (captured_.step > resume) {
        stats.tasks_reexecuted += captured_.step - resume;
        stats.reexec_energy +=
            plan_->program().steps_energy(resume, captured_.step);
      }
      step_idx_ = resume;
      backed_up_ = true;  // NVM still holds the captured state
      state_ = NodeState::kSleep;
      record_event(SimEvent::Kind::kRestore, t);
      break;
    }
    case NodeState::kBackup: {
      ++stats.backups;
      ++stats.nvm_writes;
      stats.nvm_bits_written += plan_->backup_bits();
      // After the backup the node drops to the low standby drain, which
      // sacrifices volatile state: DIAC schemes roll back to the last
      // commit point and re-execute the tail.
      const int resume = plan_->program().resume_after_loss(step_idx_);
      if (step_idx_ > resume) {
        stats.tasks_reexecuted += step_idx_ - resume;
        stats.reexec_energy += plan_->program().steps_energy(resume, step_idx_);
        step_idx_ = resume;
      }
      captured_ = {reg_, step_idx_, packet_idx_};
      backed_up_ = true;
      pending_dip_ = false;
      state_ = NodeState::kSleep;
      record_event(SimEvent::Kind::kBackup, t);
      break;
    }
    case NodeState::kSense: {
      last_sense_done_ = t;
      reg_ = RegFlag::kCompute;
      backed_up_ = false;
      state_ = NodeState::kSleep;
      break;
    }
    case NodeState::kCompute: {
      const TaskStep& s = (*steps_)[static_cast<std::size_t>(step_idx_)];
      ++stats.tasks_executed;
      if (s.persist) {
        ++stats.nvm_writes;
        ++stats.nvm_boundary_writes;
        stats.nvm_bits_written += s.persist_bits;
      }
      ++step_idx_;
      // A persisted step is itself a fresh resume point; only steps
      // whose data lives in volatile registers invalidate the backup.
      backed_up_ = false;
      if (step_idx_ == program_size()) {
        reg_ = RegFlag::kTransmit;
        state_ = NodeState::kSleep;
      } else if (energy >= step_need(static_cast<std::size_t>(step_idx_))) {
        // Stay in Compute (Algorithm 1's inner while loop): chain the
        // next task without bouncing through Sleep.
        start_compute_step();
      } else {
        state_ = NodeState::kSleep;
      }
      break;
    }
    case NodeState::kTransmit: {
      ++packet_idx_;
      backed_up_ = false;
      if (packet_idx_ >= total_packets_) {
        ++stats.instances_completed;
        record_event(SimEvent::Kind::kInstanceDone, t);
        reg_ = RegFlag::kIdle;
        packet_idx_ = 0;
        step_idx_ = 0;
        state_ = NodeState::kSleep;
        if (stats.instances_completed >= target_instances_) return true;
      } else if (energy >= thresholds_->safe +
                               config_->entry_margin *
                                   config_->transmit_packet_energy) {
        start_packet();
      } else {
        state_ = NodeState::kSleep;
      }
      break;
    }
    default: break;  // Sleep/Off never own an operation
  }
  return false;
}

[[gnu::always_inline]] inline bool NodeMachine::resolve(double t,
                                                        double energy) {
  const Thresholds& th = *thresholds_;
  // Deep outage: volatile state is lost below Th_Off.
  if (energy < th.off && state_ != NodeState::kOff) {
    state_ = NodeState::kOff;
    op_ = Operation{};
    ++stats_->deep_outages;
    record_event(SimEvent::Kind::kShutdown, t);
    pending_dip_ = false;
    return true;
  }

  switch (state_) {
    case NodeState::kOff: {
      // Recover once there is enough energy to pay for the restore and
      // land above the safe zone.
      if (energy >= plan_->restore_level()) {
        state_ = NodeState::kRestore;
        start_operation(plan_->restore_energy(), plan_->restore_time());
        return true;
      }
      return false;
    }

    case NodeState::kRestore:
    case NodeState::kBackup:
      return false;  // only the completion event moves these along

    case NodeState::kSleep: {
      // Power interrupt (Algorithm 1 line 38): below Th_Bk every design
      // must back up — unless the NVM already holds this progress.
      if (energy < th.backup) {
        if (!backed_up_) {
          begin_backup(t);
          return true;
        }
        return false;
      }
      // Between Th_Bk and Th_Safe: a design *with* the safe zone holds
      // in Sleep hoping to recover; a design without it cannot tell a
      // brief dip from an outage and conservatively backs up now.
      if (energy < th.safe) {
        if (!backed_up_) {
          if (safe_zone_) {
            if (!pending_dip_) {
              pending_dip_ = true;
              return true;
            }
          } else {
            begin_backup(t);
            return true;
          }
        }
        return false;
      }
      // Recovered above Th_Safe: a pending dip that never needed a
      // backup is a saved NVM write (Fig. 4 region 5).
      if (pending_dip_) {
        pending_dip_ = false;
        ++stats_->safe_zone_saves;
        record_event(SimEvent::Kind::kSafeZoneSave, t);
        return true;
      }
      // Timer interrupt: re-arm sensing (Algorithm 1 lines 33-37).  With
      // adaptive sensing the sampling rate backs off while stored energy
      // is scarce (line 34).
      if (reg_ == RegFlag::kIdle) {
        const bool expired = timer_expired(t, sense_interval_at(energy));
        if (energy < th.compute &&
            timer_expired(t, twin_sense_interval()) != expired) {
          sensing_mode_mattered_ = true;
        }
        if (expired) {
          reg_ = RegFlag::kSense;
          return true;
        }
      }
      // State entries (Algorithm 1 lines 6-11), gated on thresholds.
      if (reg_ == RegFlag::kSense && th.can_sense(energy)) {
        state_ = NodeState::kSense;
        const double se = rng_.jitter(config_->sense_energy, config_->op_jitter);
        start_operation(se, se / config_->sense_power);
        return true;
      }
      if (reg_ == RegFlag::kCompute &&
          step_idx_ < program_size() &&
          energy >= step_need(static_cast<std::size_t>(step_idx_))) {
        state_ = NodeState::kCompute;
        start_compute_step();
        return true;
      }
      if (reg_ == RegFlag::kTransmit && th.can_transmit(energy)) {
        state_ = NodeState::kTransmit;
        start_packet();
        return true;
      }
      return false;
    }

    case NodeState::kSense:
    case NodeState::kCompute:
    case NodeState::kTransmit: {
      // Exit the active state when energy falls below Th_Safe
      // (Algorithm 1 lines 17/27).  The in-flight atomic operation is
      // lost.  Safe-zone designs wait in Sleep for recovery; the others
      // conservatively back up immediately.
      if (energy < th.safe) {
        if (state_ == NodeState::kCompute) ++stats_->task_aborts;
        op_ = Operation{};
        if (safe_zone_) {
          pending_dip_ = true;
          state_ = NodeState::kSleep;
        } else if (!backed_up_) {
          begin_backup(t);
        } else {
          state_ = NodeState::kSleep;
        }
        return true;
      }
      return false;
    }
  }
  return false;
}

}  // namespace diac
