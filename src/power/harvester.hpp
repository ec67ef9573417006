// Ambient energy-harvesting sources.
//
// The paper simulates "an intermittent power source characterized by a
// predetermined sequence of voltage levels that cyclically repeat"
// (RFID-style bursts).  Sources here expose harvested *power* as a
// piecewise-constant function of time; the simulator integrates it into
// the storage capacitor.  All stochastic sources are seeded, so runs are
// reproducible and every scheme sees the exact same trace.  The RFID
// source generates its segments on demand from one seeded generator:
// the simulator reads them through a forward SupplyCursor as time
// advances, and only random access (power_at, trace()) materializes the
// whole trace.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "util/rng.hpp"

namespace diac {

class SupplyCursor;

// Sources are immutable after construction: every const member is safe
// to call from several threads at once (RfidBurstSource materializes its
// trace under std::call_once), and cursor() hands each caller its own
// forward reader, so one source may feed concurrent simulations.
class HarvestSource {
 public:
  virtual ~HarvestSource() = default;

  // Harvested power at absolute time t (s), in W.
  virtual double power_at(double t) const = 0;

  // Next time > t at which the power level may change (simulation steps
  // never need to subdivide below this).  Infinity for constant sources.
  virtual double next_change(double t) const = 0;

  // True when the power is exactly constant between next_change()
  // breakpoints — the contract the event-driven simulator exploits to
  // advance in closed form.  Sources with a continuously varying envelope
  // (SolarSource) return false; the event engine then advances them via
  // energy_between()/next_power_crossing().
  virtual bool piecewise_constant() const { return true; }

  // Exact integral of harvested power over [t0, t1], in J.  The default
  // walks the piecewise-constant breakpoints (exact for every pwc
  // source); continuous-envelope sources override with their closed form.
  virtual double energy_between(double t0, double t1) const;

  // First time in (t, horizon] at which the power crosses `level` (from
  // either side), or infinity when it does not.  Piecewise-constant
  // sources only move at next_change() breakpoints — which the event
  // engine already treats as events — so the default returns infinity.
  // Continuous sources solve their envelope in closed form; the event
  // engine uses this to split an advance into net-sign-constant windows,
  // inside which the stored-energy trajectory is monotone.
  virtual double next_power_crossing(double t, double level,
                                     double horizon) const;

  // A new forward reader (seek() it before reading).  The default reads
  // power_at()/next_change(); PiecewiseTrace walks its segment index and
  // RfidBurstSource generates segments as the reader advances.
  virtual SupplyCursor cursor() const;
};

// Constant source.
class ConstantSource final : public HarvestSource {
 public:
  explicit ConstantSource(double watts);
  double power_at(double t) const override;
  double next_change(double t) const override;

 private:
  double watts_;
};

// Square wave: `on_power` for duty*period, 0 for the rest, repeating.
class SquareWaveSource final : public HarvestSource {
 public:
  SquareWaveSource(double on_power, double period, double duty);
  double power_at(double t) const override;
  double next_change(double t) const override;

 private:
  double on_power_, period_, duty_;
};

// Piecewise-constant trace: power is levels[i] on [times[i], times[i+1]),
// and `tail` after the last breakpoint.  Used for the scripted Fig. 4
// scenario and for replaying recorded traces.
class PiecewiseTrace final : public HarvestSource {
 public:
  struct Segment {
    double start;  // s
    double power;  // W
  };
  explicit PiecewiseTrace(std::vector<Segment> segments);

  double power_at(double t) const override;
  double next_change(double t) const override;
  SupplyCursor cursor() const override;

  const std::vector<Segment>& segments() const { return segments_; }

 private:
  std::vector<Segment> segments_;  // sorted by start
};

// RFID-style bursty source: alternating on/off intervals with random
// durations and random on-amplitudes out to `horizon` seconds (constant 0
// beyond).  Deterministic in the seed.  Construction is O(1): one seeded
// Generator defines the segment sequence, cursor() generates it as the
// reader advances, and random access (power_at, next_change, trace())
// materializes the whole trace from the same generator on first use.
class RfidBurstSource final : public HarvestSource {
 public:
  // Defaults give a mean harvested power of ~1.8 mW against the ~3 mW
  // active draw — the energy-scarce regime the paper targets, with
  // frequent dips into the safe zone and occasional deep outages.
  struct Options {
    double mean_on = 3.0;       // s, mean burst length
    double mean_off = 3.5;      // s, mean gap length
    double min_power = 0.8e-3;  // W during a burst
    double max_power = 7.0e-3;
    double horizon = 50000.0;   // s of generated trace
  };

  // The seeded segment sequence, in order of start time; the last
  // segment is {horizon, 0}.
  class Generator {
   public:
    Generator(std::uint64_t seed, const Options& options);
    // Writes the next segment to `out`; false once the sequence ended.
    bool next(PiecewiseTrace::Segment& out);

   private:
    SplitMix64 rng_;
    Options options_;
    double t_ = 0;
    bool on_;
    bool done_ = false;
  };

  explicit RfidBurstSource(std::uint64_t seed);  // default Options
  RfidBurstSource(std::uint64_t seed, Options options);

  double power_at(double t) const override;
  double next_change(double t) const override;
  SupplyCursor cursor() const override;

  // The whole trace, materialized on first use (thread-safe).
  const PiecewiseTrace& trace() const;

 private:
  std::uint64_t seed_;
  Options options_;
  mutable std::once_flag materialized_;
  mutable std::unique_ptr<const PiecewiseTrace> trace_;
};

// Forward reader over a harvest source for callers whose query time never
// decreases (the simulator's event loop).  After seek(t), power() and
// next_change() equal source.power_at(t) and source.next_change(t) bit
// for bit.  A cursor is single-threaded; a source hands out any number.
class SupplyCursor {
 public:
  // Reads power_at()/next_change() of `source` (non-owning).
  explicit SupplyCursor(const HarvestSource& source);
  // Walks the segments of `trace` (non-owning).
  explicit SupplyCursor(const PiecewiseTrace& trace);
  // Generates segments as seek() advances.
  explicit SupplyCursor(RfidBurstSource::Generator generator);

  // Positions the cursor at t; t must not decrease between calls.
  void seek(double t) {
    if (source_ != nullptr) {
      power_ = source_->power_at(t);
      next_ = source_->next_change(t);
      return;
    }
    // Segment semantics of PiecewiseTrace: a breakpoint belongs to the
    // segment it starts, and the power is 0 before the first one.
    while (next_ <= t) {
      power_ = pending_power_;
      pull();
    }
  }
  double power() const { return power_; }
  double next_change() const { return next_; }

  // Segments the generator produced so far (0 for the other modes).
  std::uint64_t segments_generated() const { return generated_; }

 private:
  // Loads the segment after the current one into next_/pending_power_
  // (next_ = infinity when there is none).
  void pull() {
    if (segment_ != end_) {
      next_ = segment_->start;
      pending_power_ = segment_->power;
      ++segment_;
    } else if (generator_) {
      generate();
    } else {
      next_ = std::numeric_limits<double>::infinity();
    }
  }
  void generate();

  const HarvestSource* source_ = nullptr;
  const PiecewiseTrace::Segment* segment_ = nullptr;  // trace mode
  const PiecewiseTrace::Segment* end_ = nullptr;
  std::optional<RfidBurstSource::Generator> generator_;
  double power_ = 0;
  double next_ = std::numeric_limits<double>::infinity();
  double pending_power_ = 0;
  std::uint64_t generated_ = 0;
};

// Solar-profile source: a diurnal half-sine envelope (zero at night)
// modulated by seeded cloud attenuation events.  Gives experiments a
// second, qualitatively different ambient-source class (slow diurnal
// swings + minute-scale cloud dips) next to the bursty RFID source.
class SolarSource final : public HarvestSource {
 public:
  struct Options {
    double peak_power = 12.0e-3;   // W at solar noon, clear sky
    double day_length = 600.0;     // s of daylight per period (scaled day)
    double night_length = 600.0;   // s of darkness per period
    double cloud_rate = 0.01;      // expected cloud events per second
    double cloud_mean_duration = 20.0;  // s
    double cloud_attenuation = 0.15;    // fraction of power left under cloud
    double horizon = 50000.0;      // s of precomputed cloud events
  };
  explicit SolarSource(std::uint64_t seed);
  SolarSource(std::uint64_t seed, Options options);

  double power_at(double t) const override;
  double next_change(double t) const override;
  bool piecewise_constant() const override { return false; }
  // Closed-form sine-envelope integral: exact over day/night boundaries
  // and cloud edges.
  double energy_between(double t0, double t1) const override;
  // Closed-form arcsin solve of peak*atten*sin(pi*phase/day) == level
  // within the current daylight/cloud segment.
  double next_power_crossing(double t, double level,
                             double horizon) const override;

 private:
  Options options_;
  // Cloud events as [start, end) intervals, sorted.
  std::vector<std::pair<double, double>> clouds_;
};

// The scripted charging-rate scenario of Fig. 4, covering all six regions:
//  (1) surplus charging (storage saturates at E_MAX),
//  (2) scarce charging (duty-cycled operation),
//  (3) sudden decline triggering a backup,
//  (4) sustained drought: shutdown below Th_Off, later restore,
//  (5) three brief dips into the safe zone (no backups needed),
//  (6) an interruption that causes a backup but recovers before shutdown.
PiecewiseTrace fig4_trace();

}  // namespace diac
