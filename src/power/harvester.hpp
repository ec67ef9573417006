// Ambient energy-harvesting sources.
//
// The paper simulates "an intermittent power source characterized by a
// predetermined sequence of voltage levels that cyclically repeat"
// (RFID-style bursts).  Sources here expose harvested *power* as a
// piecewise-constant function of time; the simulator integrates it into
// the storage capacitor.  All stochastic sources are seeded and
// precomputed, so runs are reproducible and every scheme sees the exact
// same trace.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/rng.hpp"

namespace diac {

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

  const std::vector<Segment>& segments() const { return segments_; }

 private:
  std::vector<Segment> segments_;  // sorted by start
};

// RFID-style bursty source: alternating on/off intervals with random
// durations and random on-amplitudes, precomputed out to `horizon`
// seconds (constant 0 beyond).  Deterministic in the seed.
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
    double horizon = 50000.0;   // s of precomputed trace
  };
  explicit RfidBurstSource(std::uint64_t seed);  // default Options
  RfidBurstSource(std::uint64_t seed, Options options);

  double power_at(double t) const override;
  double next_change(double t) const override;

  const PiecewiseTrace& trace() const { return *trace_; }

 private:
  std::unique_ptr<PiecewiseTrace> trace_;
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
    double horizon = 50000.0;      // s of precomputed cloud trace
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
