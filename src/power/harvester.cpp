#include "power/harvester.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/units.hpp"

namespace diac {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kPi = 3.14159265358979323846;

bool cloud_at(const std::vector<std::pair<double, double>>& clouds, double t) {
  auto it = std::upper_bound(
      clouds.begin(), clouds.end(), t,
      [](double v, const std::pair<double, double>& c) { return v < c.first; });
  return it != clouds.begin() && t < std::prev(it)->second;
}
}  // namespace

double HarvestSource::energy_between(double t0, double t1) const {
  // Exact for piecewise-constant sources: the power is power_at(t) on
  // every [breakpoint, breakpoint) span.
  double e = 0;
  double t = t0;
  while (t < t1) {
    const double end = std::min(next_change(t), t1);
    if (!(end > t)) break;  // defensive: next_change must advance
    e += power_at(t) * (end - t);
    t = end;
  }
  return e;
}

double HarvestSource::next_power_crossing(double, double, double) const {
  return kInf;  // pwc sources only move at next_change breakpoints
}

SupplyCursor HarvestSource::cursor() const { return SupplyCursor(*this); }

SupplyCursor::SupplyCursor(const HarvestSource& source) : source_(&source) {}

SupplyCursor::SupplyCursor(const PiecewiseTrace& trace)
    : segment_(trace.segments().data()),
      end_(trace.segments().data() + trace.segments().size()) {
  pull();
}

SupplyCursor::SupplyCursor(RfidBurstSource::Generator generator)
    : generator_(std::move(generator)) {
  pull();
}

void SupplyCursor::generate() {
  PiecewiseTrace::Segment s;
  if (generator_->next(s)) {
    next_ = s.start;
    pending_power_ = s.power;
    ++generated_;
  } else {
    next_ = kInf;
  }
}

ConstantSource::ConstantSource(double watts) : watts_(watts) {
  if (watts < 0) throw std::invalid_argument("ConstantSource: negative power");
}

double ConstantSource::power_at(double) const { return watts_; }
double ConstantSource::next_change(double) const { return kInf; }

SquareWaveSource::SquareWaveSource(double on_power, double period, double duty)
    : on_power_(on_power), period_(period), duty_(duty) {
  if (on_power < 0 || period <= 0 || duty < 0 || duty > 1) {
    throw std::invalid_argument("SquareWaveSource: invalid parameters");
  }
}

double SquareWaveSource::power_at(double t) const {
  if (t < 0) return 0;
  const double phase = std::fmod(t, period_);
  return phase < duty_ * period_ ? on_power_ : 0.0;
}

double SquareWaveSource::next_change(double t) const {
  if (t < 0) return 0;
  const double cycle = std::floor(t / period_) * period_;
  const double edge = cycle + duty_ * period_;
  if (t < edge) return edge;
  return cycle + period_;
}

PiecewiseTrace::PiecewiseTrace(std::vector<Segment> segments)
    : segments_(std::move(segments)) {
  if (segments_.empty()) {
    throw std::invalid_argument("PiecewiseTrace: empty trace");
  }
  if (!std::is_sorted(segments_.begin(), segments_.end(),
                      [](const Segment& a, const Segment& b) {
                        return a.start < b.start;
                      })) {
    throw std::invalid_argument("PiecewiseTrace: segments must be sorted");
  }
  for (const Segment& s : segments_) {
    if (s.power < 0) throw std::invalid_argument("PiecewiseTrace: negative power");
  }
}

double PiecewiseTrace::power_at(double t) const {
  if (t < segments_.front().start) return 0.0;
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), t,
      [](double v, const Segment& s) { return v < s.start; });
  return std::prev(it)->power;
}

double PiecewiseTrace::next_change(double t) const {
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), t,
      [](double v, const Segment& s) { return v < s.start; });
  return it == segments_.end() ? kInf : it->start;
}

SupplyCursor PiecewiseTrace::cursor() const { return SupplyCursor(*this); }

RfidBurstSource::RfidBurstSource(std::uint64_t seed)
    : RfidBurstSource(seed, Options{}) {}

RfidBurstSource::Generator::Generator(std::uint64_t seed,
                                      const Options& options)
    : rng_(seed), options_(options), on_(rng_.chance(0.5)) {}

bool RfidBurstSource::Generator::next(PiecewiseTrace::Segment& out) {
  if (done_) return false;
  if (!(t_ < options_.horizon)) {
    out = {options_.horizon, 0.0};
    done_ = true;
    return true;
  }
  const double mean = on_ ? options_.mean_on : options_.mean_off;
  // Exponential duration via inverse transform, clamped for sanity.
  const double u = std::max(1e-9, rng_.uniform());
  double dur = std::clamp(-mean * std::log(u), 0.05 * mean, 8.0 * mean);
  // Occasional droughts: a reader moving out of range for much longer
  // than a burst gap.  These are what exercise backups, rollbacks, deep
  // outages and the safe zone.
  if (!on_ && rng_.chance(0.12)) dur *= 5.0;
  const double p =
      on_ ? rng_.uniform(options_.min_power, options_.max_power) : 0.0;
  out = {t_, p};
  t_ += dur;
  on_ = !on_;
  return true;
}

RfidBurstSource::RfidBurstSource(std::uint64_t seed, Options options)
    : seed_(seed), options_(options) {
  if (options.mean_on <= 0 || options.mean_off <= 0 || options.horizon <= 0 ||
      options.min_power < 0 || options.max_power < options.min_power) {
    throw std::invalid_argument("RfidBurstSource: invalid options");
  }
}

const PiecewiseTrace& RfidBurstSource::trace() const {
  std::call_once(materialized_, [this] {
    Generator generator(seed_, options_);
    std::vector<PiecewiseTrace::Segment> segs;
    PiecewiseTrace::Segment s;
    while (generator.next(s)) segs.push_back(s);
    trace_ = std::make_unique<const PiecewiseTrace>(std::move(segs));
  });
  return *trace_;
}

double RfidBurstSource::power_at(double t) const { return trace().power_at(t); }
double RfidBurstSource::next_change(double t) const {
  return trace().next_change(t);
}

SupplyCursor RfidBurstSource::cursor() const {
  return SupplyCursor(Generator(seed_, options_));
}

SolarSource::SolarSource(std::uint64_t seed)
    : SolarSource(seed, Options{}) {}

SolarSource::SolarSource(std::uint64_t seed, Options options)
    : options_(options) {
  if (options_.peak_power < 0 || options_.day_length <= 0 ||
      options_.night_length < 0 || options_.cloud_rate < 0 ||
      options_.cloud_mean_duration <= 0 || options_.cloud_attenuation < 0 ||
      options_.cloud_attenuation > 1 || options_.horizon <= 0) {
    throw std::invalid_argument("SolarSource: invalid options");
  }
  SplitMix64 rng(seed);
  // Poisson-ish cloud arrivals via exponential gaps.
  double t = 0;
  while (t < options_.horizon) {
    const double gap = options_.cloud_rate > 0
                           ? -std::log(std::max(1e-9, rng.uniform())) /
                                 options_.cloud_rate
                           : options_.horizon;
    t += gap;
    if (t >= options_.horizon) break;
    const double dur = std::clamp(
        -options_.cloud_mean_duration * std::log(std::max(1e-9, rng.uniform())),
        1.0, 8.0 * options_.cloud_mean_duration);
    clouds_.emplace_back(t, t + dur);
    t += dur;
  }
}

double SolarSource::power_at(double t) const {
  if (t < 0) return 0;
  const double period = options_.day_length + options_.night_length;
  const double phase = std::fmod(t, period);
  if (phase >= options_.day_length) return 0.0;  // night
  const double envelope =
      options_.peak_power * std::sin(kPi * phase / options_.day_length);
  if (cloud_at(clouds_, t)) return envelope * options_.cloud_attenuation;
  return envelope;
}

double SolarSource::next_change(double t) const {
  // The envelope changes continuously; report the next cloud edge or
  // day/night boundary so simulators know the trace is "active".
  const double period = options_.day_length + options_.night_length;
  const double phase = std::fmod(std::max(t, 0.0), period);
  const double base = t - phase;
  double next = phase < options_.day_length ? base + options_.day_length
                                            : base + period;
  // Binary search over the sorted cloud intervals (this is on the
  // event-driven simulator's hot path).
  auto it = std::upper_bound(
      clouds_.begin(), clouds_.end(), t,
      [](double v, const std::pair<double, double>& c) { return v < c.first; });
  if (it != clouds_.end()) next = std::min(next, it->first);
  if (it != clouds_.begin()) {
    const auto& prev = *std::prev(it);
    if (prev.second > t) next = std::min(next, prev.second);
  }
  return next;
}

double SolarSource::energy_between(double t0, double t1) const {
  // Walk the envelope's own breakpoints (day/night boundaries and cloud
  // edges — exactly what next_change reports), integrating the sine in
  // closed form on each smooth piece:
  //   ∫ A·sin(π·p/L) dp over [p0, p1]  =  A·L/π · (cos(π·p0/L) − cos(π·p1/L))
  const double period = options_.day_length + options_.night_length;
  const double w = kPi / options_.day_length;
  double e = 0;
  double t = std::max(t0, 0.0);
  while (t < t1) {
    const double end = std::min(next_change(t), t1);
    if (!(end > t)) break;  // defensive: next_change must advance
    // Classify the piece at its midpoint: next_change stops at every
    // boundary, so the day/night and cloud state is constant on (t, end).
    const double mid = 0.5 * (t + end);
    const double phase = std::fmod(mid, period);
    if (phase < options_.day_length) {
      const double atten =
          cloud_at(clouds_, mid) ? options_.cloud_attenuation : 1.0;
      const double day_start = mid - phase;
      const double p0 = std::clamp(t - day_start, 0.0, options_.day_length);
      const double p1 = std::clamp(end - day_start, 0.0, options_.day_length);
      e += atten * options_.peak_power / w *
           (std::cos(w * p0) - std::cos(w * p1));
    }
    t = end;
  }
  return e;
}

double SolarSource::next_power_crossing(double t, double level,
                                        double horizon) const {
  if (level <= 0) return kInf;  // power never goes negative
  const double period = options_.day_length + options_.night_length;
  const double tt = std::max(t, 0.0);
  const double phase = std::fmod(tt, period);
  if (phase >= options_.day_length) return kInf;  // night: constant zero
  const double amp = options_.peak_power *
                     (cloud_at(clouds_, tt) ? options_.cloud_attenuation : 1.0);
  if (amp <= 0) return kInf;
  const double r = level / amp;
  if (r >= 1.0) return kInf;  // the envelope never reaches the level
  // A·sin(π·p/L) == level at p and L−p within this day; the amplitude is
  // constant until the next cloud edge / boundary, which next_change
  // already reports as an event.
  const double w = kPi / options_.day_length;
  const double p = std::asin(r) / w;
  const double day_start = tt - phase;
  const double seg_end = std::min(horizon, next_change(tt));
  for (const double cand :
       {day_start + p, day_start + (options_.day_length - p)}) {
    if (cand > tt && cand <= seg_end) return cand;
  }
  return kInf;
}

PiecewiseTrace fig4_trace() {
  using namespace units;
  // Charging rates chosen against the paper's system constants
  // (E_MAX = 25 mJ; sense/compute/transmit = 2/4/9 mJ; active drain ~3 mW):
  // the bottom panel of Fig. 4 swings between ~0 and ~50 (arbitrary
  // units); we map its qualitative shape onto mW levels.
  // Rates are chosen against the default FsmConfig (active 3 mW, retention
  // 0.1 mW, post-backup standby 5 uW) so each region exhibits exactly the
  // paper's narrated behaviour.
  std::vector<PiecewiseTrace::Segment> segs;
  // (1) 0-600 s: surplus (charging beats the duty-cycled load; storage
  //     periodically saturates at E_MAX).
  segs.push_back({0.0, 9.0 * mW});
  // (2) 600-1200 s: scarce (below the active draw; system duty-cycles,
  //     sleeping until E exceeds the compute entry level, then working
  //     back down to Th_Safe).
  segs.push_back({600.0, 1.1 * mW});
  // (3) 1200-1500 s: sudden decline far below the retention drain -> the
  //     storage walks down through Th_Safe into Th_Bk -> one backup.  The
  //     trickle that remains is too weak to climb back to the compute
  //     entry level, so the node stays parked on the post-backup standby.
  segs.push_back({1200.0, 0.01 * mW});
  // (4) 1500-2100 s: total drought -> even the post-backup standby drains
  //     the storage below Th_Off (shutdown); then a strong recharge ->
  //     restore from NVM.
  segs.push_back({1500.0, 0.0});
  segs.push_back({2100.0, 10.0 * mW});
  // (5) 2400-3000 s: three brief dips that reach the safe zone but recover
  //     before Th_Bk -> three safe-zone saves, zero NVM writes.  The dip
  //     level sits below the 0.1 mW retention drain so the storage slides
  //     *into* the zone, but the dips are short enough that it never
  //     reaches Th_Bk.
  segs.push_back({2400.0, 8.0 * mW});
  segs.push_back({2520.0, 0.05 * mW});  // dip 1
  segs.push_back({2560.0, 8.0 * mW});
  segs.push_back({2660.0, 0.05 * mW});  // dip 2
  segs.push_back({2700.0, 8.0 * mW});
  segs.push_back({2800.0, 0.05 * mW});  // dip 3
  segs.push_back({2840.0, 8.0 * mW});
  // (6) 3000-3600 s: interruption long enough to cross Th_Bk (backup),
  //     but the post-backup standby keeps the node above Th_Off until
  //     charging returns -> no shutdown, no restore needed.
  segs.push_back({3000.0, 0.0});
  segs.push_back({3100.0, 9.0 * mW});
  segs.push_back({3600.0, 6.0 * mW});
  return PiecewiseTrace(std::move(segs));
}

}  // namespace diac
