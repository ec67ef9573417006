// SupplyCursor: the simulator's forward reader over a harvest source must
// equal the source's random-access power_at()/next_change() bit for bit —
// generating RFID segments on demand, walking a PiecewiseTrace's index,
// or falling back to the virtual queries — and a lazily materialized
// RfidBurstSource must be safe to share across threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "diac/synthesizer.hpp"
#include "exp/scenario.hpp"
#include "netlist/suite.hpp"
#include "runtime/simulator.hpp"
#include "util/rng.hpp"

namespace diac {
namespace {

// Every segment a cursor passes, read by seeking to each breakpoint.
std::vector<PiecewiseTrace::Segment> walk(SupplyCursor cursor) {
  std::vector<PiecewiseTrace::Segment> segs;
  cursor.seek(-1.0);
  while (std::isfinite(cursor.next_change())) {
    const double t = cursor.next_change();
    cursor.seek(t);
    segs.push_back({t, cursor.power()});
  }
  return segs;
}

// Seeks `cursor` along a non-decreasing grid of times — breakpoints,
// points just either side of them and random points in between — and
// checks it against the source's random-access queries.
void expect_matches(const HarvestSource& source, SupplyCursor cursor,
                    double horizon, std::uint64_t seed) {
  std::vector<double> times = {-1.0, 0.0};
  SplitMix64 rng(seed);
  for (double t = 0; t < horizon;) {
    const double next = source.next_change(t);
    if (!std::isfinite(next) || next > horizon) break;
    times.push_back(std::nextafter(next, -1.0));
    times.push_back(next);
    times.push_back(next);  // repeated t: the cursor must stay put
    times.push_back(next + rng.uniform() * 1e-3);
    t = next;
  }
  for (int i = 0; i < 200; ++i) times.push_back(rng.uniform(0.0, horizon));
  times.push_back(horizon + 10.0);
  std::sort(times.begin(), times.end());
  for (const double t : times) {
    cursor.seek(t);
    ASSERT_EQ(cursor.power(), source.power_at(t)) << t;
    ASSERT_EQ(cursor.next_change(), source.next_change(t)) << t;
  }
}

TEST(SupplyCursor, RfidCursorYieldsTheMaterializedTrace) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 0xBEEFULL, 60247ULL}) {
    for (const double horizon : {0.01, 3.0, 500.0, 20000.0, 50000.0}) {
      RfidBurstSource::Options options;
      options.horizon = horizon;
      const RfidBurstSource source(seed, options);
      SupplyCursor cursor = source.cursor();
      const std::vector<PiecewiseTrace::Segment> generated =
          walk(source.cursor());
      const std::vector<PiecewiseTrace::Segment>& stored =
          source.trace().segments();
      ASSERT_EQ(generated.size(), stored.size()) << seed << " " << horizon;
      for (std::size_t i = 0; i < stored.size(); ++i) {
        ASSERT_EQ(generated[i].start, stored[i].start) << i;
        ASSERT_EQ(generated[i].power, stored[i].power) << i;
      }
      EXPECT_EQ(stored.back().start, horizon);
      EXPECT_EQ(stored.back().power, 0.0);
      cursor.seek(horizon + 1.0);
      EXPECT_EQ(cursor.segments_generated(), stored.size());
    }
  }
}

TEST(SupplyCursor, RfidCursorGeneratesOnlyWhatItReads) {
  const RfidBurstSource source(42);  // 50 000 s of supply
  SupplyCursor cursor = source.cursor();
  cursor.seek(100.0);
  const std::uint64_t read = cursor.segments_generated();
  // The segments starting at or before t = 100 s, plus the one after.
  std::uint64_t expect = 0;
  for (const PiecewiseTrace::Segment& s : source.trace().segments()) {
    ++expect;
    if (s.start > 100.0) break;
  }
  EXPECT_EQ(read, expect);
  EXPECT_LT(read, source.trace().segments().size() / 100);
}

TEST(SupplyCursor, RfidCursorMatchesRandomAccess) {
  for (const std::uint64_t seed : {3ULL, 99ULL}) {
    RfidBurstSource::Options options;
    options.horizon = 2000.0;
    const RfidBurstSource source(seed, options);
    expect_matches(source, source.cursor(), options.horizon, seed);
  }
}

TEST(SupplyCursor, TraceCursorBeforeALateFirstSample) {
  // No supply before the first sample; a breakpoint belongs to the
  // segment it starts; the last level holds forever.
  const PiecewiseTrace trace({{5.0, 1e-3}, {10.0, 2e-3}, {20.0, 0.0},
                              {30.0, 4e-3}});
  SupplyCursor cursor = trace.cursor();
  cursor.seek(0.0);
  EXPECT_EQ(cursor.power(), 0.0);
  EXPECT_EQ(cursor.next_change(), 5.0);
  cursor.seek(5.0);
  EXPECT_EQ(cursor.power(), 1e-3);
  EXPECT_EQ(cursor.next_change(), 10.0);
  cursor.seek(31.0);
  EXPECT_EQ(cursor.power(), 4e-3);
  EXPECT_TRUE(std::isinf(cursor.next_change()));
  EXPECT_EQ(cursor.segments_generated(), 0u);
  expect_matches(trace, trace.cursor(), 40.0, 11);
}

TEST(SupplyCursor, SharedTraceScenarioWalksTheIndex) {
  // A kTrace scenario's per-job wrapper hands out the trace's own cursor.
  const auto trace = std::make_shared<const PiecewiseTrace>(
      std::vector<PiecewiseTrace::Segment>{{2.0, 3e-3}, {4.0, 0.0}});
  const auto source = make_source(trace_scenario("mem.csv", trace));
  expect_matches(*source, source->cursor(), 10.0, 5);
}

TEST(SupplyCursor, FallbackMatchesSquareAndConstant) {
  const SquareWaveSource square(4e-3, 10.0, 0.3);
  expect_matches(square, square.cursor(), 200.0, 17);
  const ConstantSource constant(2.5e-3);
  expect_matches(constant, constant.cursor(), 200.0, 19);
}

TEST(SupplyCursor, SimulationOnGeneratedAndStoredSegmentsIsIdentical) {
  // The same design over the lazily generated RFID supply and over its
  // materialized trace (the index cursor) must agree to the last bit.
  const Netlist nl = build_benchmark("s344");
  const SynthesisResult sr =
      DiacSynthesizer(nl, CellLibrary::nominal_45nm())
          .synthesize_scheme(Scheme::kDiacOptimized);
  SimulatorOptions options;
  options.target_instances = 6;
  options.max_time = 20000;
  options.record_trace = true;
  options.trace_interval = 7.0;
  const RfidBurstSource lazy(0xD1AC);
  const PiecewiseTrace stored = lazy.trace();
  SystemSimulator a(sr.design, lazy, FsmConfig{}, options);
  SystemSimulator b(sr.design, stored, FsmConfig{}, options);
  const RunStats sa = a.run();
  const RunStats sb = b.run();
  EXPECT_EQ(sa.makespan, sb.makespan);
  EXPECT_EQ(sa.energy_consumed, sb.energy_consumed);
  EXPECT_EQ(sa.energy_harvested, sb.energy_harvested);
  EXPECT_EQ(sa.energy_wasted, sb.energy_wasted);
  EXPECT_EQ(sa.instances_completed, sb.instances_completed);
  EXPECT_EQ(sa.backups, sb.backups);
  EXPECT_EQ(sa.restores, sb.restores);
  ASSERT_EQ(a.trace().size(), b.trace().size());
  for (std::size_t i = 0; i < a.trace().size(); ++i) {
    EXPECT_EQ(a.trace()[i].harvest_power, b.trace()[i].harvest_power) << i;
    EXPECT_EQ(a.trace()[i].energy, b.trace()[i].energy) << i;
  }
}

TEST(SupplyCursor, RfidSourceSharedAcrossThreads) {
  // One source, first touched by several threads at once: the lazy
  // materialization must happen exactly once and race-free (run under
  // TSan in CI), and every thread must read the same supply.
  const RfidBurstSource source(0x5EED);
  const RfidBurstSource reference(0x5EED);
  constexpr int kThreads = 4;
  std::vector<std::vector<double>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int k = 0; k < kThreads; ++k) {
    threads.emplace_back([&source, &seen, k] {
      for (double t = 0; t < 3000; t += 1.25) {
        seen[static_cast<std::size_t>(k)].push_back(source.power_at(t));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  std::vector<double> expect;
  for (double t = 0; t < 3000; t += 1.25) {
    expect.push_back(reference.power_at(t));
  }
  for (const std::vector<double>& s : seen) EXPECT_EQ(s, expect);
  EXPECT_EQ(&source.trace(), &source.trace());
}

}  // namespace
}  // namespace diac
