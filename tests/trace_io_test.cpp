#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "diac/synthesizer.hpp"
#include "netlist/suite.hpp"
#include "oracle/stepped_integrator.hpp"
#include "power/trace_io.hpp"
#include "runtime/simulator.hpp"

namespace diac {
namespace {

TEST(TraceIo, ParsesTwoColumnCsv) {
  std::istringstream in("0,0.001\n10,0.005\n20,0\n");
  const PiecewiseTrace trace = parse_trace_csv(in);
  EXPECT_DOUBLE_EQ(trace.power_at(5), 0.001);
  EXPECT_DOUBLE_EQ(trace.power_at(15), 0.005);
  EXPECT_DOUBLE_EQ(trace.power_at(25), 0.0);
}

TEST(TraceIo, ToleratesHeaderAndComments) {
  std::istringstream in(
      "time_s,power_W\n# measured on rooftop\n\n0,0.002\n5,0.004\n");
  const PiecewiseTrace trace = parse_trace_csv(in);
  EXPECT_DOUBLE_EQ(trace.power_at(1), 0.002);
  EXPECT_DOUBLE_EQ(trace.power_at(6), 0.004);
}

TEST(TraceIo, RejectsBadInput) {
  std::istringstream empty("");
  EXPECT_THROW(parse_trace_csv(empty), std::runtime_error);
  std::istringstream one_col("0\n");
  EXPECT_THROW(parse_trace_csv(one_col), std::runtime_error);
  std::istringstream descending("10,0.001\n5,0.002\n");
  EXPECT_THROW(parse_trace_csv(descending), std::runtime_error);
  std::istringstream negative("0,-0.5\n");
  EXPECT_THROW(parse_trace_csv(negative), std::runtime_error);
  std::istringstream mid_garbage("0,0.001\nxx,yy\n");
  EXPECT_THROW(parse_trace_csv(mid_garbage), std::runtime_error);
}

TEST(TraceIo, DuplicateTimestampLastSampleWins) {
  // A logger emitting the same timestamp twice used to create a
  // zero-width segment whose earlier sample was unreachable; the later
  // sample now replaces it outright.
  std::istringstream in("0,0.001\n5,0.002\n5,0.003\n10,0\n");
  const PiecewiseTrace trace = parse_trace_csv(in);
  ASSERT_EQ(trace.segments().size(), 3u);
  EXPECT_DOUBLE_EQ(trace.power_at(2), 0.001);
  EXPECT_DOUBLE_EQ(trace.power_at(5), 0.003);
  EXPECT_DOUBLE_EQ(trace.power_at(7), 0.003);
  EXPECT_DOUBLE_EQ(trace.next_change(5), 10.0);

  // Also collapses a duplicate of the very first sample.
  std::istringstream first("0,0.001\n0,0.004\n8,0\n");
  const PiecewiseTrace t2 = parse_trace_csv(first);
  ASSERT_EQ(t2.segments().size(), 2u);
  EXPECT_DOUBLE_EQ(t2.power_at(1), 0.004);
}

TEST(TraceIo, ToleratesExactlyOneHeaderRow) {
  // One header row is fine (with or without leading comments/blanks)...
  std::istringstream one("# log\n\ntime_s,power_W\n0,0.001\n");
  EXPECT_DOUBLE_EQ(parse_trace_csv(one).power_at(0.5), 0.001);
  // ...but a second non-numeric row before the first sample is a
  // malformed file, not a header, and is reported with its line number.
  std::istringstream two("time_s,power_W\ngarbage,row\n0,0.001\n");
  try {
    parse_trace_csv(two);
    FAIL() << "expected parse failure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(TraceIo, SaveUsesIndexBasedSampleGrid) {
  // `t += interval` accumulated drift over long horizons and could emit
  // or drop the sample nearest `horizon`; the index-based grid pins the
  // count at ceil(horizon / interval) and every timestamp at i*interval.
  const std::string path = ::testing::TempDir() + "diac_trace_grid.csv";
  const ConstantSource src(1e-3);
  save_trace_csv(path, src, 1000.0, 0.1);
  const PiecewiseTrace loaded = load_trace_csv(path);
  ASSERT_EQ(loaded.segments().size(), 10000u);
  EXPECT_DOUBLE_EQ(loaded.segments().front().start, 0.0);
  EXPECT_DOUBLE_EQ(loaded.segments().back().start, 9999 * 0.1);
  for (std::size_t i : {1u, 4321u, 9999u}) {
    EXPECT_DOUBLE_EQ(loaded.segments()[i].start,
                     static_cast<double>(i) * 0.1);
  }
  std::remove(path.c_str());
}

TEST(TraceIo, RoundTripReproducesSourcesOnTheGrid) {
  // save -> load of each paper supply reproduces power_at bit-exactly on
  // the sample grid (samples are written at full double precision).
  const std::string path = ::testing::TempDir() + "diac_trace_grid_rt.csv";
  const double horizon = 400.0, interval = 0.5;
  RfidBurstSource::Options ro;
  ro.horizon = horizon;
  const RfidBurstSource rfid(0xFEED, ro);
  SolarSource::Options so;
  so.horizon = horizon;
  const SolarSource solar(0xFEED, so);
  const PiecewiseTrace fig4 = fig4_trace();
  for (const HarvestSource* src :
       {static_cast<const HarvestSource*>(&rfid),
        static_cast<const HarvestSource*>(&solar),
        static_cast<const HarvestSource*>(&fig4)}) {
    save_trace_csv(path, *src, horizon, interval);
    const PiecewiseTrace loaded = load_trace_csv(path);
    for (int i = 0; i * interval < horizon; ++i) {
      const double t = i * interval;
      EXPECT_DOUBLE_EQ(loaded.power_at(t), src->power_at(t)) << t;
    }
  }
  std::remove(path.c_str());
}

TEST(TraceIo, ReplayedTraceAgreesAcrossSimModes) {
  // A replayed measured trace drives the event integrator and the stepped
  // reference to the same structural outcome — the differential contract
  // extends to traces that came in from disk.
  const std::string path = ::testing::TempDir() + "diac_trace_modes.csv";
  {
    RfidBurstSource::Options ro;
    ro.horizon = 4000.0;
    const RfidBurstSource src(0xD1AC7, ro);
    save_trace_csv(path, src, 4000.0, 0.5);
  }
  const PiecewiseTrace trace = load_trace_csv(path);
  std::remove(path.c_str());

  const Netlist nl = build_benchmark("s344");
  const CellLibrary lib = CellLibrary::nominal_45nm();
  const SynthesisResult sr =
      DiacSynthesizer(nl, lib).synthesize_scheme(Scheme::kDiacOptimized);
  SimulatorOptions options;
  options.target_instances = 3;
  options.max_time = 4000;
  SystemSimulator event(sr.design, trace, FsmConfig{}, options);
  const RunStats e = event.run();
  const RunStats s =
      run_stepped(sr.design, trace, FsmConfig{}, options).stats;

  EXPECT_EQ(e.instances_completed, s.instances_completed);
  EXPECT_EQ(e.workload_completed, s.workload_completed);
  EXPECT_EQ(e.backups, s.backups);
  EXPECT_EQ(e.restores, s.restores);
  EXPECT_EQ(e.deep_outages, s.deep_outages);
  EXPECT_EQ(e.safe_zone_saves, s.safe_zone_saves);
  EXPECT_NEAR(e.energy_consumed, s.energy_consumed,
              0.01 * s.energy_consumed);
  EXPECT_NEAR(e.makespan, s.makespan, 0.01 * s.makespan + 0.01);
}

TEST(TraceIo, SaveLoadRoundTrip) {
  const std::string path = ::testing::TempDir() + "diac_trace_rt.csv";
  const SquareWaveSource src(4e-3, 10.0, 0.5);
  save_trace_csv(path, src, 40.0, 0.5);
  const PiecewiseTrace loaded = load_trace_csv(path);
  // The sampled trace matches the source away from the sampling edges.
  for (double t = 0.3; t < 39; t += 1.0) {
    EXPECT_DOUBLE_EQ(loaded.power_at(t), src.power_at(t - std::fmod(t, 0.5)))
        << t;
  }
  std::remove(path.c_str());
}

TEST(TraceIo, SaveValidatesArguments) {
  const ConstantSource src(1e-3);
  EXPECT_THROW(save_trace_csv("/tmp/x.csv", src, -1, 1), std::invalid_argument);
  EXPECT_THROW(save_trace_csv("/tmp/x.csv", src, 1, 0), std::invalid_argument);
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(load_trace_csv("/nonexistent/trace.csv"), std::runtime_error);
}

TEST(TraceIo, LoadedTraceDrivesSimulator) {
  // End-to-end: a loaded trace is a first-class harvest source.
  const std::string path = ::testing::TempDir() + "diac_trace_sim.csv";
  {
    const ConstantSource src(6e-3);
    save_trace_csv(path, src, 500.0, 1.0);
  }
  const PiecewiseTrace trace = load_trace_csv(path);
  EXPECT_DOUBLE_EQ(trace.power_at(100), 6e-3);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace diac
