// Trace libraries and trace-library sweeps: directory enumeration, the
// load-once/share-read-only contract, `trace:<path>` scenarios, and the
// determinism of replay sweeps across thread counts.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "exp/experiment.hpp"
#include "exp/runner.hpp"
#include "exp/trace_library.hpp"
#include "metrics/trace_sweep.hpp"
#include "netlist/suite.hpp"
#include "power/trace_io.hpp"

namespace diac {
namespace {

namespace fs = std::filesystem;

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::nominal_45nm();
  return l;
}

// Creates a fresh directory of `n` seeded RFID-style trace CSVs and
// returns its path.
std::string make_library_dir(const std::string& name, int n,
                             double horizon = 2500.0) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  RfidBurstSource::Options options;
  options.horizon = horizon;
  for (int i = 0; i < n; ++i) {
    char file[32];
    std::snprintf(file, sizeof(file), "node_%02d.csv", i);
    const RfidBurstSource src(0xACE0 + i, options);
    save_trace_csv((dir / file).string(), src, horizon, 0.5);
  }
  return dir.string();
}

TEST(TraceLibrary, ListsCsvFilesSorted) {
  const fs::path dir = fs::path(::testing::TempDir()) / "diac_lib_list";
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const char* name : {"b.csv", "a.csv", "notes.txt", "c.csv"}) {
    std::ofstream(dir / name) << "0,0.001\n";
  }
  const std::vector<std::string> files = list_trace_files(dir.string());
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(fs::path(files[0]).filename(), "a.csv");
  EXPECT_EQ(fs::path(files[1]).filename(), "b.csv");
  EXPECT_EQ(fs::path(files[2]).filename(), "c.csv");
  fs::remove_all(dir);
}

TEST(TraceLibrary, RejectsMissingOrEmptyDirectories) {
  EXPECT_THROW(list_trace_files("/nonexistent/traces"), std::runtime_error);
  const fs::path dir = fs::path(::testing::TempDir()) / "diac_lib_empty";
  fs::remove_all(dir);
  fs::create_directories(dir);
  EXPECT_THROW(load_trace_library(dir.string()), std::runtime_error);
  fs::remove_all(dir);
}

TEST(TraceLibrary, ParseErrorsNameTheFile) {
  const fs::path dir = fs::path(::testing::TempDir()) / "diac_lib_bad";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::ofstream(dir / "broken.csv") << "0,0.001\nxx,yy\n";
  try {
    load_trace_library(dir.string());
    FAIL() << "expected load failure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("broken.csv"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
  fs::remove_all(dir);
}

TEST(TraceLibrary, LoadsEachTraceOnceAndShares) {
  const std::string dir = make_library_dir("diac_lib_share", 3, 500.0);
  const TraceLibrary library = load_trace_library(dir);
  ASSERT_EQ(library.entries.size(), 3u);
  for (const TraceLibrary::Entry& entry : library.entries) {
    EXPECT_EQ(entry.scenario.kind, SourceKind::kTrace);
    ASSERT_NE(entry.scenario.trace, nullptr);
    EXPECT_EQ(entry.scenario.trace_path, entry.path);
    // Copying the spec (what every SimulationJob does) shares the loaded
    // trace instead of re-reading the file.
    const ScenarioSpec copy = entry.scenario;
    EXPECT_EQ(copy.trace.get(), entry.scenario.trace.get());
  }
  EXPECT_EQ(library.entries[0].name, "node_00");
  fs::remove_all(dir);
}

TEST(TraceLibrary, RunnerLoadEqualsSerialLoad) {
  const std::string dir = make_library_dir("diac_lib_runner", 9, 400.0);
  const TraceLibrary serial = load_trace_library(dir);
  for (const int threads : {1, 4}) {
    ExperimentRunner runner(threads);
    const TraceLibrary fanned = load_trace_library(dir, runner);
    ASSERT_EQ(fanned.entries.size(), serial.entries.size()) << threads;
    for (std::size_t i = 0; i < serial.entries.size(); ++i) {
      const TraceLibrary::Entry& a = serial.entries[i];
      const TraceLibrary::Entry& b = fanned.entries[i];
      EXPECT_EQ(b.name, a.name);
      EXPECT_EQ(b.path, a.path);
      EXPECT_EQ(b.scenario.kind, SourceKind::kTrace);
      EXPECT_EQ(b.scenario.trace_path, a.scenario.trace_path);
      const auto& sa = a.scenario.trace->segments();
      const auto& sb = b.scenario.trace->segments();
      ASSERT_EQ(sb.size(), sa.size()) << a.name;
      for (std::size_t k = 0; k < sa.size(); ++k) {
        ASSERT_EQ(sb[k].start, sa[k].start) << a.name << " " << k;
        ASSERT_EQ(sb[k].power, sa[k].power) << a.name << " " << k;
      }
    }
  }
  fs::remove_all(dir);
}

TEST(TraceLibrary, RunnerLoadReportsTheFirstBadFileInOrder) {
  // Several broken files: the error names the first in sorted order at
  // any thread count, as the serial load does.
  const std::string dir = make_library_dir("diac_lib_runner_bad", 6, 100.0);
  for (const char* name : {"node_02.csv", "node_04.csv", "node_05.csv"}) {
    std::ofstream(fs::path(dir) / name) << "0,0.001\n1,nan\n";
  }
  for (const int threads : {1, 4}) {
    ExperimentRunner runner(threads);
    try {
      load_trace_library(dir, runner);
      FAIL() << "expected load failure";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("node_02.csv"), std::string::npos) << what;
      EXPECT_NE(what.find("line 2: non-finite"), std::string::npos) << what;
    }
  }
  fs::remove_all(dir);
}

TEST(TraceLibrary, TraceScenarioIsPreloadedNotReadPerJob) {
  const std::string dir = make_library_dir("diac_lib_preload", 1, 300.0);
  const std::string path = list_trace_files(dir)[0];
  const ScenarioSpec spec = scenario_from_name("trace:" + path);
  EXPECT_EQ(spec.kind, SourceKind::kTrace);
  ASSERT_NE(spec.trace, nullptr);
  const double reference = spec.trace->power_at(10.0);
  // Deleting the file proves make_source serves jobs from the shared
  // in-memory trace — materializing never goes back to disk.
  fs::remove_all(dir);
  const auto source = make_source(spec);
  EXPECT_DOUBLE_EQ(source->power_at(10.0), reference);
  EXPECT_DOUBLE_EQ(source->next_change(0.25), spec.trace->next_change(0.25));
}

TEST(TraceLibrary, ScenarioNameErrorsMentionTrace) {
  EXPECT_THROW(scenario_from_name("trace:"), std::invalid_argument);
  EXPECT_THROW(scenario_from_name("wind"), std::invalid_argument);
  EXPECT_FALSE(is_seeded(SourceKind::kTrace));
  EXPECT_STREQ(to_string(SourceKind::kTrace), "trace");
}

void expect_identical(const RunStats& a, const RunStats& b) {
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.energy_consumed, b.energy_consumed);
  EXPECT_DOUBLE_EQ(a.energy_harvested, b.energy_harvested);
  EXPECT_EQ(a.instances_completed, b.instances_completed);
  EXPECT_EQ(a.backups, b.backups);
  EXPECT_EQ(a.restores, b.restores);
  EXPECT_EQ(a.safe_zone_saves, b.safe_zone_saves);
  EXPECT_EQ(a.deep_outages, b.deep_outages);
  EXPECT_EQ(a.nvm_writes, b.nvm_writes);
  EXPECT_EQ(a.nvm_bits_written, b.nvm_bits_written);
  EXPECT_EQ(a.tasks_executed, b.tasks_executed);
  EXPECT_EQ(a.tasks_reexecuted, b.tasks_reexecuted);
}

TEST(TraceSweep, BitIdenticalAcrossThreadCounts) {
  const std::string dir = make_library_dir("diac_lib_sweep", 12);
  const TraceLibrary library = load_trace_library(dir);
  const Netlist nl = build_benchmark("s344");
  EvaluationOptions opt;
  opt.simulator.target_instances = 2;
  opt.simulator.max_time = 2500;
  ExperimentRunner serial(1);
  ExperimentRunner parallel(8);
  const std::vector<BenchmarkResult> a =
      evaluate_trace_library(nl, lib(), opt, library, serial);
  const std::vector<BenchmarkResult> b =
      evaluate_trace_library(nl, lib(), opt, library, parallel);
  ASSERT_EQ(a.size(), library.entries.size());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, library.entries[i].name);
    EXPECT_EQ(a[i].name, b[i].name);
    for (Scheme s : kAllSchemes) {
      expect_identical(a[i].of(s), b[i].of(s));
    }
  }
  fs::remove_all(dir);
}

TEST(TraceSweep, ReplayStopsAtTheLastLoggedSample) {
  // A trace extrapolates its final power level forever; the sweep must
  // cap each replay at the measurement's end rather than simulating up
  // to max_time (50000 s by default) on fabricated supply.
  const fs::path dir = fs::path(::testing::TempDir()) / "diac_lib_clamp";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const ConstantSource powered(6e-3);  // still powered at the last sample
  save_trace_csv((dir / "short.csv").string(), powered, 300.0, 0.5);
  const TraceLibrary library = load_trace_library(dir.string());
  const Netlist nl = build_benchmark("s27");
  EvaluationOptions opt;
  opt.simulator.target_instances = 1000000;  // can't finish in 300 s
  ExperimentRunner serial(1);
  const std::vector<BenchmarkResult> results =
      evaluate_trace_library(nl, lib(), opt, library, serial);
  for (Scheme s : kAllSchemes) {
    EXPECT_LE(results[0].of(s).makespan, 299.5 + 1e-9);
    EXPECT_GT(results[0].of(s).makespan, 250.0);
  }
  fs::remove_all(dir);
}

TEST(TraceSweep, ClampToMeasurementHandlesEdges) {
  // A single sample at t=0 has no measured duration — replaying it would
  // be 100% extrapolation, so the clamp rejects it outright...
  const ScenarioSpec degenerate = trace_scenario(
      "degenerate.csv", std::make_shared<const PiecewiseTrace>(
                            std::vector<PiecewiseTrace::Segment>{{0, 1e-3}}));
  EXPECT_THROW(clamp_to_measurement(SimulatorOptions{}, degenerate),
               std::invalid_argument);
  // ...while non-trace scenarios pass through untouched.
  SimulatorOptions so;
  so.max_time = 123.0;
  EXPECT_DOUBLE_EQ(clamp_to_measurement(so, ScenarioSpec{}).max_time, 123.0);
}

TEST(TraceSweep, RejectsEmptyAndUnloadedLibraries) {
  const Netlist nl = build_benchmark("s27");
  EvaluationOptions opt;
  ExperimentRunner serial(1);
  TraceLibrary empty;
  EXPECT_THROW(evaluate_trace_library(nl, lib(), opt, empty, serial),
               std::invalid_argument);
  TraceLibrary unloaded;
  unloaded.entries.push_back({"ghost", "ghost.csv", ScenarioSpec{}});
  EXPECT_THROW(evaluate_trace_library(nl, lib(), opt, unloaded, serial),
               std::invalid_argument);
}

}  // namespace
}  // namespace diac
