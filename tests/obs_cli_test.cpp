// End-to-end observability through the real `diac` binary (path injected
// by CMake as DIAC_CLI_PATH): `--trace-out` must yield one merged
// Chrome-format trace with spans from every shard worker, `--metrics-out`
// counters must be bit-identical across `--threads` counts, and the
// side-channel contract — stdout and `--csv` stay byte-identical with the
// obs flags on or off — must hold.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "obs/json.hpp"
#include "power/trace_io.hpp"

#ifndef DIAC_CLI_PATH
#error "DIAC_CLI_PATH must point at the diac CLI binary"
#endif

namespace diac {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

struct CliRun {
  int exit_code = -1;
  std::string out;
};

// Runs `diac <args>`, capturing stdout exactly (stderr carries the obs
// "wrote merged trace" notes and is deliberately not part of the
// byte-identity contract).
CliRun run_cli(const std::string& args, const std::string& tag) {
  const fs::path out = fs::path(::testing::TempDir()) / (tag + ".out");
  const std::string cmd = std::string(DIAC_CLI_PATH) + " " + args + " > " +
                          out.string() + " 2> " + out.string() + ".err";
  const int status = std::system(cmd.c_str());
  CliRun run;
  run.exit_code = status;
  run.out = slurp(out);
  return run;
}

fs::path temp_file(const std::string& name) {
  const fs::path path = fs::path(::testing::TempDir()) / name;
  fs::remove(path);
  return path;
}

// The --metrics-out counters of `args` at --threads n.
std::string counters_at_threads(const std::string& args, int n) {
  const std::string tag = "obscli_threads_" + std::to_string(n);
  const fs::path metrics = temp_file(tag + ".json");
  const CliRun run = run_cli(args + " --threads " + std::to_string(n) +
                                 " --metrics-out " + metrics.string(),
                             tag);
  if (run.exit_code != 0) return "<exit " + std::to_string(run.exit_code) + ">";
  const obs::JsonValue doc = obs::parse_json(slurp(metrics));
  const obs::JsonValue* counters = doc.find("counters");
  if (counters == nullptr) return "<missing>";
  std::ostringstream out;
  obs::write_json(out, *counters);
  return out.str();
}

// Serializes one member subtree compactly so two exports can be compared
// bit-for-bit.
std::string subtree(const obs::JsonValue& doc, const std::string& key) {
  const obs::JsonValue* v = doc.find(key);
  if (v == nullptr) return "<missing>";
  std::ostringstream out;
  obs::write_json(out, *v);
  return out.str();
}

TEST(ObsCli, ShardedTraceMergesSpansFromEveryWorker) {
  const fs::path trace = temp_file("obscli_trace.json");
  const fs::path metrics = temp_file("obscli_metrics.json");
  const CliRun run =
      run_cli("mc s344 --runs 6 --instances 4 --shards 3 --trace-out " +
                  trace.string() + " --metrics-out " + metrics.string(),
              "obscli_sharded");
  ASSERT_EQ(run.exit_code, 0) << run.out;

  const obs::JsonValue doc = obs::parse_json(slurp(trace));
  EXPECT_EQ(doc.find("diac_trace_version")->as_u64(), 1u);
  ASSERT_NE(doc.find("build"), nullptr);
  const obs::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);

  std::set<std::uint64_t> span_pids;
  for (const obs::JsonValue& ev : events->items) {
    const obs::JsonValue* ph = ev.find("ph");
    const obs::JsonValue* ts = ev.find("ts");
    if (ph != nullptr && ph->text == "X") {
      span_pids.insert(ev.find("pid")->as_u64());
      ASSERT_NE(ts, nullptr);
      EXPECT_GE(ts->number, 0.0);  // merged timeline is re-based to t=0
    }
  }
  const obs::JsonValue m = obs::parse_json(slurp(metrics));
  EXPECT_EQ(m.find("shards_merged")->as_u64(), 3u);
#if defined(DIAC_OBS_DISABLED)
  // Instrumentation compiled out (-DDIAC_OBS=OFF): both documents are
  // still valid, just empty of spans and counters.
  EXPECT_TRUE(span_pids.empty());
#else
  // Workers are pids 0..2; the coordinator's own spans land on pid 3.
  EXPECT_EQ(span_pids, (std::set<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_GE(m.find("counters")->find("sim.runs")->as_u64(), 6u);
  EXPECT_EQ(m.find("counters")->find("shard.workers")->as_u64(), 3u);
#endif
}

TEST(ObsCli, CountersAreBitIdenticalAcrossThreadCounts) {
  const fs::path m1 = temp_file("obscli_m_t1.json");
  const fs::path m8 = temp_file("obscli_m_t8.json");
  const std::string base = "mc s344 --runs 8 --instances 4";
  ASSERT_EQ(run_cli(base + " --threads 1 --metrics-out " + m1.string(),
                    "obscli_t1")
                .exit_code,
            0);
  ASSERT_EQ(run_cli(base + " --threads 8 --metrics-out " + m8.string(),
                    "obscli_t8")
                .exit_code,
            0);
  const obs::JsonValue d1 = obs::parse_json(slurp(m1));
  const obs::JsonValue d8 = obs::parse_json(slurp(m8));
  // Integer counter updates are associative, so every counter — sim
  // events, kernel steps, runner jobs — is invariant to the thread
  // count.  (Gauges like runner.threads legitimately differ.)
  EXPECT_EQ(subtree(d1, "counters"), subtree(d8, "counters"));
  EXPECT_NE(subtree(d1, "counters"), "<missing>");
}

TEST(ObsCli, StripedCountersMatchAcrossThreadCountsOnS1238) {
  // The simulation counters of a real sweep (per-thread striped cells,
  // summed on export) are the same totals at 1, 2 and 4 threads.
  const std::string args = "mc s1238 --runs 64";
  const std::string one = counters_at_threads(args, 1);
  ASSERT_EQ(one.find('<'), std::string::npos) << one;
  EXPECT_EQ(counters_at_threads(args, 2), one);
  EXPECT_EQ(counters_at_threads(args, 4), one);
#if !defined(DIAC_OBS_DISABLED)
  EXPECT_NE(one.find("\"sim.loop_iterations\""), std::string::npos) << one;
#endif
}

TEST(ObsCli, StdoutIsByteIdenticalWithAndWithoutObsFlags) {
  const std::string base = "mc s344 --runs 6 --instances 4 --threads 2";
  const CliRun plain = run_cli(base, "obscli_plain");
  ASSERT_EQ(plain.exit_code, 0);
  const fs::path trace = temp_file("obscli_id_trace.json");
  const fs::path metrics = temp_file("obscli_id_metrics.json");
  const CliRun instrumented =
      run_cli(base + " --trace-out " + trace.string() + " --metrics-out " +
                  metrics.string(),
              "obscli_instrumented");
  ASSERT_EQ(instrumented.exit_code, 0);
  EXPECT_FALSE(plain.out.empty());
  EXPECT_EQ(plain.out, instrumented.out)
      << "obs flags must not perturb the report";
}

TEST(ObsCli, CsvIsByteIdenticalWithAndWithoutObsFlags) {
  const fs::path csv_plain = temp_file("obscli_plain.csv");
  const fs::path csv_obs = temp_file("obscli_obs.csv");
  const std::string base =
      "search s344 --random 6 --instances 4 --max-time 8000 --threads 2";
  ASSERT_EQ(
      run_cli(base + " --csv " + csv_plain.string(), "obscli_csvp").exit_code,
      0);
  const fs::path trace = temp_file("obscli_csv_trace.json");
  ASSERT_EQ(run_cli(base + " --csv " + csv_obs.string() + " --trace-out " +
                        trace.string(),
                    "obscli_csvo")
                .exit_code,
            0);
  const std::string a = slurp(csv_plain);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, slurp(csv_obs));
}

TEST(ObsCli, VersionPrintsBuildInfo) {
  const CliRun version = run_cli("version", "obscli_version");
  ASSERT_EQ(version.exit_code, 0);
  EXPECT_NE(version.out.find("diac version "), std::string::npos);
  EXPECT_NE(version.out.find("compiler:"), std::string::npos);
  EXPECT_NE(version.out.find("obs:"), std::string::npos);
  const CliRun flag = run_cli("--version", "obscli_version_flag");
  ASSERT_EQ(flag.exit_code, 0);
  EXPECT_EQ(flag.out, version.out);
}

TEST(ObsCli, StatsRendersMetricsFile) {
  const fs::path metrics = temp_file("obscli_stats.json");
  ASSERT_EQ(run_cli("mc s344 --runs 4 --instances 4 --metrics-out " +
                        metrics.string(),
                    "obscli_stats_mc")
                .exit_code,
            0);
  const CliRun stats =
      run_cli("stats " + metrics.string(), "obscli_stats_render");
  ASSERT_EQ(stats.exit_code, 0);
  EXPECT_NE(stats.out.find("command: mc"), std::string::npos);
#if !defined(DIAC_OBS_DISABLED)
  EXPECT_NE(stats.out.find("counters:"), std::string::npos);
  EXPECT_NE(stats.out.find("sim.runs"), std::string::npos);
#endif
}

TEST(ObsCli, SweepsBuildEachTreeOncePerPolicy) {
  // mc derives its four schemes from one policy tree; the search grid's
  // 36 designs share one initial tree and one policy tree per policy.
  const fs::path mc = temp_file("obscli_stages_mc.json");
  const fs::path search = temp_file("obscli_stages_search.json");
  ASSERT_EQ(run_cli("mc s344 --runs 4 --instances 4 --metrics-out " +
                        mc.string(),
                    "obscli_stages_mc")
                .exit_code,
            0);
  ASSERT_EQ(run_cli("search s344 --instances 4 --max-time 8000 "
                    "--metrics-out " +
                        search.string(),
                    "obscli_stages_search")
                .exit_code,
            0);
#if !defined(DIAC_OBS_DISABLED)
  const obs::JsonValue m = obs::parse_json(slurp(mc));
  const obs::JsonValue* mc_counters = m.find("counters");
  EXPECT_EQ(mc_counters->find("synth.tree_builds")->as_u64(), 1u);
  EXPECT_EQ(mc_counters->find("synth.policy_trees")->as_u64(), 1u);
  EXPECT_EQ(mc_counters->find("synth.runs")->as_u64(), 4u);
  const obs::JsonValue s = obs::parse_json(slurp(search));
  const obs::JsonValue* search_counters = s.find("counters");
  EXPECT_EQ(search_counters->find("synth.tree_builds")->as_u64(), 1u);
  EXPECT_EQ(search_counters->find("synth.policy_trees")->as_u64(), 3u);
  EXPECT_EQ(search_counters->find("synth.runs")->as_u64(), 36u);
#endif
}

TEST(ObsCli, SearchSimulatesSensingTwinsOnce) {
  // The default b14 grid has 72 candidates over 36 designs; 27 twin
  // pairs' witnesses stay clear, so 45 simulations cover all 72, at any
  // thread count.
  for (const int threads : {1, 2, 4}) {
    const std::string name = "obscli_twins_" + std::to_string(threads);
    const fs::path metrics = temp_file(name + ".json");
    ASSERT_EQ(run_cli("search b14 --threads " + std::to_string(threads) +
                          " --metrics-out " + metrics.string(),
                      name)
                  .exit_code,
              0);
#if !defined(DIAC_OBS_DISABLED)
    const obs::JsonValue m = obs::parse_json(slurp(metrics));
    const obs::JsonValue* counters = m.find("counters");
    EXPECT_EQ(counters->find("search.evaluated")->as_u64(), 72u) << threads;
    EXPECT_EQ(counters->find("search.simulations")->as_u64(), 45u)
        << threads;
    EXPECT_EQ(counters->find("search.shared")->as_u64(), 27u) << threads;
    EXPECT_EQ(counters->find("sim.runs")->as_u64(), 45u) << threads;
#endif
  }
}

TEST(ObsCli, SupplyCountersAndLibraryLoadSpan) {
  // power.trace_rows counts the sample rows replay parsed,
  // power.source_segments the RFID segments mc's cursors generated, and
  // the library load is one trace_library.load span.
  const fs::path dir = fs::path(::testing::TempDir()) / "obscli_supply_lib";
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (int i = 0; i < 3; ++i) {
    const ConstantSource source(2e-3 * (i + 1));
    save_trace_csv((dir / ("t" + std::to_string(i) + ".csv")).string(),
                   source, 600.0, 2.0);  // 300 rows each
  }
  const fs::path replay_metrics = temp_file("obscli_supply_replay.json");
  const fs::path replay_trace = temp_file("obscli_supply_trace.json");
  ASSERT_EQ(run_cli("replay s344 --trace " + dir.string() +
                        " --instances 2 --metrics-out " +
                        replay_metrics.string() + " --trace-out " +
                        replay_trace.string(),
                    "obscli_supply_replay")
                .exit_code,
            0);
  const fs::path mc_metrics = temp_file("obscli_supply_mc.json");
  ASSERT_EQ(run_cli("mc s344 --runs 4 --instances 3 --metrics-out " +
                        mc_metrics.string(),
                    "obscli_supply_mc")
                .exit_code,
            0);
  fs::remove_all(dir);
#if !defined(DIAC_OBS_DISABLED)
  const obs::JsonValue r = obs::parse_json(slurp(replay_metrics));
  EXPECT_EQ(r.find("counters")->find("power.trace_rows")->as_u64(), 900u);
  std::size_t load_spans = 0;
  const obs::JsonValue t = obs::parse_json(slurp(replay_trace));
  for (const obs::JsonValue& ev : t.find("traceEvents")->items) {
    const obs::JsonValue* name = ev.find("name");
    if (name != nullptr && name->text == "trace_library.load") ++load_spans;
  }
  EXPECT_EQ(load_spans, 1u);
  // 16 runs each read a short prefix of their 50 000 s supply: far
  // fewer segments than materializing the sources would build.
  const obs::JsonValue m = obs::parse_json(slurp(mc_metrics));
  const std::uint64_t segments =
      m.find("counters")->find("power.source_segments")->as_u64();
  EXPECT_GT(segments, 16u);
  EXPECT_LT(segments, 16u * 1000u);
#endif
}

// Names of one --trace-out file's spans that start with `prefix`, with
// their counts.  Only read when the instrumentation is compiled in.
[[maybe_unused]] std::map<std::string, int> span_counts(
    const fs::path& trace, const std::string& prefix = "netlist.") {
  std::map<std::string, int> counts;
  const obs::JsonValue t = obs::parse_json(slurp(trace));
  for (const obs::JsonValue& ev : t.find("traceEvents")->items) {
    const obs::JsonValue* name = ev.find("name");
    if (name != nullptr && name->text.rfind(prefix, 0) == 0) {
      ++counts[name->text];
    }
  }
  return counts;
}

TEST(ObsCli, SweepsSpanOneMergeAndOneReport) {
  // Every sweep ends in one merge and one report, whichever transport
  // produced the rows; with --shards the coordinator records both.
  const fs::path dir = fs::path(::testing::TempDir()) / "obscli_sweep_lib";
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (int i = 0; i < 2; ++i) {
    const ConstantSource source(2e-3 * (i + 1));
    save_trace_csv((dir / ("t" + std::to_string(i) + ".csv")).string(),
                   source, 600.0, 2.0);
  }
  const std::string sweeps[] = {
      "mc s344 --runs 4 --instances 3",
      "replay s344 --trace " + dir.string() + " --instances 2",
      "search s344 --random 4 --instances 3 --max-time 8000"};
  for (const std::string& sweep : sweeps) {
    for (const char* transport : {"--threads 1", "--shards 2"}) {
      const fs::path trace = temp_file("obscli_sweep_spans.json");
      const CliRun run = run_cli(sweep + " " + transport + " --trace-out " +
                                     trace.string(),
                                 "obscli_sweep_spans");
      ASSERT_EQ(run.exit_code, 0) << sweep << " " << transport;
#if !defined(DIAC_OBS_DISABLED)
      EXPECT_EQ(span_counts(trace, "sweep."),
                (std::map<std::string, int>{{"sweep.merge", 1},
                                            {"sweep.report", 1}}))
          << sweep << " " << transport;
#endif
    }
  }
  fs::remove_all(dir);
}

TEST(ObsCli, NetlistLoadSplitsIntoGenerateOrParseAndOneValidate) {
  // A "Logic" suite circuit is generated and sealed once (one grown from
  // a kernel also shows the small kernel's seal); a .bench file is
  // parsed (sealed once) and then cleaned up (sealed once more).
  const fs::path suite_trace = temp_file("obscli_load_suite.json");
  ASSERT_EQ(run_cli("stats s27 --trace-out " + suite_trace.string(),
                    "obscli_load_suite")
                .exit_code,
            0);
  const fs::path bench = temp_file("obscli_load.bench");
  std::ofstream(bench) << "INPUT(a)\nINPUT(b)\nOUTPUT(z)\n"
                          "z = NAND(y, a)\ny = AND(a, b)\n";
  const fs::path file_trace = temp_file("obscli_load_file.json");
  ASSERT_EQ(run_cli("stats " + bench.string() + " --trace-out " +
                        file_trace.string(),
                    "obscli_load_file")
                .exit_code,
            0);
#if !defined(DIAC_OBS_DISABLED)
  EXPECT_EQ(span_counts(suite_trace),
            (std::map<std::string, int>{{"netlist.generate", 1},
                                        {"netlist.load", 1},
                                        {"netlist.validate", 1}}));
  EXPECT_EQ(span_counts(file_trace),
            (std::map<std::string, int>{{"netlist.load", 1},
                                        {"netlist.parse", 1},
                                        {"netlist.validate", 2}}));
#endif
}

TEST(ObsCli, ShardWorkerStderrLinesArePrefixed) {
  // Worker failure diagnostics must arrive line-buffered and tagged with
  // the shard index.  With one trace over two workers only the owning
  // worker errors, so exactly that worker's line must carry the tag.
  const fs::path err_capture =
      fs::path(::testing::TempDir()) / "obscli_prefix.out.err";
  const CliRun run = run_cli(
      "replay s344 --trace /nonexistent_diac_traces --shards 2",
      "obscli_prefix");
  EXPECT_NE(run.exit_code, 0);
  const std::string err_text = slurp(err_capture);
  EXPECT_NE(err_text.find("[shard 1/2] error:"), std::string::npos)
      << err_text;
}

}  // namespace
}  // namespace diac
