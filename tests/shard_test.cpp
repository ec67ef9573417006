// The shard subsystem: plan partitioning, exact-double serialization,
// shard-file framing, row/merge bit-identity against the in-process
// sweeps for every shard count, and coordinator failure propagation
// (failing workers, missing result files, corrupt rows).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "metrics/montecarlo.hpp"
#include "metrics/trace_sweep.hpp"
#include "netlist/suite.hpp"
#include "power/trace_io.hpp"
#include "shard/codec.hpp"
#include "shard/coordinator.hpp"
#include "shard/merge.hpp"
#include "shard/plan.hpp"
#include "shard/worker.hpp"

namespace diac {
namespace {

namespace fs = std::filesystem;

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::nominal_45nm();
  return l;
}

const Netlist& s344() {
  static const Netlist nl = build_benchmark("s344");
  return nl;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Field-wise bit comparison (memcmp would read padding bytes).
void expect_same_stats(const RunStats& a, const RunStats& b) {
  EXPECT_TRUE(same_bits(a.makespan, b.makespan));
  EXPECT_EQ(a.instances_completed, b.instances_completed);
  EXPECT_EQ(a.workload_completed, b.workload_completed);
  EXPECT_TRUE(same_bits(a.energy_consumed, b.energy_consumed));
  EXPECT_TRUE(same_bits(a.energy_harvested, b.energy_harvested));
  EXPECT_TRUE(same_bits(a.energy_wasted, b.energy_wasted));
  EXPECT_TRUE(same_bits(a.reexec_energy, b.reexec_energy));
  EXPECT_EQ(a.backups, b.backups);
  EXPECT_EQ(a.restores, b.restores);
  EXPECT_EQ(a.safe_zone_saves, b.safe_zone_saves);
  EXPECT_EQ(a.deep_outages, b.deep_outages);
  EXPECT_EQ(a.power_interrupts, b.power_interrupts);
  EXPECT_EQ(a.nvm_writes, b.nvm_writes);
  EXPECT_EQ(a.nvm_boundary_writes, b.nvm_boundary_writes);
  EXPECT_EQ(a.nvm_bits_written, b.nvm_bits_written);
  EXPECT_EQ(a.tasks_executed, b.tasks_executed);
  EXPECT_EQ(a.tasks_reexecuted, b.tasks_reexecuted);
  EXPECT_EQ(a.task_aborts, b.task_aborts);
  EXPECT_TRUE(same_bits(a.time_active, b.time_active));
  EXPECT_TRUE(same_bits(a.time_sleep, b.time_sleep));
  EXPECT_TRUE(same_bits(a.time_off, b.time_off));
  EXPECT_TRUE(same_bits(a.time_backup, b.time_backup));
}

// ---------------------------------------------------------------------------
// ShardPlan.
// ---------------------------------------------------------------------------

TEST(ShardPlan, PartitionsCoverEveryJobExactlyOnce) {
  for (std::size_t jobs : {0u, 1u, 5u, 7u, 32u, 100u}) {
    for (std::size_t shards : {1u, 2u, 3u, 4u, 8u, 13u}) {
      std::vector<int> owners(jobs, 0);
      std::size_t total = 0;
      for (std::size_t i = 0; i < shards; ++i) {
        const ShardPlan plan{shards, i};
        plan.validate();
        EXPECT_EQ(plan.count(jobs), plan.end(jobs) - plan.begin(jobs));
        total += plan.count(jobs);
        for (std::size_t j = plan.begin(jobs); j < plan.end(jobs); ++j) {
          ASSERT_LT(j, jobs);
          ++owners[j];
          EXPECT_TRUE(plan.owns(j, jobs));
        }
      }
      EXPECT_EQ(total, jobs);
      for (std::size_t j = 0; j < jobs; ++j) EXPECT_EQ(owners[j], 1);
    }
  }
}

TEST(ShardPlan, BlocksAreContiguousAndBalanced) {
  const std::size_t jobs = 10;
  std::size_t previous_end = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const ShardPlan plan{4, i};
    EXPECT_EQ(plan.begin(jobs), previous_end);  // contiguous, in order
    previous_end = plan.end(jobs);
    EXPECT_GE(plan.count(jobs), jobs / 4);      // balanced to within one
    EXPECT_LE(plan.count(jobs), jobs / 4 + 1);
  }
  EXPECT_EQ(previous_end, jobs);
}

TEST(ShardPlan, ValidateRejectsBadAddressing) {
  EXPECT_THROW((ShardPlan{0, 0}).validate(), std::invalid_argument);
  EXPECT_THROW((ShardPlan{2, 2}).validate(), std::invalid_argument);
  EXPECT_THROW((ShardPlan{2, 5}).validate(), std::invalid_argument);
  EXPECT_NO_THROW((ShardPlan{2, 1}).validate());
}

// ---------------------------------------------------------------------------
// Exact-double codec.
// ---------------------------------------------------------------------------

TEST(ShardCodec, DoubleRoundTripIsBitExact) {
  const double cases[] = {0.0,
                          -0.0,
                          1.0,
                          -1.0,
                          1.0 / 3.0,
                          3.141592653589793,
                          6.02e23,
                          -2.5e-7,
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::min(),
                          std::numeric_limits<double>::denorm_min(),
                          -std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::epsilon(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          4503599627370497.0,  // 2^52 + 1: needs full mantissa
                          0x1.fffffffffffffp+1023};
  for (double v : cases) {
    const std::string token = encode_double(v);
    EXPECT_TRUE(same_bits(decode_double(token), v))
        << "token '" << token << "' for " << v;
    EXPECT_EQ(token.find(' '), std::string::npos) << token;
  }
}

TEST(ShardCodec, NanRoundTripsAsNan) {
  const std::string token =
      encode_double(std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(std::isnan(decode_double(token)));
}

TEST(ShardCodec, DecodeRejectsGarbage) {
  EXPECT_THROW(decode_double(""), std::invalid_argument);
  EXPECT_THROW(decode_double("1.5x"), std::invalid_argument);
  EXPECT_THROW(decode_double("hello"), std::invalid_argument);
}

TEST(ShardCodec, RunStatsRoundTripsExactly) {
  RunStats s;
  s.makespan = 1234.5678901234567;
  s.instances_completed = 7;
  s.workload_completed = true;
  s.energy_consumed = 1.0 / 3.0;
  s.energy_harvested = 2.0e-3;
  s.energy_wasted = -0.0;
  s.reexec_energy = 5.5e-9;
  s.backups = 3;
  s.restores = 2;
  s.safe_zone_saves = 11;
  s.deep_outages = 1;
  s.power_interrupts = 9;
  s.nvm_writes = 42;
  s.nvm_boundary_writes = 17;
  s.nvm_bits_written = 123456789012345LL;
  s.tasks_executed = 88;
  s.tasks_reexecuted = 4;
  s.task_aborts = 2;
  s.time_active = 0.1;
  s.time_sleep = 0.2;
  s.time_off = 0.3;
  s.time_backup = 0.4;

  std::vector<std::string> tokens;
  append_run_stats(tokens, s);
  ASSERT_EQ(tokens.size(), kRunStatsTokenCount);
  std::size_t cursor = 0;
  const RunStats back = parse_run_stats(tokens, cursor);
  EXPECT_EQ(cursor, kRunStatsTokenCount);
  expect_same_stats(back, s);
}

// ---------------------------------------------------------------------------
// Shard file framing.
// ---------------------------------------------------------------------------

std::string write_temp(const std::string& name, const std::string& content) {
  const fs::path path = fs::path(::testing::TempDir()) / name;
  std::ofstream out(path);
  out << content;
  return path.string();
}

TEST(ShardFile, RoundTripsHeaderRowsTrailer) {
  std::ostringstream out;
  write_shard_header(out, {kShardFormatVersion, "mc", 4, 2, 32});
  write_shard_row(out, 16, {"a", "b"});
  write_shard_row(out, 17, {});
  write_shard_trailer(out, 2);
  const std::string path = write_temp("shard_ok.rows", out.str());

  const ShardFile file = read_shard_file(path);
  EXPECT_EQ(file.header.kind, "mc");
  EXPECT_EQ(file.header.shards, 4u);
  EXPECT_EQ(file.header.index, 2u);
  EXPECT_EQ(file.header.jobs, 32u);
  ASSERT_EQ(file.rows.size(), 2u);
  EXPECT_EQ(file.rows[0].job, 16u);
  EXPECT_EQ(file.rows[0].tokens, (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(file.rows[1].tokens.empty());
}

TEST(ShardFile, RejectsTruncationAndForeignInput) {
  // A worker killed mid-write leaves no trailer.
  const std::string truncated =
      write_temp("shard_trunc.rows", "diac-shard 2 mc 2 0 8\nrow 0 x\n");
  EXPECT_THROW(read_shard_file(truncated), std::runtime_error);
  // Trailer count must match the rows present.
  const std::string short_count = write_temp(
      "shard_short.rows", "diac-shard 2 mc 2 0 8\nrow 0 x\nend 2\n");
  EXPECT_THROW(read_shard_file(short_count), std::runtime_error);
  // Other format versions are rejected, not misread.
  const std::string vnext =
      write_temp("shard_vnext.rows", "diac-shard 99 mc 2 0 8\nend 0\n");
  EXPECT_THROW(read_shard_file(vnext), std::runtime_error);
  const std::string v1 =
      write_temp("shard_v1.rows", "diac-shard 1 mc 1 0 0\nend 0\n");
  EXPECT_THROW(read_shard_file(v1), std::runtime_error);
  // Not a shard file at all.
  const std::string garbage = write_temp("shard_garbage.rows", "hello\n");
  EXPECT_THROW(read_shard_file(garbage), std::runtime_error);
  EXPECT_THROW(read_shard_file("/nonexistent/shard.rows"), std::runtime_error);
}

TEST(ShardMerge, RejectsWrongSweepDuplicatesAndGaps) {
  auto make = [](const char* name, const std::string& content) {
    return write_temp(name, content);
  };
  // Shard 0 of 2 owns jobs [0, 1), shard 1 owns [1, 2).
  const std::string ok0 =
      make("m_ok0.rows", "diac-shard 2 mc 2 0 2\nrow 0 x\nend 1\n");
  const std::string ok1 =
      make("m_ok1.rows", "diac-shard 2 mc 2 1 2\nrow 1 y\nend 1\n");
  const auto merged = merge_shard_rows({ok0, ok1}, "mc", 2, 2);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0], (std::vector<std::string>{"x"}));
  EXPECT_EQ(merged[1], (std::vector<std::string>{"y"}));

  // Kind mismatch: a replay file can't satisfy an mc merge.
  const std::string replay =
      make("m_replay.rows", "diac-shard 2 replay 2 0 2\nrow 0 x\nend 1\n");
  EXPECT_THROW(merge_shard_rows({replay, ok1}, "mc", 2, 2),
               std::runtime_error);
  // A row outside the producing shard's slice is foreign.
  const std::string stray =
      make("m_stray.rows", "diac-shard 2 mc 2 0 2\nrow 1 z\nend 1\n");
  EXPECT_THROW(merge_shard_rows({stray, ok1}, "mc", 2, 2),
               std::runtime_error);
  // A silent gap (worker wrote nothing) must not merge.
  const std::string empty =
      make("m_empty.rows", "diac-shard 2 mc 2 0 2\nend 0\n");
  EXPECT_THROW(merge_shard_rows({empty, ok1}, "mc", 2, 2),
               std::runtime_error);
  // File count must match the shard count.
  EXPECT_THROW(merge_shard_rows({ok0}, "mc", 2, 2), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Rows + merge bit-identity against the in-process sweeps.
// ---------------------------------------------------------------------------

// Evaluates every shard of an N-way plan, writes each as a shard file
// and merges the files exactly like the coordinator would, so the rows
// cross the text codec the way sharded rows do.
template <typename Rows>
RowPayloads shard_in_process(const std::string& kind, std::size_t shards,
                             std::size_t jobs, Rows&& rows_of) {
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < shards; ++i) {
    const ShardPlan plan{shards, i};
    std::ostringstream out;
    write_shard(out, kind, plan, jobs, rows_of(plan));
    paths.push_back(write_temp(
        kind + "_" + std::to_string(shards) + "_" + std::to_string(i) +
            ".rows",
        out.str()));
  }
  return merge_shard_rows(paths, kind, shards, jobs);
}

TEST(ShardWorker, McMergeIsBitIdenticalToEvaluateMonteCarlo) {
  const int runs = 6;
  EvaluationOptions eo;
  eo.simulator.target_instances = 4;
  eo.simulator.max_time = 20000;
  ExperimentRunner runner(2);
  const MonteCarloResult direct =
      evaluate_monte_carlo(s344(), lib(), eo, runs, runner);

  for (std::size_t shards : {1u, 2u, 4u}) {
    const auto payloads = shard_in_process(
        "mc", shards, static_cast<std::size_t>(runs),
        [&](const ShardPlan& plan) {
          return mc_rows(s344(), lib(), eo, runs, plan, runner);
        });
    const MonteCarloResult merged =
        merge_mc_rows(decode_scheme_rows(payloads), s344().name(),
                      s344().logic_gate_count());
    ASSERT_EQ(merged.samples.size(), direct.samples.size());
    for (int r = 0; r < runs; ++r) {
      for (Scheme s : kAllSchemes) {
        expect_same_stats(merged.samples[r].of(s), direct.samples[r].of(s));
      }
    }
    for (std::size_t i = 0; i < kSchemeCount; ++i) {
      EXPECT_TRUE(same_bits(merged.normalized_pdp[i].mean,
                            direct.normalized_pdp[i].mean));
      EXPECT_TRUE(same_bits(merged.normalized_pdp[i].stddev,
                            direct.normalized_pdp[i].stddev));
    }
    EXPECT_TRUE(same_bits(merged.opt_vs_nv_based.mean,
                          direct.opt_vs_nv_based.mean));
  }
}

TEST(ShardWorker, ReplayMergeIsBitIdenticalToEvaluateTraceLibrary) {
  const fs::path dir = fs::path(::testing::TempDir()) / "diac_shard_replay";
  fs::remove_all(dir);
  fs::create_directories(dir);
  RfidBurstSource::Options options;
  options.horizon = 1200.0;
  for (int i = 0; i < 5; ++i) {
    const RfidBurstSource source(0x5EED + i, options);
    save_trace_csv((dir / ("t" + std::to_string(i) + ".csv")).string(),
                   source, 1200.0, 0.5);
  }

  EvaluationOptions eo;
  eo.simulator.target_instances = 3;
  eo.simulator.max_time = 1200;
  ExperimentRunner runner(2);
  const TraceLibrary library = load_trace_library(dir.string());
  const std::vector<BenchmarkResult> direct =
      evaluate_trace_library(s344(), lib(), eo, library, runner);

  const std::vector<std::string> files = list_trace_files(dir.string());
  for (std::size_t shards : {1u, 2u, 3u}) {
    const auto payloads = shard_in_process(
        "replay", shards, files.size(), [&](const ShardPlan& plan) {
          return replay_rows(s344(), lib(), eo, files, plan, runner);
        });
    const std::vector<BenchmarkResult> merged = merge_replay_rows(
        decode_scheme_rows(payloads), files, s344().logic_gate_count());
    ASSERT_EQ(merged.size(), direct.size());
    for (std::size_t t = 0; t < merged.size(); ++t) {
      EXPECT_EQ(merged[t].name, direct[t].name);
      for (Scheme s : kAllSchemes) {
        expect_same_stats(merged[t].of(s), direct[t].of(s));
      }
    }
  }
}

TEST(ShardWorker, SearchMergeMatchesExhaustiveAndPrunedSearch) {
  // The merged rows of every split reproduce run_search bit for bit.
  const CandidateSpace space;
  const std::vector<DesignPoint> points = space.sample(12, 0xC0FFEE);
  SearchOptions so;
  so.simulator.target_instances = 4;
  so.simulator.max_time = 8000;
  ExperimentRunner runner(2);
  const SearchResult direct = run_search(s344(), lib(), points, so, runner);

  for (std::size_t shards : {1u, 3u, 4u}) {
    const auto payloads = shard_in_process(
        "search", shards, points.size(), [&](const ShardPlan& plan) {
          return search_rows(s344(), lib(), points, so, plan, runner);
        });
    const SearchResult merged = rank_candidates(
        decode_search_rows(payloads, points, so.objectives), so.objectives);

    ASSERT_EQ(merged.candidates.size(), direct.candidates.size());
    EXPECT_EQ(merged.front, direct.front);
    EXPECT_EQ(merged.evaluated, points.size());
    EXPECT_EQ(merged.pruned, 0u);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const CandidateResult& m = merged.candidates[i];
      const CandidateResult& d = direct.candidates[i];
      EXPECT_EQ(m.point.label(), d.point.label());
      EXPECT_EQ(m.tasks, d.tasks);
      EXPECT_EQ(m.commit_points, d.commit_points);
      expect_same_stats(m.stats, d.stats);
      ASSERT_EQ(m.costs.size(), d.costs.size());
      for (std::size_t k = 0; k < m.costs.size(); ++k) {
        EXPECT_TRUE(same_bits(m.costs[k], d.costs[k]) ||
                    (std::isnan(m.costs[k]) && std::isnan(d.costs[k])));
      }
    }
  }
}

TEST(ShardMerge, DecodersNameTheMalformedJob) {
  const CandidateSpace space;
  const std::vector<DesignPoint> points = space.sample(2, 7);
  const SearchObjectives objectives = SearchObjectives::defaults();
  CandidateResult c;
  c.costs.assign(objectives.size(), 1.5);
  const std::vector<std::string> good = encode_row(c);
  try {
    decode_search_rows({good, {"1", "2"}}, points, objectives);
    FAIL() << "a short search row decoded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("search job 1"), std::string::npos)
        << e.what();
  }
  // One row per candidate, no more and no fewer.
  EXPECT_THROW(decode_search_rows({good}, points, objectives),
               std::runtime_error);
  EXPECT_THROW(decode_scheme_rows({{"not-a-number"}}), std::runtime_error);
  EXPECT_EQ(decode_search_rows({good, good}, points, objectives)[1]
                .point.label(),
            points[1].label());
}

// ---------------------------------------------------------------------------
// Coordinator failure propagation.
// ---------------------------------------------------------------------------

TEST(ShardCoordinator, PropagatesWorkerExitStatus) {
  ShardLaunch launch;
  launch.exe = "/bin/false";
  launch.shards = 3;
  try {
    run_shard_workers(launch);
    FAIL() << "expected failure propagation";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("status 1"), std::string::npos) << what;
    EXPECT_NE(what.find("shard 0/3"), std::string::npos) << what;
    EXPECT_NE(what.find("shard 2/3"), std::string::npos) << what;
  }
}

TEST(ShardCoordinator, FailsWhenWorkerBinaryIsMissing) {
  ShardLaunch launch;
  launch.exe = "/nonexistent/diac-worker";
  launch.shards = 2;
  EXPECT_THROW(run_shard_workers(launch), std::runtime_error);
}

TEST(ShardCoordinator, MissingResultFilesFailTheMerge) {
  // Workers that "succeed" without writing their files (/bin/true) must
  // not merge into a silently truncated sweep.
  ShardLaunch launch;
  launch.exe = "/bin/true";
  launch.shards = 2;
  const ShardFileSet files = run_shard_workers(launch);
  ASSERT_EQ(files.paths.size(), 2u);
  EXPECT_THROW(merge_shard_rows(files.paths, "mc", 2, 8), std::runtime_error);
}

TEST(ShardCoordinator, ScratchDirIsRemovedOnDestruction) {
  std::string dir;
  {
    ShardLaunch launch;
    launch.exe = "/bin/true";
    launch.shards = 1;
    const ShardFileSet files = run_shard_workers(launch);
    dir = files.dir;
    EXPECT_TRUE(fs::exists(dir));
  }
  EXPECT_FALSE(fs::exists(dir));
}

}  // namespace
}  // namespace diac
