// Cold-vs-warm bit-identity for the content-addressed result cache
// (src/serve/cache.*), through the real `diac` binary and through the
// in-process API.
//
// The contract under test (docs/SERVE.md): a sweep with `--cache-dir`
// produces byte-identical stdout and --csv whether the cache is empty
// (cold), fully populated (warm), populated by a *different* process,
// or populated and then damaged — a corrupted/truncated entry must be
// detected, evicted and recomputed, never served.  Obs metrics are
// deliberately outside this contract: cache hit/miss counters *should*
// differ between cold and warm runs (that difference is their purpose),
// which is exactly why the cache lives behind the D6 wall — metrics can
// never feed back into result bytes.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cell/cell_library.hpp"
#include "exp/runner.hpp"
#include "metrics/montecarlo.hpp"
#include "netlist/fingerprint.hpp"
#include "netlist/suite.hpp"
#include "power/harvester.hpp"
#include "power/trace_io.hpp"
#include "serve/cache.hpp"
#include "serve/options.hpp"
#include "shard/job_key.hpp"
#include "shard/plan.hpp"
#include "shard/worker.hpp"

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

// Runs `diac <args>`, capturing stdout exactly (stderr is diagnostics
// and excluded from the byte-identity contract).
CliRun run_cli(const std::string& args, const std::string& tag) {
  const fs::path out = fs::path(::testing::TempDir()) / (tag + ".out");
  const std::string cmd = std::string(DIAC_CLI_PATH) + " " + args + " > " +
                          out.string() + " 2> " + out.string() + ".err";
  CliRun run;
  run.exit_code = std::system(cmd.c_str());
  run.out = slurp(out);
  return run;
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<fs::path> cache_entries(const fs::path& cache_dir) {
  std::vector<fs::path> entries;
  for (const auto& e : fs::recursive_directory_iterator(cache_dir)) {
    if (e.is_regular_file()) entries.push_back(e.path());
  }
  return entries;
}

// Cold populates, warm must read back byte-identically — and a third
// run proves a *new process* attached to the same directory also hits.
void expect_cold_warm_identity(const std::string& base_args,
                               const std::string& tag) {
  const fs::path cache = fresh_dir(tag + "_cache");
  const std::string args = base_args + " --cache-dir " + cache.string();
  const CliRun cold = run_cli(args, tag + "_cold");
  ASSERT_EQ(cold.exit_code, 0) << cold.out;
  EXPECT_FALSE(cold.out.empty());
  EXPECT_FALSE(cache_entries(cache).empty());
  const CliRun warm = run_cli(args, tag + "_warm");
  ASSERT_EQ(warm.exit_code, 0) << warm.out;
  EXPECT_EQ(cold.out, warm.out) << "cold vs warm stdout differs";
  const CliRun second_process = run_cli(args, tag + "_proc2");
  ASSERT_EQ(second_process.exit_code, 0);
  EXPECT_EQ(cold.out, second_process.out)
      << "a second process on the same --cache-dir diverged";
}

TEST(ServeCache, McColdWarmStdoutByteIdentical) {
  expect_cold_warm_identity("mc s344 --runs 6 --instances 4 --threads 2",
                            "servecache_mc");
}

TEST(ServeCache, ReplayColdWarmStdoutByteIdentical) {
  const fs::path dir = fresh_dir("servecache_traces");
  RfidBurstSource::Options options;
  options.horizon = 1200.0;
  for (int i = 0; i < 4; ++i) {
    const RfidBurstSource source(0xBEE + i, options);
    save_trace_csv((dir / ("t" + std::to_string(i) + ".csv")).string(),
                   source, 1200.0, 0.5);
  }
  expect_cold_warm_identity(
      "replay s344 --trace " + dir.string() + " --instances 3 --threads 2",
      "servecache_replay");
}

TEST(ServeCache, SearchColdWarmStdoutByteIdentical) {
  expect_cold_warm_identity(
      "search s344 --random 6 --instances 4 --max-time 8000 --threads 2",
      "servecache_search");
}

TEST(ServeCache, SearchColdWarmCsvByteIdentical) {
  const fs::path cache = fresh_dir("servecache_csv_cache");
  const fs::path cold_csv = fs::path(::testing::TempDir()) / "sc_cold.csv";
  const fs::path warm_csv = fs::path(::testing::TempDir()) / "sc_warm.csv";
  const std::string base =
      "search s344 --random 6 --instances 4 --max-time 8000 --threads 2 "
      "--cache-dir " +
      cache.string();
  const CliRun cold =
      run_cli(base + " --csv " + cold_csv.string(), "servecache_csv_cold");
  ASSERT_EQ(cold.exit_code, 0) << cold.out;
  const CliRun warm =
      run_cli(base + " --csv " + warm_csv.string(), "servecache_csv_warm");
  ASSERT_EQ(warm.exit_code, 0) << warm.out;
  const std::string a = slurp(cold_csv);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, slurp(warm_csv)) << "cold vs warm --csv differs";
}

// The cached path must agree byte-for-byte with the established
// `--shards 1` output (both print the shard-style report header), so
// the cache layer can never fork the report format.
TEST(ServeCache, CachedRunMatchesShardedRun) {
  const fs::path cache = fresh_dir("servecache_vs_shards");
  const std::string base = "mc s344 --runs 4 --instances 4 --threads 2";
  const CliRun sharded = run_cli(base + " --shards 1", "servecache_sh");
  ASSERT_EQ(sharded.exit_code, 0);
  const CliRun cached =
      run_cli(base + " --cache-dir " + cache.string(), "servecache_ca");
  ASSERT_EQ(cached.exit_code, 0);
  EXPECT_EQ(sharded.out, cached.out);
}

TEST(ServeCache, CorruptedEntriesAreEvictedAndRecomputed) {
  const fs::path cache = fresh_dir("servecache_corrupt");
  const std::string args = "mc s344 --runs 4 --instances 4 --threads 2 "
                           "--cache-dir " +
                           cache.string();
  const CliRun cold = run_cli(args, "servecache_corrupt_cold");
  ASSERT_EQ(cold.exit_code, 0);
  const std::vector<fs::path> entries = cache_entries(cache);
  ASSERT_FALSE(entries.empty());

  // Damage every entry a different way: truncation (drops the `end`
  // trailer), byte corruption, and outright garbage.
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i % 3 == 0) {
      const std::string full = slurp(entries[i]);
      std::ofstream out(entries[i], std::ios::binary | std::ios::trunc);
      out << full.substr(0, full.size() / 2);
    } else if (i % 3 == 1) {
      std::ofstream out(entries[i], std::ios::binary | std::ios::trunc);
      out << "diac-shard 2 mc 1 0 1\nrow 0 not-a-number\nend 1\n";
    } else {
      std::ofstream out(entries[i], std::ios::binary | std::ios::trunc);
      out << "garbage\n";
    }
  }

  const CliRun warm = run_cli(args, "servecache_corrupt_warm");
  ASSERT_EQ(warm.exit_code, 0) << warm.out;
  EXPECT_EQ(cold.out, warm.out)
      << "damaged cache entries changed the report";
  // Every damaged entry was evicted and re-published as a valid row
  // file (the recompute stores over the evicted key).
  for (const fs::path& entry : cache_entries(cache)) {
    const std::string text = slurp(entry);
    EXPECT_NE(text.find("diac-shard"), std::string::npos) << entry;
    EXPECT_NE(text.find("\nend 1\n"), std::string::npos) << entry;
  }
}

// --- in-process API ---------------------------------------------------------

serve::ResultCache make_cache(const fs::path& dir) {
  serve::CacheConfig config;
  config.dir = dir.string();
  config.build_hash = "testbuild";
  return serve::ResultCache(std::move(config));
}

TEST(ServeCache, StoreLookupRoundTrip) {
  serve::ResultCache cache = make_cache(fresh_dir("servecache_rt"));
  const Hash128 key{0x1234, 0x5678};
  const std::vector<std::string> tokens{"0x1p+1", "42", "nan"};
  std::vector<std::string> found;
  EXPECT_FALSE(cache.lookup("mc", key, found));
  cache.store("mc", key, tokens);
  ASSERT_TRUE(cache.lookup("mc", key, found));
  EXPECT_EQ(found, tokens);
  // Kinds are separate namespaces: an mc entry is invisible to replay.
  EXPECT_FALSE(cache.lookup("replay", key, found));
}

TEST(ServeCache, BuildHashNamespacesEntries) {
  const fs::path dir = fresh_dir("servecache_builds");
  serve::CacheConfig a;
  a.dir = dir.string();
  a.build_hash = "build-a";
  serve::CacheConfig b;
  b.dir = dir.string();
  b.build_hash = "build-b";
  serve::ResultCache cache_a{std::move(a)};
  serve::ResultCache cache_b{std::move(b)};
  const Hash128 key{7, 9};
  cache_a.store("mc", key, {"1", "2"});
  std::vector<std::string> found;
  EXPECT_FALSE(cache_b.lookup("mc", key, found))
      << "an entry leaked across build namespaces";
  EXPECT_TRUE(cache_a.lookup("mc", key, found));
}

TEST(ServeCache, TruncatedEntryIsEvictedOnLookup) {
  serve::ResultCache cache = make_cache(fresh_dir("servecache_trunc"));
  const Hash128 key{0xABC, 0xDEF};
  cache.store("mc", key, {"1", "2", "3"});
  const fs::path path = cache.entry_path("mc", key);
  ASSERT_TRUE(fs::exists(path));
  const std::string full = slurp(path);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << full.substr(0, full.size() - 4);  // lose the `end` trailer
  }
  std::vector<std::string> found;
  EXPECT_FALSE(cache.lookup("mc", key, found));
  EXPECT_FALSE(fs::exists(path)) << "damaged entry was not evicted";
  // A re-store heals the slot.
  cache.store("mc", key, {"1", "2", "3"});
  EXPECT_TRUE(cache.lookup("mc", key, found));
}

TEST(ServeCache, PruneTrimsOldestEntriesUnderTheCap) {
  const fs::path dir = fresh_dir("servecache_prune");
  serve::CacheConfig config;
  config.dir = dir.string();
  config.build_hash = "testbuild";
  config.limit_bytes = 2048;  // a handful of rows
  serve::ResultCache cache{std::move(config)};
  const std::vector<std::string> tokens(16, "0x1.8p+3");
  for (std::uint64_t i = 0; i < 64; ++i) {
    cache.store("mc", Hash128{i, i * 3 + 1}, tokens);
  }
  cache.prune();
  std::uintmax_t total = 0;
  for (const fs::path& entry : cache_entries(dir)) {
    total += fs::file_size(entry);
  }
  EXPECT_LE(total, 2048u) << "prune left the store over its cap";
  EXPECT_GT(total, 0u) << "prune emptied the store entirely";
}

// A widened sweep reuses the narrow sweep's entries: mc keys are a
// function of the *derived per-run seed*, not (base seed, run count),
// so --runs 8 over a cache primed with --runs 4 adds exactly 4 entries.
TEST(ServeCache, WiderMcSweepWarmStartsFromNarrowOne) {
  const fs::path dir = fresh_dir("servecache_widen");
  serve::ResultCache cache = make_cache(dir);
  const Netlist nl = build_benchmark("s27");
  const CellLibrary lib = CellLibrary::nominal_45nm();
  serve::OptionMap options;
  options["instances"] = "2";
  const EvaluationOptions eo = serve::mc_eval_options(options);
  ExperimentRunner runner(2);
  const std::vector<SchemeRow> narrow =
      mc_rows(nl, lib, eo, 4, ShardPlan{}, runner, &cache);
  EXPECT_EQ(cache_entries(dir).size(), 4u);
  const std::vector<SchemeRow> wide =
      mc_rows(nl, lib, eo, 8, ShardPlan{}, runner, &cache);
  EXPECT_EQ(cache_entries(dir).size(), 8u)
      << "the widened sweep did not reuse the narrow sweep's entries";
  // And the wide sweep's first rows equal the narrow sweep's rows.
  ASSERT_EQ(wide.size(), 8u);
  for (std::size_t r = 0; r < narrow.size(); ++r) {
    EXPECT_EQ(encode_row(wide[r]), encode_row(narrow[r])) << "run " << r;
  }
}

// A row of an older shape — a search row still carrying the format-1
// optimistic-floor tokens — does not decode: it counts as a miss, and
// the recomputed row is stored over it.
TEST(ServeCache, StaleSearchRowsAreRecomputedOverTheEntry) {
  serve::ResultCache cache = make_cache(fresh_dir("servecache_stale"));
  const Netlist nl = build_benchmark("s344");
  const CellLibrary lib = CellLibrary::nominal_45nm();
  const SearchOptions so =
      serve::search_options({{"instances", "2"}, {"max-time", "4000"}});
  const std::vector<DesignPoint> points =
      serve::search_points({{"random", "2"}});
  ExperimentRunner runner(1);
  const std::vector<CandidateResult> cold =
      search_rows(nl, lib, points, so, ShardPlan{}, runner);
  const Hash128 key =
      search_job_key(canonical_fingerprint(nl), so, points[0]);
  std::vector<std::string> stale = encode_row(cold[0]);
  stale.insert(stale.end(), so.objectives.size(), "0x0p+0");
  cache.store("search", key, stale);

  const std::vector<CandidateResult> warm =
      search_rows(nl, lib, points, so, ShardPlan{}, runner, &cache);
  ASSERT_EQ(warm.size(), cold.size());
  EXPECT_EQ(encode_row(warm[0]), encode_row(cold[0]));
  std::vector<std::string> stored;
  ASSERT_TRUE(cache.lookup("search", key, stored));
  EXPECT_EQ(stored, encode_row(cold[0]));
}

}  // namespace
}  // namespace diac
