// End-to-end sharding through the real `diac` binary (path injected by
// CMake as DIAC_CLI_PATH): `--shards {1,N}` must produce byte-identical
// stdout — and byte-identical --csv artifacts — for mc, replay and
// search, and worker failures must surface as a non-zero parent exit.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "power/harvester.hpp"
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

// Runs `diac <args>`, capturing stdout exactly (stderr is diagnostics —
// shard counts, worker errors — and deliberately excluded from the
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

void expect_shard_identity(const std::string& base_args,
                           const std::string& tag, int shards) {
  const CliRun one = run_cli(base_args + " --shards 1", tag + "_1");
  ASSERT_EQ(one.exit_code, 0) << one.out;
  const CliRun many =
      run_cli(base_args + " --shards " + std::to_string(shards),
              tag + "_" + std::to_string(shards));
  ASSERT_EQ(many.exit_code, 0) << many.out;
  EXPECT_FALSE(one.out.empty());
  EXPECT_EQ(one.out, many.out)
      << "--shards 1 vs --shards " << shards << " reports differ";
}

TEST(ShardCli, McReportIsByteIdenticalAcrossShardCounts) {
  expect_shard_identity("mc s344 --runs 6 --instances 4 --threads 2",
                       "shardcli_mc", 3);
}

TEST(ShardCli, SearchReportIsByteIdenticalAcrossShardCounts) {
  expect_shard_identity(
      "search s344 --random 8 --instances 4 --max-time 8000 --threads 2",
      "shardcli_search", 4);
}

TEST(ShardCli, SearchCsvIsByteIdenticalAcrossShardCounts) {
  const fs::path csv1 = fs::path(::testing::TempDir()) / "shardcli_s1.csv";
  const fs::path csv4 = fs::path(::testing::TempDir()) / "shardcli_s4.csv";
  const std::string base =
      "search s344 --random 8 --instances 4 --max-time 8000 --threads 2";
  const CliRun one =
      run_cli(base + " --shards 1 --csv " + csv1.string(), "shardcli_csv1");
  ASSERT_EQ(one.exit_code, 0);
  const CliRun four =
      run_cli(base + " --shards 4 --csv " + csv4.string(), "shardcli_csv4");
  ASSERT_EQ(four.exit_code, 0);
  const std::string a = slurp(csv1);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, slurp(csv4));
}

TEST(ShardCli, ReplayLibraryIsByteIdenticalAcrossShardCounts) {
  const fs::path dir = fs::path(::testing::TempDir()) / "shardcli_traces";
  fs::remove_all(dir);
  fs::create_directories(dir);
  RfidBurstSource::Options options;
  options.horizon = 1200.0;
  for (int i = 0; i < 5; ++i) {
    const RfidBurstSource source(0xACE + i, options);
    save_trace_csv((dir / ("t" + std::to_string(i) + ".csv")).string(),
                   source, 1200.0, 0.5);
  }
  expect_shard_identity(
      "replay s344 --trace " + dir.string() + " --instances 3 --threads 2",
      "shardcli_replay", 2);
}

TEST(ShardCli, WorkerFailurePropagatesToParentExit) {
  // A worker that cannot load its sweep (bogus trace directory) fails;
  // the parent must fail too, not print a truncated report.
  const CliRun run = run_cli(
      "replay s344 --trace /nonexistent_diac_traces --shards 2",
      "shardcli_fail");
  EXPECT_NE(run.exit_code, 0);
}

TEST(ShardCli, RejectsBadShardCounts) {
  EXPECT_NE(run_cli("mc s344 --runs 4 --shards 0", "shardcli_zero").exit_code,
            0);
  EXPECT_NE(
      run_cli("mc s344 --runs 4 --shards -2", "shardcli_neg").exit_code, 0);
}

TEST(ShardCli, RejectsOutOfRangeSimulatorOptions) {
  // Options the simulator cannot honor fail the command with a message
  // located at the offending flag instead of printing a report for some
  // other workload, in process and sharded alike.
  const std::pair<std::string, std::string> cases[] = {
      {"mc s344 --instances 0",
       "error: --instances: expected an integer in [1, 1000000], got '0'\n"},
      {"mc s344 --instances -3",
       "error: --instances: expected an integer in [1, 1000000], got '-3'\n"},
      {"search s344 --max-time nan --random 2",
       "error: --max-time: expected a finite number in (0, 1e+12], got "
       "'nan'\n"},
      {"mc s344 --instances 0 --shards 2",
       "error: --instances: expected an integer in [1, 1000000], got '0'\n"},
  };
  for (const auto& [args, message] : cases) {
    const CliRun run = run_cli(args, "shardcli_badopt");
    EXPECT_NE(run.exit_code, 0) << args;
    EXPECT_TRUE(run.out.empty()) << args << ": " << run.out;
    const std::string err = slurp(fs::path(::testing::TempDir()) /
                                  "shardcli_badopt.out.err");
    EXPECT_EQ(err, message) << args;
  }
}

}  // namespace
}  // namespace diac
