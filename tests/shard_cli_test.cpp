// End-to-end sharding through the real `diac` binary (path injected by
// CMake as DIAC_CLI_PATH): worker failures and bad shard counts must
// surface as a non-zero parent exit.  Byte identity across shard counts
// is SweepTransport's (serve_cli_test.cpp).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include <sys/wait.h>

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

TEST(ShardCli, FailedWorkerLeavesNoRowFile) {
  // A worker that fails before or during its sweep exits 1 and leaves
  // nothing at --shard-out (nor its temp name) for a merge to pick up.
  const fs::path dir = fs::path(::testing::TempDir()) / "shardcli_partial";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path rows = dir / "x.rows";
  const std::pair<std::string, std::string> cases[] = {
      {"--shard-cmd bogus",
       "error: --shard-cmd: expected mc|replay|search, got 'bogus'\n"},
      {"", "error: shard-worker requires --shard-cmd mc|replay|search\n"},
      {"--shard-cmd mc --runs 0",
       "error: --runs: expected an integer in [1, 1000000], got '0'\n"},
      {"--shard-cmd replay --trace /nonexistent_diac_trace.csv",
       "error: cannot open trace file: /nonexistent_diac_trace.csv\n"},
  };
  for (const auto& [args, message] : cases) {
    const CliRun run = run_cli(
        "shard-worker s27 " + args + " --shard-out " + rows.string(),
        "shardcli_partial");
    EXPECT_TRUE(WIFEXITED(run.exit_code) && WEXITSTATUS(run.exit_code) == 1)
        << args;
    EXPECT_EQ(slurp(fs::path(::testing::TempDir()) /
                    "shardcli_partial.out.err"),
              message)
        << args;
    EXPECT_TRUE(fs::is_empty(dir)) << args;
  }
  // A worker that succeeds publishes the whole file under its name.
  const CliRun ok = run_cli("shard-worker s27 --shard-cmd mc --runs 2 "
                            "--shard-out " + rows.string(),
                            "shardcli_partial");
  EXPECT_EQ(ok.exit_code, 0);
  EXPECT_EQ(slurp(rows).rfind("diac-shard 2 mc 1 0 2\n", 0), 0u);
  EXPECT_EQ(std::distance(fs::directory_iterator(dir), {}), 1);
}

}  // namespace
}  // namespace diac
