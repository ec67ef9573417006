// End-to-end serve protocol tests through the real `diac` binary (path
// injected by CMake as DIAC_CLI_PATH), modeled on shard_cli_test.cpp:
// a `diac serve` process on a temp socket must give N concurrent
// `--connect` clients byte-identical copies of the standalone report,
// answer malformed requests with a protocol error line, survive a
// client that disconnects mid-stream, and drain + exit 0 on SIGTERM.
// SweepTransport runs every sweep kind over every transport — threads,
// the result cache, shard workers and a server — and requires one
// report.
//
// The suite names match the TSan ctest subset (docs/LINTS.md): the
// concurrent-client and transport cases run under -fsanitize=thread in
// CI.
#include <gtest/gtest.h>

#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "power/harvester.hpp"
#include "power/trace_io.hpp"
#include "serve/client.hpp"
#include "serve/request.hpp"

#ifndef DIAC_CLI_PATH
#error "DIAC_CLI_PATH must point at the diac CLI binary"
#endif

extern char** environ;

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

CliRun run_cli(const std::string& args, const std::string& tag) {
  const fs::path out = fs::path(::testing::TempDir()) / (tag + ".out");
  const std::string cmd = std::string(DIAC_CLI_PATH) + " " + args + " > " +
                          out.string() + " 2> " + out.string() + ".err";
  CliRun run;
  run.exit_code = std::system(cmd.c_str());
  run.out = slurp(out);
  return run;
}

// A `diac serve` child process bound to a per-fixture temp socket;
// killed (TERM, then KILL as a backstop) when the fixture goes away.
class ServeProcess {
 public:
  explicit ServeProcess(const std::string& tag,
                        const std::string& extra_args = "") {
    socket_path_ =
        (fs::path(::testing::TempDir()) / (tag + ".sock")).string();
    fs::remove(socket_path_);
    std::vector<std::string> args{DIAC_CLI_PATH, "serve", "--socket",
                                  socket_path_, "--threads", "2"};
    std::istringstream extra(extra_args);
    for (std::string word; extra >> word;) args.push_back(word);
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    if (posix_spawn(&pid_, DIAC_CLI_PATH, nullptr, nullptr, argv.data(),
                    environ) != 0) {
      pid_ = -1;
    }
  }

  ~ServeProcess() {
    if (pid_ <= 0) return;
    int status = 0;
    // Anything but 0 means the server is gone: reaped here, or already
    // reaped by the test (-1), in which case the pid may be reused.
    if (waitpid(pid_, &status, WNOHANG) != 0) return;
    kill(pid_, SIGTERM);
    for (int i = 0; i < 100; ++i) {
      if (waitpid(pid_, &status, WNOHANG) != 0) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    kill(pid_, SIGKILL);
    waitpid(pid_, &status, 0);
  }

  const std::string& socket_path() const { return socket_path_; }
  pid_t pid() const { return pid_; }

  // The server creates its socket after binding; connectable == ready.
  bool wait_ready() const {
    for (int i = 0; i < 100; ++i) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd < 0) return false;
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, socket_path_.c_str(),
                   sizeof(addr.sun_path) - 1);
      const bool ok = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                                sizeof(addr)) == 0;
      ::close(fd);
      if (ok) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    return false;
  }

  // Connects and sends `bytes` as a complete request (write side shut
  // down, like the real client); returns the fd, or -1.
  int send_raw(const std::string& bytes) const {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path_.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      return -1;
    }
    (void)::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    ::shutdown(fd, SHUT_WR);
    return fd;
  }

  // Sends raw bytes and returns everything the server answers.
  std::string raw_exchange(const std::string& bytes) const {
    const int fd = send_raw(bytes);
    if (fd < 0) return "<no connection>";
    std::string response;
    char chunk[4096];
    ssize_t n;
    while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) {
      response.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return response;
  }

 private:
  std::string socket_path_;
  pid_t pid_ = -1;
};

TEST(ServeCli, ConcurrentClientsMatchStandaloneByteForByte) {
  ServeProcess server("servecli_concurrent");
  ASSERT_GT(server.pid(), 0);
  ASSERT_TRUE(server.wait_ready());

  const std::string base = "mc s344 --runs 6 --instances 4";
  const CliRun standalone = run_cli(base + " --shards 1 --threads 2",
                                    "servecli_standalone");
  ASSERT_EQ(standalone.exit_code, 0) << standalone.out;
  ASSERT_FALSE(standalone.out.empty());

  constexpr int kClients = 4;
  std::vector<CliRun> runs(kClients);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        runs[static_cast<std::size_t>(i)] =
            run_cli(base + " --connect " + server.socket_path(),
                    "servecli_client" + std::to_string(i));
      });
    }
    for (std::thread& t : clients) t.join();
  }
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(runs[static_cast<std::size_t>(i)].exit_code, 0);
    EXPECT_EQ(runs[static_cast<std::size_t>(i)].out, standalone.out)
        << "client " << i << " diverged from the standalone report";
  }
}

TEST(ServeCli, MalformedRequestsGetAProtocolErrorLine) {
  ServeProcess server("servecli_malformed");
  ASSERT_GT(server.pid(), 0);
  ASSERT_TRUE(server.wait_ready());

  EXPECT_NE(server.raw_exchange("complete garbage\n")
                .find("diac-serve 1 error"),
            std::string::npos);
  EXPECT_NE(server.raw_exchange("diac-serve 99 run mc s27\n")
                .find("diac-serve 1 error"),
            std::string::npos);
  EXPECT_NE(server.raw_exchange("diac-serve 1 run teleport s27\n")
                .find("diac-serve 1 error"),
            std::string::npos);
  EXPECT_NE(server.raw_exchange("diac-serve 1 run mc not_a_circuit\n")
                .find("diac-serve 1 error"),
            std::string::npos);
  // Options the kind does not read, client-only ones included.
  EXPECT_EQ(server.raw_exchange("diac-serve 1 run mc s344 --bogus 1\n"),
            serve::error_line("mc: unknown option --bogus") + "\n");
  EXPECT_EQ(server.raw_exchange("diac-serve 1 run mc s344 --threads 2\n"),
            serve::error_line("mc: unknown option --threads") + "\n");
  // No newline at all: EOF before a complete request line.
  const std::string closed = server.raw_exchange("diac-serve 1 run");
  EXPECT_NE(closed.find("diac-serve 1 error"), std::string::npos);

  // The in-process client surfaces the server's message as an exception.
  serve::SweepRequest bad;
  bad.kind = "mc";
  bad.target = "not_a_circuit";
  EXPECT_THROW(serve::run_remote_sweep(server.socket_path(), bad, 1),
               std::runtime_error);
}

TEST(ServeCli, SurvivesClientDisconnectMidStream) {
  ServeProcess server("servecli_disconnect");
  ASSERT_GT(server.pid(), 0);
  ASSERT_TRUE(server.wait_ready());

  // Send a valid request, read only the first bytes of the response,
  // then slam the connection shut while the server is still streaming.
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, server.socket_path().c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    const std::string request =
        "diac-serve 1 run mc s344 --runs 4 --instances 4\n";
    ASSERT_GT(::send(fd, request.data(), request.size(), MSG_NOSIGNAL), 0);
    char first[8];
    (void)::read(fd, first, sizeof(first));
    ::close(fd);
  }

  // The server must still answer the next request normally.
  const CliRun after =
      run_cli("mc s344 --runs 4 --instances 4 --connect " +
                  server.socket_path(),
              "servecli_after_disconnect");
  EXPECT_EQ(after.exit_code, 0)
      << "server did not survive a mid-stream disconnect";
  EXPECT_FALSE(after.out.empty());
}

TEST(ServeCli, SigtermDrainsAndExitsCleanly) {
  ServeProcess server("servecli_sigterm");
  ASSERT_GT(server.pid(), 0);
  ASSERT_TRUE(server.wait_ready());

  // A request in flight when SIGTERM lands must still complete.  The
  // `ok` status line is flushed after validation, before the sweep runs,
  // and no row is written before the whole sweep is computed: bytes
  // that are the ok line alone prove the request is in flight.  The
  // sweep (2048 runs) computes for long enough that a reader woken by
  // the ok line sees it alone.
  const int fd = server.send_raw("diac-serve 1 run mc s1238 --runs 2048\n");
  ASSERT_GE(fd, 0);
  std::string response;
  char chunk[4096];
  ssize_t n;
  while (response.find('\n') == std::string::npos &&
         (n = ::read(fd, chunk, sizeof(chunk))) > 0) {
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ASSERT_EQ(response, serve::ok_line() + "\n")
      << "the ok line did not arrive ahead of the rows";
  ASSERT_EQ(kill(server.pid(), SIGTERM), 0);
  while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) {
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("\nend "), std::string::npos)
      << "in-flight request was not drained to its trailer";

  int status = -1;
  ASSERT_EQ(waitpid(server.pid(), &status, 0), server.pid());
  ASSERT_TRUE(WIFEXITED(status)) << "server was killed, not shut down";
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_FALSE(fs::exists(server.socket_path()))
      << "socket path not unlinked on shutdown";
}

TEST(ServeCli, ConnectRefusesConflictingFlags) {
  EXPECT_NE(run_cli("mc s27 --runs 2 --connect /tmp/nope.sock --shards 2",
                    "servecli_conflict1")
                .exit_code,
            0);
  EXPECT_NE(run_cli("mc s27 --runs 2 --connect /tmp/nope.sock --cache-dir "
                    "/tmp/nope.cache",
                    "servecli_conflict2")
                .exit_code,
            0);
}

TEST(ServeCli, ConnectWithoutServerFailsCleanly) {
  const CliRun run = run_cli(
      "mc s27 --runs 2 --connect /tmp/diac_no_such_socket.sock",
      "servecli_nosrv");
  EXPECT_NE(run.exit_code, 0);
}

// --- one sweep path ----------------------------------------------------------

// One sweep of the transport-identity matrix.  `args` names a trace
// library as $TRACES.
struct SweepCase {
  const char* name;
  const char* args;
  bool csv;  // also compare the --csv artifact
};

// Names the case in test listings (the default prints its bytes).
void PrintTo(const SweepCase& c, std::ostream* os) { *os << c.name; }

// A fresh five-trace library at `dir` (one per case: ctest runs the
// cases as concurrent processes).
std::string make_trace_library(const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  RfidBurstSource::Options options;
  options.horizon = 1200.0;
  for (int i = 0; i < 5; ++i) {
    const RfidBurstSource source(0xACE + i, options);
    save_trace_csv((dir / ("t" + std::to_string(i) + ".csv")).string(),
                   source, 1200.0, 0.5);
  }
  return dir.string();
}

// In-process runs without a cache end the first line with " on N
// job(s)" or " on N thread(s)".  perfbench/golden.json pins that suffix
// on stdout, so it is the one difference the comparison forgives.
std::string without_local_suffix(const std::string& out) {
  const std::size_t eol = out.find('\n');
  if (eol == std::string::npos) return out;
  static const std::regex suffix(" on [0-9]+ (job|thread)\\(s\\)$");
  return std::regex_replace(out.substr(0, eol), suffix, "") +
         out.substr(eol);
}

class SweepTransport : public ::testing::TestWithParam<SweepCase> {};

TEST_P(SweepTransport, EveryTransportPrintsOneReport) {
  const SweepCase& c = GetParam();
  const std::string tag = std::string("sweep_") + c.name;
  ServeProcess server(tag);
  ASSERT_GT(server.pid(), 0);
  ASSERT_TRUE(server.wait_ready());
  const std::string args = std::regex_replace(
      c.args, std::regex("\\$TRACES"),
      make_trace_library(fs::path(::testing::TempDir()) / (tag + "_traces")));
  const fs::path cache = fs::path(::testing::TempDir()) / (tag + "_cache");
  fs::remove_all(cache);
  // One --csv path for every run: stdout names it.
  const fs::path csv = fs::path(::testing::TempDir()) / (tag + ".csv");
  const std::pair<const char*, std::string> transports[] = {
      {"threads 1", "--threads 1"},
      {"threads 4", "--threads 4"},
      {"cache cold", "--threads 2 --cache-dir " + cache.string()},
      {"cache warm", "--threads 2 --cache-dir " + cache.string()},
      {"shards 2", "--shards 2 --threads 2"},
      {"shards 3", "--shards 3 --threads 2"},
      {"connect", "--connect " + server.socket_path()},
  };
  std::string want_out, want_csv;
  for (const auto& [transport, flags] : transports) {
    fs::remove(csv);
    const CliRun run = run_cli(
        args + " " + flags + (c.csv ? " --csv " + csv.string() : ""), tag);
    ASSERT_EQ(run.exit_code, 0) << args << " over " << transport;
    const std::string out = without_local_suffix(run.out);
    const std::string table = c.csv ? slurp(csv) : "";
    if (want_out.empty()) {
      ASSERT_FALSE(out.empty());
      ASSERT_TRUE(!c.csv || !table.empty());
      want_out = out;
      want_csv = table;
      continue;
    }
    EXPECT_EQ(out, want_out) << args << " over " << transport;
    EXPECT_EQ(table, want_csv) << args << " --csv over " << transport;
  }
  fs::remove_all(cache);
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, SweepTransport,
    ::testing::Values(
        SweepCase{"mc_rfid", "mc s344 --runs 6 --instances 4", false},
        SweepCase{"replay_dir", "replay s344 --trace $TRACES --instances 3",
                  false},
        SweepCase{"replay_file",
                  "replay s344 --trace $TRACES/t2.csv --instances 3", false},
        SweepCase{"search_rfid",
                  "search s344 --instances 4 --max-time 8000", true},
        SweepCase{"search_random",
                  "search s344 --random 8 --instances 4 --max-time 8000",
                  true},
        SweepCase{"search_constant",
                  "search s344 --source constant --instances 3 "
                  "--max-time 8000",
                  true},
        // The Policy-2 designs of s27 do not fit their threshold stack
        // below E_MAX: their rows complete nothing, next to the rest.
        SweepCase{"search_s27", "search s27 --instances 4 --max-time 8000",
                  true}),
    [](const ::testing::TestParamInfo<SweepCase>& param) {
      return std::string(param.param.name);
    });

}  // namespace
}  // namespace diac
