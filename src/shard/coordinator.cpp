#include "shard/coordinator.hpp"

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>

#include "obs/obs.hpp"
#include "shard/codec.hpp"
#include "shard/plan.hpp"

extern char** environ;

namespace diac {

namespace fs = std::filesystem;

ShardFileSet::ShardFileSet(ShardFileSet&& other) noexcept
    : dir(std::move(other.dir)),
      paths(std::move(other.paths)),
      trace_paths(std::move(other.trace_paths)),
      metrics_paths(std::move(other.metrics_paths)) {
  other.dir.clear();
}

ShardFileSet::~ShardFileSet() {
  if (dir.empty()) return;
  std::error_code ec;
  fs::remove_all(dir, ec);  // best effort; scratch lives under temp
}

namespace {

std::string make_scratch_dir() {
  static std::atomic<unsigned> counter{0};
  const fs::path dir =
      fs::temp_directory_path() /
      ("diac_shard_" + std::to_string(::getpid()) + "_" +
       std::to_string(counter.fetch_add(1)));
  fs::create_directories(dir);
  return dir.string();
}

// Spawns `exe args...` with its fd 2 on the write end of a pipe and
// returns the pid and the read end, for a relay thread to drain.
// O_CLOEXEC keeps later workers from inheriting earlier pipes (dup2
// clears the flag on fd 2).
std::pair<pid_t, int> spawn_worker(const std::string& exe,
                                   const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 2);
  argv.push_back(const_cast<char*>(exe.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  int pipe_fds[2] = {-1, -1};
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    throw std::runtime_error(std::string("pipe2: ") + std::strerror(errno));
  }
  posix_spawn_file_actions_t fa;
  ::posix_spawn_file_actions_init(&fa);
  ::posix_spawn_file_actions_adddup2(&fa, pipe_fds[1], 2);
  pid_t pid = -1;
  // posix_spawnp: PATH search covers the non-Linux fallback where the
  // worker binary is self_exe()'s bare argv[0].
  const int rc = ::posix_spawnp(&pid, exe.c_str(), &fa, nullptr, argv.data(),
                                environ);
  ::posix_spawn_file_actions_destroy(&fa);
  ::close(pipe_fds[1]);
  if (rc != 0) {
    ::close(pipe_fds[0]);
    throw std::runtime_error("shard coordinator: posix_spawn " + exe + ": " +
                             std::strerror(rc));
  }
  return {pid, pipe_fds[0]};
}

// Worker diagnostics are forwarded whole-line under one lock so lines
// from concurrent workers (and the coordinator itself) never interleave
// mid-line.
void emit_stderr_line(const std::string& prefix, const std::string& line) {
  static std::mutex m;
  const std::string full = prefix + line + "\n";
  const std::lock_guard<std::mutex> lock(m);
  std::fwrite(full.data(), 1, full.size(), stderr);
  std::fflush(stderr);
}

// Reads one worker's stderr pipe until EOF (the worker exiting closes
// the only write end), re-emitting it line-buffered with the shard tag.
void relay_worker_stderr(int fd, const std::string& prefix) {
  std::string pending;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;
    pending.append(buf, static_cast<std::size_t>(n));
    std::size_t pos;
    while ((pos = pending.find('\n')) != std::string::npos) {
      emit_stderr_line(prefix, pending.substr(0, pos));
      pending.erase(0, pos + 1);
    }
  }
  if (!pending.empty()) emit_stderr_line(prefix, pending);
  ::close(fd);
}

// Reaps `pid`; returns an empty string on clean exit, else a
// description of the failure.
std::string reap_worker(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, 0) < 0) {
    return std::string("waitpid: ") + std::strerror(errno);
  }
  if (WIFEXITED(status)) {
    const int code = WEXITSTATUS(status);
    if (code == 0) return {};
    return "exited with status " + std::to_string(code);
  }
  if (WIFSIGNALED(status)) {
    return std::string("killed by signal ") +
           std::to_string(WTERMSIG(status));
  }
  return "ended abnormally";
}

}  // namespace

ShardFileSet run_shard_workers(const ShardLaunch& launch) {
  if (launch.shards < 1) {
    throw std::invalid_argument("shard coordinator: shards must be >= 1");
  }
  ShardFileSet files;
  files.dir = make_scratch_dir();

  DIAC_OBS_COUNT("shard.workers", launch.shards);

  std::vector<pid_t> pids;
  pids.reserve(static_cast<std::size_t>(launch.shards));
  std::vector<std::thread> relays;
  std::string errors;
  {
    DIAC_TRACE_SPAN_ARG("shard.spawn", "shard", "workers", launch.shards);
    for (int i = 0; i < launch.shards; ++i) {
      const fs::path base = fs::path(files.dir) / ("shard_" + std::to_string(i));
      const std::string out = base.string() + ".rows";
      files.paths.push_back(out);
      std::vector<std::string> args = launch.args;
      if (launch.trace_files) {
        files.trace_paths.push_back(base.string() + ".trace.json");
        args.push_back("--trace-out");
        args.push_back(files.trace_paths.back());
      }
      if (launch.metrics_files) {
        files.metrics_paths.push_back(base.string() + ".metrics.json");
        args.push_back("--metrics-out");
        args.push_back(files.metrics_paths.back());
      }
      args.push_back("--shards");
      args.push_back(std::to_string(launch.shards));
      args.push_back("--shard-index");
      args.push_back(std::to_string(i));
      args.push_back("--shard-out");
      args.push_back(out);

      const std::string shard =
          "shard " + std::to_string(i) + "/" + std::to_string(launch.shards);
      try {
        const auto [pid, stderr_fd] = spawn_worker(launch.exe, args);
        pids.push_back(pid);
        relays.emplace_back(relay_worker_stderr, stderr_fd, "[" + shard + "] ");
      } catch (const std::exception& e) {
        errors +=
            std::string(errors.empty() ? "" : "; ") + shard + ": " + e.what();
        break;  // don't launch more after a spawn failure
      }
    }
  }

  // Reap every launched worker even when some fail, so no zombies
  // outlive the sweep.
  {
    DIAC_TRACE_SPAN_ARG("shard.wait", "shard", "workers", pids.size());
    for (std::size_t i = 0; i < pids.size(); ++i) {
      const std::string failure = reap_worker(pids[i]);
      if (!failure.empty()) {
        errors += std::string(errors.empty() ? "" : "; ") + "shard " +
                  std::to_string(i) + "/" + std::to_string(launch.shards) +
                  ": worker " + failure;
      }
    }
  }
  // All write ends are closed once the workers exit, so the relays see
  // EOF and drain any final partial line.
  for (std::thread& t : relays) t.join();
  if (!errors.empty()) {
    throw std::runtime_error("shard coordinator: " + errors);
  }
  return files;
}

std::vector<std::vector<std::string>> merge_shard_rows(
    const std::vector<std::string>& paths, const std::string& kind,
    std::size_t shards, std::size_t jobs) {
  DIAC_TRACE_SPAN_ARG("shard.merge", "shard", "jobs", jobs);
  if (paths.size() != shards) {
    throw std::runtime_error("shard merge: " + std::to_string(paths.size()) +
                             " file(s) for " + std::to_string(shards) +
                             " shard(s)");
  }
  std::vector<ShardFile> files;
  files.reserve(paths.size());
  for (const std::string& path : paths) files.push_back(read_shard_file(path));
  auto payloads = merge_shard_files(std::move(files), kind, jobs);
  DIAC_OBS_COUNT("shard.rows_merged", jobs);
  return payloads;
}

std::vector<std::vector<std::string>> merge_shard_files(
    std::vector<ShardFile> files, const std::string& kind, std::size_t jobs) {
  const std::size_t shards = files.size();
  std::vector<std::vector<std::string>> payloads(jobs);
  std::vector<bool> seen(jobs, false);
  for (std::size_t i = 0; i < shards; ++i) {
    ShardFile& file = files[i];
    const ShardHeader& h = file.header;
    if (h.kind != kind || h.shards != shards || h.index != i ||
        h.jobs != jobs) {
      throw std::runtime_error(
          "shard merge: " + file.name + " header (" + h.kind + " " +
          std::to_string(h.shards) + "/" + std::to_string(h.index) + ", " +
          std::to_string(h.jobs) + " job(s)) does not match the sweep (" +
          kind + " " + std::to_string(shards) + "/" + std::to_string(i) +
          ", " + std::to_string(jobs) + " job(s))");
    }
    const ShardPlan plan{shards, i};
    for (ShardRow& row : file.rows) {
      if (row.job >= jobs || !plan.owns(row.job, jobs)) {
        throw std::runtime_error("shard merge: " + file.name +
                                 " contains job " + std::to_string(row.job) +
                                 " outside its slice");
      }
      if (seen[row.job]) {
        throw std::runtime_error("shard merge: duplicate row for job " +
                                 std::to_string(row.job));
      }
      seen[row.job] = true;
      payloads[row.job] = std::move(row.tokens);
    }
  }
  for (std::size_t j = 0; j < jobs; ++j) {
    if (!seen[j]) {
      throw std::runtime_error("shard merge: no shard produced job " +
                               std::to_string(j));
    }
  }
  return payloads;
}

}  // namespace diac
