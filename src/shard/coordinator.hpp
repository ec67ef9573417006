/// ShardCoordinator: spawns one worker process per shard, monitors
/// them, and splices their result files back into a dense job-indexed
/// payload vector.
///
/// The coordinator is deliberately agnostic about what a worker *is*:
/// it spawns `exe args... --shards N --shard-index i --shard-out
/// <file>` via posix_spawn, so any binary that understands the shard
/// addressing flags can serve — the `diac` CLI's hidden `shard-worker`
/// subcommand is the stock worker, and because the addressing is plain
/// argv, shard index <-> machine mapping needs no further core changes
/// for multi-machine fan-out (run the same worker command on another
/// host and ship the file back).
///
/// Failure propagation: every worker is reaped even when some fail;
/// non-zero exits and fatal signals are collected into one
/// std::runtime_error naming each failed shard (worker stderr is
/// inherited, so the underlying error is already on the terminal).
/// Merging then independently rejects missing files, truncated files,
/// foreign headers, and duplicate or missing job rows.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "shard/codec.hpp"

namespace diac {

/// Describes an N-way worker fan-out.
struct ShardLaunch {
  /// Worker binary (the CLI passes its own executable).
  std::string exe;
  /// argv tail shared by every worker; the coordinator appends the
  /// per-shard addressing (`--shards`, `--shard-index`, `--shard-out`).
  std::vector<std::string> args;
  /// Worker process count (>= 1).
  int shards = 1;
  /// Directory for the per-shard result files.  Empty picks a unique
  /// directory under the system temp path, removed when the returned
  /// ShardFileSet is destroyed; a caller-supplied directory is created
  /// if needed and always kept.
  std::string scratch_dir;
  /// When set, each worker also gets `--trace-out <scratch>/shard_i.
  /// trace.json`; the paths come back in ShardFileSet::trace_paths for
  /// the caller to merge (obs side channel — never affects results).
  bool trace_files = false;
  /// Same for `--metrics-out <scratch>/shard_i.metrics.json` into
  /// ShardFileSet::metrics_paths.
  bool metrics_files = false;
  /// Line-buffer each worker's stderr and prefix every line with
  /// `[shard i/N] ` so concurrent diagnostics cannot interleave mid-line.
  /// Off hands workers the parent's stderr fd directly.
  bool prefix_stderr = true;
};

/// The per-shard result files of one fan-out; cleans up the scratch
/// directory on destruction unless `keep` is set.
struct ShardFileSet {
  std::string dir;
  std::vector<std::string> paths;  ///< paths[i] belongs to shard i
  std::vector<std::string> trace_paths;    ///< per-shard trace files, or empty
  std::vector<std::string> metrics_paths;  ///< per-shard metrics files, ditto
  bool keep = false;

  ShardFileSet() = default;
  ShardFileSet(const ShardFileSet&) = delete;
  ShardFileSet& operator=(const ShardFileSet&) = delete;
  ShardFileSet(ShardFileSet&& other) noexcept;
  ShardFileSet& operator=(ShardFileSet&& other) noexcept;
  ~ShardFileSet();
};

/// Spawns the workers, waits for all of them, and returns the result
/// file paths.  Throws std::runtime_error when spawning fails or any
/// worker exits non-zero / dies on a signal (after reaping the rest).
ShardFileSet run_shard_workers(const ShardLaunch& launch);

/// Reads and validates every per-shard file against the expected sweep
/// (`kind`, `shards`, global `jobs`) and splices the rows into a dense
/// vector: result[job] is that job's payload tokens.  Throws
/// std::runtime_error on header mismatches, out-of-range / duplicate
/// rows, rows outside the producing shard's plan slice, or missing
/// jobs.
std::vector<std::vector<std::string>> merge_shard_rows(
    const std::vector<std::string>& paths, const std::string& kind,
    std::size_t shards, std::size_t jobs);

/// The same checks and splice over files already parsed: files[i] is
/// shard i of a files.size()-way split (serve's response is one file).
std::vector<std::vector<std::string>> merge_shard_files(
    std::vector<ShardFile> files, const std::string& kind, std::size_t jobs);

}  // namespace diac
