/// The portable shard result format: versioned, line-oriented rows of
/// space-separated tokens, one row per sweep job.
///
/// Workers stream their slice of a sweep to a per-shard file and the
/// coordinator splices the files back into the dense job-indexed result
/// vector, so the format's one hard requirement is exactness: a merged
/// sweep must be *bit-identical* to the same sweep computed in one
/// process.  Doubles therefore round-trip through C99 hex-float
/// notation ("%a" / strtod) — every finite value, signed zero and
/// infinity is reproduced bit-for-bit, and NaN decodes to a quiet NaN
/// (payload bits are not preserved; nothing in the sweep pipeline reads
/// them).  Integers and bools are plain decimal.
///
/// The codec runs only where rows leave the process or go to disk: the
/// shard file, the serve socket and the cache entry.  In-process sweeps
/// hand typed rows straight to the merge.
///
/// File layout (version 2):
///
///     diac-shard 1 <kind> <shards> <index> <jobs>
///     row <global_job_index> <token> <token> ...
///     ...
///     end <row_count>
///
/// The `end` trailer makes truncation (a worker killed mid-write)
/// detectable; the header pins the sweep kind ("mc" | "replay" |
/// "search") and the plan so the merge can reject files from a
/// different sweep or split.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include <array>

#include "diac/design.hpp"
#include "runtime/stats.hpp"

namespace diac {

/// Bumped whenever the row payload of any sweep kind changes shape
/// (2: search rows dropped their optimistic-floor tokens).
inline constexpr int kShardFormatVersion = 2;

/// One mc or replay job's row: its four RunStats in kAllSchemes order.
using SchemeRow = std::array<RunStats, kSchemeCount>;

/// Encodes a double so decode_double reproduces it bit-for-bit (finite
/// values and infinities; NaN encodes as "nan" and decodes to a quiet
/// NaN).
std::string encode_double(double value);
/// Inverse of encode_double; throws std::invalid_argument on tokens
/// strtod cannot fully consume.
double decode_double(const std::string& token);

/// Strict decimal-integer decode: the whole token must parse.  Throws
/// std::runtime_error on anything else (corrupt rows must be rejected,
/// never truncated into plausible values).
long long decode_int(const std::string& token);

/// Identifies one shard result file: the sweep kind plus the plan and
/// global job count it was computed under.
struct ShardHeader {
  int version = kShardFormatVersion;
  std::string kind;        ///< "mc" | "replay" | "search"
  std::size_t shards = 1;  ///< worker count of the producing plan
  std::size_t index = 0;   ///< producing worker's shard index
  std::size_t jobs = 0;    ///< global job count of the whole sweep
};

/// One decoded result row: the global job index and its payload tokens.
struct ShardRow {
  std::size_t job = 0;
  std::vector<std::string> tokens;
};

/// A fully parsed shard result file.
struct ShardFile {
  std::string name;  ///< the path or stream name it was read from
  ShardHeader header;
  std::vector<ShardRow> rows;
};

/// Writes the header line.
void write_shard_header(std::ostream& out, const ShardHeader& header);
/// Writes one "row <job> <tokens...>" line.
void write_shard_row(std::ostream& out, std::size_t job,
                     const std::vector<std::string>& tokens);
/// Writes the "end <rows>" trailer that guards against truncation.
void write_shard_trailer(std::ostream& out, std::size_t rows);

/// Parses a shard result file; throws std::runtime_error (with `path`
/// in the message) on unreadable, malformed, version-mismatched or
/// truncated input.
ShardFile read_shard_file(const std::string& path);

/// Stream form of read_shard_file: parses shard rows from any istream
/// (a cache entry, a serve-protocol response); `name` labels errors.
/// Same strictness — the `end` trailer is mandatory, so a producer that
/// died mid-stream is detected, never silently truncated.
ShardFile read_shard_stream(std::istream& in, const std::string& name);

/// Token count of one serialized RunStats.
inline constexpr std::size_t kRunStatsTokenCount = 22;

/// Appends the 22 RunStats fields, in declaration order, as tokens.
void append_run_stats(std::vector<std::string>& tokens, const RunStats& stats);
/// Decodes kRunStatsTokenCount tokens starting at `cursor` (which
/// advances past them); throws std::runtime_error when fewer remain.
RunStats parse_run_stats(const std::vector<std::string>& tokens,
                         std::size_t& cursor);

/// A SchemeRow as kSchemeCount x kRunStatsTokenCount tokens.
std::vector<std::string> encode_row(const SchemeRow& row);
/// Inverse of encode_row; throws std::runtime_error on a wrong token
/// count and std::invalid_argument / std::runtime_error on a malformed
/// token.
SchemeRow decode_scheme_row(const std::vector<std::string>& tokens);

}  // namespace diac
