#include "serve/cache.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "obs/build_info.hpp"
#include "obs/obs.hpp"
#include "shard/codec.hpp"

namespace diac::serve {

namespace fs = std::filesystem;

namespace {

// Entries below the cap survive pruning in recency order; the cache
// trims to this fraction of the cap so pruning doesn't re-trigger on
// the very next store.
constexpr double kPruneTargetFraction = 0.8;
constexpr std::uint64_t kPruneEvery = 64;  // stores between prune scans

}  // namespace

ResultCache::ResultCache(CacheConfig config) : config_(std::move(config)) {
  if (config_.dir.empty()) {
    throw std::invalid_argument("result cache: empty cache directory");
  }
  if (config_.build_hash.empty()) {
    config_.build_hash = obs::build_info().git_hash;
  }
}

std::string ResultCache::entry_path(const std::string& kind,
                                    const Hash128& key) const {
  const std::string hex = hash_hex(key);
  return (fs::path(config_.dir) / config_.build_hash / kind /
          hex.substr(0, 2) / (hex + ".row"))
      .string();
}

bool ResultCache::lookup(const std::string& kind, const Hash128& key,
                         std::vector<std::string>& tokens) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const fs::path path = entry_path(kind, key);
  std::ifstream in(path);
  if (!in) {
    DIAC_OBS_COUNT("serve.cache.miss", 1);
    return false;
  }
  try {
    const ShardFile entry = read_shard_stream(in, path.string());
    if (entry.header.kind != kind || entry.header.jobs != 1 ||
        entry.rows.size() != 1 || entry.rows[0].job != 0) {
      throw std::runtime_error("cache entry: wrong shape");
    }
    tokens = entry.rows[0].tokens;
  } catch (const std::exception&) {
    // Damaged (truncated, corrupted, foreign) entry: evict and report a
    // miss so the job is recomputed and the entry rewritten.
    in.close();
    std::error_code ec;
    fs::remove(path, ec);
    DIAC_OBS_COUNT("serve.cache.evict", 1);
    DIAC_OBS_COUNT("serve.cache.miss", 1);
    return false;
  }
  // LRU recency bump: mtime is cache metadata only — it never reaches
  // result bytes, so the filesystem clock is fine here.
  std::error_code ec;
  fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
  DIAC_OBS_COUNT("serve.cache.hit", 1);
  return true;
}

void ResultCache::store(const std::string& kind, const Hash128& key,
                        const std::vector<std::string>& tokens) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const fs::path path = entry_path(kind, key);
  std::error_code ec;
  fs::create_directories(path.parent_path(), ec);
  if (ec) return;  // best-effort: the computed result is already in hand

  // Atomic publish: concurrent writers of the same key race benignly
  // (both write identical bytes, rename is atomic either way).
  try {
    publish_shard_file(path.string(), [&](std::ostream& out) {
      ShardHeader header;
      header.kind = kind;
      header.shards = 1;
      header.index = 0;
      header.jobs = 1;
      write_shard_header(out, header);
      write_shard_row(out, 0, tokens);
      write_shard_trailer(out, 1);
    });
  } catch (const std::exception&) {
    return;  // best-effort: the computed result is already in hand
  }
  DIAC_OBS_COUNT("serve.cache.store", 1);

  if (config_.limit_bytes != 0 && ++stores_since_prune_ >= kPruneEvery) {
    stores_since_prune_ = 0;
    prune();
  }
}

void ResultCache::prune() {
  if (config_.limit_bytes == 0) return;
  const fs::path root = fs::path(config_.dir) / config_.build_hash;
  std::error_code ec;
  if (!fs::is_directory(root, ec)) return;

  struct Entry {
    fs::path path;
    fs::file_time_type mtime;
    std::uint64_t size;
  };
  std::vector<Entry> entries;
  std::uint64_t total = 0;
  for (fs::recursive_directory_iterator it(root, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    Entry e;
    e.path = it->path();
    e.mtime = fs::last_write_time(e.path, ec);
    if (ec) continue;
    e.size = it->file_size(ec);
    if (ec) continue;
    total += e.size;
    entries.push_back(std::move(e));
  }
  if (total <= config_.limit_bytes) return;

  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.mtime < b.mtime; });
  const auto target = static_cast<std::uint64_t>(
      kPruneTargetFraction * static_cast<double>(config_.limit_bytes));
  for (const Entry& e : entries) {
    if (total <= target) break;
    if (fs::remove(e.path, ec)) {
      total -= e.size;
      DIAC_OBS_COUNT("serve.cache.prune", 1);
    }
  }
}

}  // namespace diac::serve
