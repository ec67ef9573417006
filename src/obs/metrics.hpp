#pragma once
/// \file
/// Process-wide metrics registry: counters, gauges and histograms.
///
/// Counting is always on (atomic integer adds, a few ns per update) and
/// is exported only when a run passes `--metrics-out <file>`; `diac
/// stats <file.json>` renders the export as a table.  All values are
/// integers and all updates are associative, so totals are bit-identical
/// at any `--threads` count, and the shard coordinator can merge worker
/// files by plain summation.  Metrics are a side channel: diac-lint D6
/// enforces that nothing here flows into reports, CSV or RunStats.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace diac::obs {

struct JsonValue;

/// Monotonic event counter, striped to keep threads off each other's
/// cache lines: each thread adds into its own cache-line-aligned cell
/// (threads beyond kStripes share cells round-robin) and value() sums the
/// cells.  Updates are relaxed atomic adds and integer addition is
/// associative, so totals are exact and thread-count invariant.
class Counter {
 public:
  static constexpr std::size_t kStripes = 16;

  void add(std::uint64_t n) {
    cells_[stripe()].value.fetch_add(n, std::memory_order_relaxed);
  }
  void inc() { add(1); }
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Cell& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> value{0};
  };

  /// This thread's cell index, assigned on the thread's first add.
  static std::size_t stripe() {
    if (thread_stripe_ == kUnassigned) thread_stripe_ = assign_stripe();
    return thread_stripe_;
  }
  static std::size_t assign_stripe();

  static constexpr std::size_t kUnassigned = ~std::size_t{0};
  static inline thread_local std::size_t thread_stripe_ = kUnassigned;

  std::array<Cell, kStripes> cells_{};
};

/// Last-written level value (e.g. configured thread count).  Shard
/// merges take the maximum across workers.
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Power-of-two bucketed histogram of non-negative integer samples.
/// Bucket i counts samples whose bit width is i (bucket 0 holds zeros),
/// so bucket boundaries are exact and merges are elementwise sums.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 33;  ///< bit widths 0..32+, clamped

  void record(std::uint64_t sample);
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Process-wide named-metric registry.  Lookup takes a mutex and is
/// meant to happen once per call site (the DIAC_OBS_* macros cache the
/// returned reference in a local static); updates through the returned
/// references are lock-free.  Storage is an ordered map so exports are
/// deterministically sorted (diac-lint D2).
class Registry {
 public:
  /// The process-wide instance.
  static Registry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Point-in-time copy of a histogram's state (export helper).
  struct HistogramValue {
    std::array<std::uint64_t, Histogram::kBuckets> buckets{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
  };

  /// Point-in-time copies of all registered metrics, sorted by name.
  std::map<std::string, std::uint64_t> counter_values() const;
  std::map<std::string, std::int64_t> gauge_values() const;
  std::map<std::string, HistogramValue> histogram_values() const;

  /// Drops all registered metrics.  Only for unit tests; call sites
  /// cache references, so never call this while instrumented code runs.
  void reset_for_testing();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Header fields recorded alongside the metric values.
struct MetricsMeta {
  std::string command;    ///< CLI subcommand that produced the file
  int shard_index = -1;   ///< this worker's shard index, or -1 for the parent
  int shards_merged = 0;  ///< number of worker files merged in (parent only)
};

/// Writes the registry's current values as a metrics JSON document.
void write_metrics_json(std::ostream& out, const MetricsMeta& meta);

/// Writes the registry to `path`.  Returns false and fills `*err` on
/// I/O failure.
bool write_metrics_file(const std::string& path, const MetricsMeta& meta,
                        std::string* err);

/// Merges per-shard metrics files with this process's own registry into
/// `out_path`: counters and histograms sum, gauges take the maximum.
bool merge_metrics_files(const std::string& out_path,
                         const std::vector<std::string>& shard_paths,
                         const MetricsMeta& meta, std::string* err);

/// Renders a metrics JSON file as an aligned human-readable table
/// (the `diac stats <file.json>` view).  Returns false on parse error.
bool print_metrics_file(const std::string& path, std::ostream& out,
                        std::string* err);

}  // namespace diac::obs
