#include "obs/metrics.hpp"

#include <bit>
#include <fstream>
#include <iomanip>

#include "obs/build_info.hpp"
#include "obs/json.hpp"

namespace diac::obs {

std::size_t Counter::assign_stripe() {
  static std::atomic<std::size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) % kStripes;
}

void Histogram::record(std::uint64_t sample) {
  const auto width = static_cast<std::size_t>(std::bit_width(sample));
  const std::size_t bucket = width < kBuckets ? width : kBuckets - 1;
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(sample, std::memory_order_relaxed);
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::map<std::string, std::uint64_t> Registry::counter_values() const {
  std::map<std::string, std::uint64_t> out;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, counter] : counters_) out[name] = counter->value();
  return out;
}

std::map<std::string, std::int64_t> Registry::gauge_values() const {
  std::map<std::string, std::int64_t> out;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, gauge] : gauges_) out[name] = gauge->value();
  return out;
}

std::map<std::string, Registry::HistogramValue> Registry::histogram_values()
    const {
  std::map<std::string, HistogramValue> out;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, hist] : histograms_) {
    HistogramValue h;
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      h.buckets[i] = hist->bucket(i);
    }
    h.count = hist->count();
    h.sum = hist->sum();
    out[name] = h;
  }
  return out;
}

void Registry::reset_for_testing() {
  const std::lock_guard<std::mutex> lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

namespace {

/// In-memory merged view of one or more metrics documents.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  struct Hist {
    std::array<std::uint64_t, Histogram::kBuckets> buckets{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
  };
  std::map<std::string, Hist> histograms;
};

/// Adds the values of a parsed metrics document into `snap` (counters
/// and histograms sum; gauges take the maximum).
void accumulate(Snapshot& snap, const JsonValue& doc) {
  if (const JsonValue* counters = doc.find("counters")) {
    for (const auto& [name, value] : counters->members) {
      snap.counters[name] += value.as_u64();
    }
  }
  if (const JsonValue* gauges = doc.find("gauges")) {
    for (const auto& [name, value] : gauges->members) {
      const auto v = static_cast<std::int64_t>(value.number);
      auto [it, inserted] = snap.gauges.emplace(name, v);
      if (!inserted && v > it->second) it->second = v;
    }
  }
  if (const JsonValue* hists = doc.find("histograms")) {
    for (const auto& [name, value] : hists->members) {
      Snapshot::Hist& h = snap.histograms[name];
      if (const JsonValue* count = value.find("count")) {
        h.count += count->as_u64();
      }
      if (const JsonValue* sum = value.find("sum")) h.sum += sum->as_u64();
      if (const JsonValue* buckets = value.find("buckets")) {
        for (std::size_t i = 0;
             i < buckets->items.size() && i < Histogram::kBuckets; ++i) {
          h.buckets[i] += buckets->items[i].as_u64();
        }
      }
    }
  }
}

void write_snapshot(std::ostream& out, const Snapshot& snap,
                    const MetricsMeta& meta) {
  out << "{\n  \"diac_metrics_version\": 1,\n  \"build\": ";
  write_build_info_json(out);
  out << ",\n  \"command\": \"" << json_escape(meta.command) << "\"";
  if (meta.shard_index >= 0) {
    out << ",\n  \"shard_index\": " << meta.shard_index;
  }
  if (meta.shards_merged > 0) {
    out << ",\n  \"shards_merged\": " << meta.shards_merged;
  }
  out << ",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    out << (first ? "" : ",") << "\n    \"" << json_escape(name)
        << "\": " << value;
    first = false;
  }
  out << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    out << (first ? "" : ",") << "\n    \"" << json_escape(name)
        << "\": " << value;
    first = false;
  }
  out << "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    out << (first ? "" : ",") << "\n    \"" << json_escape(name)
        << "\": {\"count\": " << h.count << ", \"sum\": " << h.sum
        << ", \"buckets\": [";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      out << (i == 0 ? "" : ",") << h.buckets[i];
    }
    out << "]}";
    first = false;
  }
  out << "\n  }\n}\n";
}

Snapshot registry_snapshot() {
  Snapshot snap;
  Registry& reg = Registry::instance();
  snap.counters = reg.counter_values();
  snap.gauges = reg.gauge_values();
  for (const auto& [name, hv] : reg.histogram_values()) {
    Snapshot::Hist h;
    h.buckets = hv.buckets;
    h.count = hv.count;
    h.sum = hv.sum;
    snap.histograms[name] = h;
  }
  return snap;
}

}  // namespace

void write_metrics_json(std::ostream& out, const MetricsMeta& meta) {
  write_snapshot(out, registry_snapshot(), meta);
}

bool write_metrics_file(const std::string& path, const MetricsMeta& meta,
                        std::string* err) {
  std::ofstream out(path);
  if (!out) {
    if (err) *err = "cannot open " + path + " for writing";
    return false;
  }
  write_metrics_json(out, meta);
  out.flush();
  if (!out) {
    if (err) *err = "write to " + path + " failed";
    return false;
  }
  return true;
}

bool merge_metrics_files(const std::string& out_path,
                         const std::vector<std::string>& shard_paths,
                         const MetricsMeta& meta, std::string* err) {
  Snapshot snap = registry_snapshot();
  for (const std::string& path : shard_paths) {
    JsonValue doc;
    if (!load_json_file(path, "metrics", &doc, err)) return false;
    accumulate(snap, doc);
  }
  std::ofstream out(out_path);
  if (!out) {
    if (err) *err = "cannot open " + out_path + " for writing";
    return false;
  }
  write_snapshot(out, snap, meta);
  out.flush();
  if (!out) {
    if (err) *err = "write to " + out_path + " failed";
    return false;
  }
  return true;
}

bool print_metrics_file(const std::string& path, std::ostream& out,
                        std::string* err) {
  JsonValue doc;
  if (!load_json_file(path, "metrics", &doc, err)) return false;

  if (const JsonValue* build = doc.find("build")) {
    const JsonValue* hash = build->find("git_hash");
    const JsonValue* compiler = build->find("compiler");
    const JsonValue* type = build->find("build_type");
    out << "build:   " << (hash ? hash->text : "?") << " ("
        << (compiler ? compiler->text : "?") << ", "
        << (type ? type->text : "?") << ")\n";
  }
  if (const JsonValue* command = doc.find("command")) {
    out << "command: " << command->text;
    if (const JsonValue* shards = doc.find("shards_merged")) {
      out << "  (merged from " << shards->as_u64() << " shard workers)";
    }
    out << "\n";
  }

  std::size_t width = 8;
  const JsonValue* counters = doc.find("counters");
  const JsonValue* gauges = doc.find("gauges");
  const JsonValue* hists = doc.find("histograms");
  if (counters) {
    for (const auto& [name, value] : counters->members) {
      (void)value;
      if (name.size() > width) width = name.size();
    }
  }
  if (gauges) {
    for (const auto& [name, value] : gauges->members) {
      (void)value;
      if (name.size() > width) width = name.size();
    }
  }
  if (hists) {
    for (const auto& [name, value] : hists->members) {
      (void)value;
      if (name.size() > width) width = name.size();
    }
  }

  if (counters && !counters->members.empty()) {
    out << "\ncounters:\n";
    for (const auto& [name, value] : counters->members) {
      out << "  " << std::left << std::setw(static_cast<int>(width)) << name
          << "  " << value.as_u64() << "\n";
    }
  }
  if (gauges && !gauges->members.empty()) {
    out << "\ngauges:\n";
    for (const auto& [name, value] : gauges->members) {
      out << "  " << std::left << std::setw(static_cast<int>(width)) << name
          << "  " << static_cast<std::int64_t>(value.number) << "\n";
    }
  }
  if (hists && !hists->members.empty()) {
    out << "\nhistograms:\n";
    for (const auto& [name, value] : hists->members) {
      const std::uint64_t count =
          value.find("count") ? value.find("count")->as_u64() : 0;
      const std::uint64_t sum =
          value.find("sum") ? value.find("sum")->as_u64() : 0;
      out << "  " << std::left << std::setw(static_cast<int>(width)) << name
          << "  count=" << count << " sum=" << sum;
      if (count > 0) out << " mean=" << (sum / count);
      out << "\n";
    }
  }
  return true;
}

}  // namespace diac::obs
