// Unit tests for the observability side channel (src/obs): the tiny
// ordered JSON reader/writer, the metrics registry, span recording, and
// the shard-file merge semantics (counters/histograms sum, gauges max,
// timestamps re-based).  These run against the library API directly, so
// they hold in both DIAC_OBS=ON and =OFF builds.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace diac::obs {
namespace {

namespace fs = std::filesystem;

std::string write_temp(const std::string& name, const std::string& text) {
  const fs::path path = fs::path(::testing::TempDir()) / name;
  std::ofstream out(path);
  out << text;
  out.flush();
  return path.string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// --- JSON -------------------------------------------------------------------

TEST(Obs, JsonParsesNestedDocuments) {
  const JsonValue doc = parse_json(
      R"({"a": 1, "b": [true, null, "x\n"], "c": {"d": 42}})");
  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  EXPECT_EQ(doc.find("a")->as_u64(), 1u);
  const JsonValue* b = doc.find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->items.size(), 3u);
  EXPECT_TRUE(b->items[0].boolean);
  EXPECT_EQ(b->items[1].kind, JsonValue::Kind::kNull);
  EXPECT_EQ(b->items[2].text, "x\n");
  ASSERT_NE(doc.find("c"), nullptr);
  EXPECT_EQ(doc.find("c")->find("d")->as_u64(), 42u);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(Obs, JsonPreservesMemberOrderAndNumericTokens) {
  const JsonValue doc = parse_json(R"({"z": 1.2500, "a": 3})");
  ASSERT_EQ(doc.members.size(), 2u);
  EXPECT_EQ(doc.members[0].first, "z");  // file order, not sorted
  std::ostringstream out;
  write_json(out, doc);
  // The raw token "1.2500" must round-trip exactly.
  EXPECT_EQ(out.str(), R"({"z":1.2500,"a":3})");
}

TEST(Obs, JsonRejectsMalformedInput) {
  EXPECT_THROW(parse_json("{"), std::runtime_error);
  EXPECT_THROW(parse_json(R"({"a": })"), std::runtime_error);
  EXPECT_THROW(parse_json("[1, 2,]"), std::runtime_error);
  EXPECT_THROW(parse_json("{} trailing"), std::runtime_error);
}

TEST(Obs, JsonEscapesControlCharacters) {
  EXPECT_EQ(json_escape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
}

// --- metrics primitives -----------------------------------------------------

TEST(Obs, CounterAndGaugeHoldValues) {
  Counter c;
  c.inc();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  Gauge g;
  g.set(-7);
  EXPECT_EQ(g.value(), -7);
}

TEST(Obs, StripedCounterSumsExactlyAcrossThreads) {
  // Each thread adds into its own cell (more threads than stripes share
  // cells); the read sums every cell, so the total is exact.
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kAdds = 100'000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&c, i] {
      for (std::uint64_t k = 0; k < kAdds; ++k) c.add(i % 2 == 0 ? 1 : 3);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads / 2 * kAdds * (1 + 3));
  c.inc();
  EXPECT_EQ(c.value(), kThreads / 2 * kAdds * (1 + 3) + 1);
}

TEST(Obs, HistogramBucketsByBitWidth) {
  Histogram h;
  h.record(0);    // width 0
  h.record(1);    // width 1
  h.record(2);    // width 2
  h.record(3);    // width 2
  h.record(1u << 20);  // width 21
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 6u + (1u << 20));
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(21), 1u);
  Histogram clamp;
  clamp.record(~std::uint64_t{0});  // width 64 clamps into the last bucket
  EXPECT_EQ(clamp.bucket(Histogram::kBuckets - 1), 1u);
}

TEST(Obs, RegistryReturnsStableReferencesAndSortedExports) {
  Registry& reg = Registry::instance();
  reg.reset_for_testing();
  Counter& a = reg.counter("zz.second");
  Counter& b = reg.counter("aa.first");
  EXPECT_EQ(&a, &reg.counter("zz.second"));
  a.add(2);
  b.add(1);
  reg.gauge("level").set(5);
  reg.histogram("sizes").record(8);

  const auto counters = reg.counter_values();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters.begin()->first, "aa.first");  // ordered map
  EXPECT_EQ(counters.at("zz.second"), 2u);
  EXPECT_EQ(reg.gauge_values().at("level"), 5);
  EXPECT_EQ(reg.histogram_values().at("sizes").count, 1u);
  reg.reset_for_testing();
}

TEST(Obs, MetricsJsonExportIsParseable) {
  Registry& reg = Registry::instance();
  reg.reset_for_testing();
  reg.counter("events").add(9);
  MetricsMeta meta;
  meta.command = "mc";
  meta.shard_index = 1;
  std::ostringstream out;
  write_metrics_json(out, meta);
  const JsonValue doc = parse_json(out.str());
  EXPECT_EQ(doc.find("diac_metrics_version")->as_u64(), 1u);
  ASSERT_NE(doc.find("build"), nullptr);
  EXPECT_NE(doc.find("build")->find("git_hash"), nullptr);
  EXPECT_EQ(doc.find("command")->text, "mc");
  EXPECT_EQ(doc.find("shard_index")->as_u64(), 1u);
  EXPECT_EQ(doc.find("counters")->find("events")->as_u64(), 9u);
  reg.reset_for_testing();
}

// --- merge semantics --------------------------------------------------------

std::string worker_metrics_doc(int shard, std::uint64_t events, int threads) {
  std::ostringstream out;
  out << R"({"diac_metrics_version": 1, "command": "shard-worker",)"
      << R"( "shard_index": )" << shard << R"(, "counters": {"events": )"
      << events << R"(}, "gauges": {"threads": )" << threads
      << R"(}, "histograms": {"jobs": {"count": 1, "sum": )" << events
      << R"(, "buckets": [0,1]}}})";
  return out.str();
}

TEST(Obs, MergeSumsCountersAndTakesMaxGauges) {
  Registry::instance().reset_for_testing();
  const std::string w0 = write_temp("obs_w0.json", worker_metrics_doc(0, 5, 2));
  const std::string w1 = write_temp("obs_w1.json", worker_metrics_doc(1, 7, 4));
  const fs::path out = fs::path(::testing::TempDir()) / "obs_merged.json";
  MetricsMeta meta;
  meta.command = "mc";
  meta.shards_merged = 2;
  std::string err;
  ASSERT_TRUE(merge_metrics_files(out.string(), {w0, w1}, meta, &err)) << err;

  const JsonValue doc = parse_json(slurp(out.string()));
  EXPECT_EQ(doc.find("counters")->find("events")->as_u64(), 12u);  // 5 + 7
  EXPECT_EQ(doc.find("gauges")->find("threads")->as_u64(), 4u);    // max
  const JsonValue* jobs = doc.find("histograms")->find("jobs");
  ASSERT_NE(jobs, nullptr);
  EXPECT_EQ(jobs->find("count")->as_u64(), 2u);
  EXPECT_EQ(jobs->find("sum")->as_u64(), 12u);
  EXPECT_EQ(jobs->find("buckets")->items[1].as_u64(), 2u);
  EXPECT_EQ(doc.find("shards_merged")->as_u64(), 2u);
  Registry::instance().reset_for_testing();
}

TEST(Obs, MergeFailsCleanlyOnMissingOrBadFiles) {
  MetricsMeta meta;
  std::string err;
  const fs::path out = fs::path(::testing::TempDir()) / "obs_merged_bad.json";
  EXPECT_FALSE(
      merge_metrics_files(out.string(), {"/nonexistent.json"}, meta, &err));
  EXPECT_FALSE(err.empty());
  const std::string bad = write_temp("obs_bad.json", "{ not json");
  EXPECT_FALSE(merge_metrics_files(out.string(), {bad}, meta, &err));
}

TEST(Obs, StatsTableRendersCountersAndHistograms) {
  const std::string path =
      write_temp("obs_stats.json", worker_metrics_doc(0, 5, 2));
  std::ostringstream out;
  std::string err;
  ASSERT_TRUE(print_metrics_file(path, out, &err)) << err;
  const std::string table = out.str();
  EXPECT_NE(table.find("command: shard-worker"), std::string::npos);
  EXPECT_NE(table.find("events"), std::string::npos);
  EXPECT_NE(table.find("count=1 sum=5 mean=5"), std::string::npos);
}

// --- spans ------------------------------------------------------------------

TEST(Obs, SpansRecordOnlyWhileTracingIsEnabled) {
  clear_spans_for_testing();
  ASSERT_FALSE(tracing_enabled());
  { const SpanGuard off("idle", "test"); }
  EXPECT_EQ(recorded_span_count(), 0u);

  set_tracing_enabled(true);
  { const SpanGuard on("work", "test", "jobs", 3); }
  set_tracing_enabled(false);
  EXPECT_EQ(recorded_span_count(), 1u);

  TraceMeta meta;
  meta.pid = 7;
  meta.process_name = "unit test";
  std::ostringstream out;
  write_trace_json(out, meta);
  const JsonValue doc = parse_json(out.str());
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  // Two process metadata records plus the one span.
  ASSERT_EQ(events->items.size(), 3u);
  EXPECT_EQ(events->items[0].find("name")->text, "process_name");
  const JsonValue& span = events->items[2];
  EXPECT_EQ(span.find("name")->text, "work");
  EXPECT_EQ(span.find("ph")->text, "X");
  EXPECT_EQ(span.find("pid")->as_u64(), 7u);
  EXPECT_EQ(span.find("ts")->number, 0.0);  // rebased to the first span
  EXPECT_EQ(span.find("args")->find("jobs")->as_u64(), 3u);
  clear_spans_for_testing();
}

TEST(Obs, TraceMergeRebasesAllProcessesToCommonZero) {
  clear_spans_for_testing();
  const std::string worker = write_temp(
      "obs_worker_trace.json",
      R"({"traceEvents": [)"
      R"({"name":"a","cat":"t","ph":"X","ts":5000.500,"dur":10.0,)"
      R"("pid":0,"tid":0},)"
      R"({"name":"b","cat":"t","ph":"X","ts":6000.000,"dur":10.0,)"
      R"("pid":1,"tid":0}]})");
  const fs::path out_path =
      fs::path(::testing::TempDir()) / "obs_trace_merged.json";
  TraceMeta parent;
  parent.pid = 2;
  parent.process_name = "coordinator";
  std::string err;
  ASSERT_TRUE(merge_trace_files(out_path.string(), {worker}, parent, &err))
      << err;

  const JsonValue doc = parse_json(slurp(out_path.string()));
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items.size(), 4u);  // 2 meta + 2 worker events
  const JsonValue& a = events->items[2];
  const JsonValue& b = events->items[3];
  EXPECT_EQ(a.find("ts")->number, 0.0);  // earliest event becomes t=0
  EXPECT_EQ(b.find("ts")->number, 999.5);
  EXPECT_EQ(a.find("pid")->as_u64(), 0u);  // worker pids survive the merge
  EXPECT_EQ(b.find("pid")->as_u64(), 1u);
}

}  // namespace
}  // namespace diac::obs
