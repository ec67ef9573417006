#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>

#include "obs/build_info.hpp"
#include "obs/json.hpp"

namespace diac::obs {
namespace {

struct SpanRecord {
  const char* name;
  const char* cat;
  const char* arg_name;  // nullptr when absent
  std::uint64_t arg;
  std::uint64_t t0_ns;
  std::uint64_t t1_ns;
  std::uint32_t tid;
};

struct ThreadBuffer {
  std::mutex mutex;  // touched by the owner per push and by the exporter
  std::vector<SpanRecord> spans;
  std::uint32_t tid = 0;
};

struct TraceState {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::uint32_t next_tid = 0;
};

TraceState& state() {
  static TraceState s;
  return s;
}

std::atomic<bool> g_enabled{false};

// The shared_ptr keeps the buffer alive past thread exit so spans from
// short-lived pool threads still appear in the export; tids are assigned
// in registration order (main thread first), which is what the trace
// viewer sorts by.
ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buf = [] {
    auto b = std::make_shared<ThreadBuffer>();
    TraceState& s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    b->tid = s.next_tid++;
    s.buffers.push_back(b);
    return b;
  }();
  return *buf;
}

std::vector<SpanRecord> collect_spans() {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    TraceState& s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    buffers = s.buffers;
  }
  std::vector<SpanRecord> all;
  for (const auto& b : buffers) {
    const std::lock_guard<std::mutex> lock(b->mutex);
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  std::sort(all.begin(), all.end(), [](const SpanRecord& a,
                                       const SpanRecord& b) {
    if (a.t0_ns != b.t0_ns) return a.t0_ns < b.t0_ns;
    return a.tid < b.tid;
  });
  return all;
}

void write_ts_us(std::ostream& out, std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  out << buf;
}

void write_span_event(std::ostream& out, const SpanRecord& s, int pid,
                      std::uint64_t base_ns) {
  out << "{\"name\":\"" << json_escape(s.name) << "\",\"cat\":\""
      << json_escape(s.cat) << "\",\"ph\":\"X\",\"ts\":";
  write_ts_us(out, s.t0_ns - base_ns);
  out << ",\"dur\":";
  write_ts_us(out, s.t1_ns - s.t0_ns);
  out << ",\"pid\":" << pid << ",\"tid\":" << s.tid;
  if (s.arg_name != nullptr) {
    out << ",\"args\":{\"" << json_escape(s.arg_name) << "\":" << s.arg << "}";
  }
  out << "}";
}

void write_process_meta(std::ostream& out, int pid, const std::string& name) {
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
      << ",\"tid\":0,\"args\":{\"name\":\"" << json_escape(name) << "\"}},\n"
      << "  {\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":" << pid
      << ",\"tid\":0,\"args\":{\"sort_index\":" << pid << "}}";
}

void write_document_header(std::ostream& out) {
  out << "{\n  \"diac_trace_version\": 1,\n  \"displayTimeUnit\": \"ms\",\n"
      << "  \"build\": ";
  write_build_info_json(out);
  out << ",\n  \"traceEvents\": [\n  ";
}

}  // namespace

std::uint64_t trace_now_ns() {
  // diac-lint: allow(D1) wall-clock is the tracer's payload; it reaches only side-channel trace files, never results (rule D6 guards that boundary)
  const auto since_epoch = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(since_epoch)
          .count());
}

bool tracing_enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_tracing_enabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

SpanGuard::SpanGuard(const char* name, const char* cat)
    : name_(name), cat_(cat), arg_name_(nullptr) {
  if (!tracing_enabled()) return;
  t0_ns_ = trace_now_ns();
  armed_ = true;
}

SpanGuard::SpanGuard(const char* name, const char* cat, const char* arg_name,
                     std::uint64_t arg)
    : name_(name), cat_(cat), arg_name_(arg_name), arg_(arg) {
  if (!tracing_enabled()) return;
  t0_ns_ = trace_now_ns();
  armed_ = true;
}

SpanGuard::~SpanGuard() {
  if (!armed_) return;
  const std::uint64_t t1 = trace_now_ns();
  ThreadBuffer& buf = local_buffer();
  const std::lock_guard<std::mutex> lock(buf.mutex);
  buf.spans.push_back(
      SpanRecord{name_, cat_, arg_name_, arg_, t0_ns_, t1, buf.tid});
}

void write_trace_json(std::ostream& out, const TraceMeta& meta) {
  const std::vector<SpanRecord> spans = collect_spans();
  std::uint64_t base = 0;
  if (meta.rebase && !spans.empty()) base = spans.front().t0_ns;
  write_document_header(out);
  write_process_meta(out, meta.pid, meta.process_name);
  for (const SpanRecord& s : spans) {
    out << ",\n  ";
    write_span_event(out, s, meta.pid, base);
  }
  out << "\n  ]\n}\n";
}

bool write_trace_file(const std::string& path, const TraceMeta& meta,
                      std::string* err) {
  std::ofstream out(path);
  if (!out) {
    if (err) *err = "cannot open " + path + " for writing";
    return false;
  }
  write_trace_json(out, meta);
  out.flush();
  if (!out) {
    if (err) *err = "write to " + path + " failed";
    return false;
  }
  return true;
}

bool merge_trace_files(const std::string& out_path,
                       const std::vector<std::string>& shard_paths,
                       const TraceMeta& parent, std::string* err) {
  const std::vector<SpanRecord> own = collect_spans();

  // Load every worker document up front to find the global time base.
  std::vector<JsonValue> docs;
  docs.reserve(shard_paths.size());
  for (const std::string& path : shard_paths) {
    if (!load_json_file(path, "shard trace", &docs.emplace_back(), err)) {
      return false;
    }
  }

  double base_us = std::numeric_limits<double>::max();
  for (const SpanRecord& s : own) {
    base_us = std::min(base_us, static_cast<double>(s.t0_ns) / 1000.0);
  }
  for (const JsonValue& doc : docs) {
    const JsonValue* events = doc.find("traceEvents");
    if (events == nullptr) continue;
    for (const JsonValue& ev : events->items) {
      if (const JsonValue* ts = ev.find("ts")) {
        base_us = std::min(base_us, ts->number);
      }
    }
  }
  if (base_us == std::numeric_limits<double>::max()) base_us = 0.0;
  const auto base_ns = static_cast<std::uint64_t>(base_us * 1000.0);

  std::ofstream out(out_path);
  if (!out) {
    if (err) *err = "cannot open " + out_path + " for writing";
    return false;
  }
  write_document_header(out);
  write_process_meta(out, parent.pid, parent.process_name);
  for (const SpanRecord& s : own) {
    out << ",\n  ";
    write_span_event(out, s, parent.pid, base_ns);
  }
  for (const JsonValue& doc : docs) {
    const JsonValue* events = doc.find("traceEvents");
    if (events == nullptr) continue;
    for (const JsonValue& ev : events->items) {
      JsonValue adjusted = ev;
      for (auto& [key, value] : adjusted.members) {
        if (key == "ts" && value.kind == JsonValue::Kind::kNumber) {
          char buf[48];
          std::snprintf(buf, sizeof buf, "%.3f", value.number - base_us);
          value.raw = buf;
          value.number -= base_us;
        }
      }
      out << ",\n  ";
      write_json(out, adjusted);
    }
  }
  out << "\n  ]\n}\n";
  out.flush();
  if (!out) {
    if (err) *err = "write to " + out_path + " failed";
    return false;
  }
  return true;
}

std::size_t recorded_span_count() {
  std::size_t n = 0;
  TraceState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  for (const auto& b : s.buffers) {
    const std::lock_guard<std::mutex> inner(b->mutex);
    n += b->spans.size();
  }
  return n;
}

void clear_spans_for_testing() {
  TraceState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  for (const auto& b : s.buffers) {
    const std::lock_guard<std::mutex> inner(b->mutex);
    b->spans.clear();
  }
}

}  // namespace diac::obs
