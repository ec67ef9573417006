#include "power/trace_io.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <system_error>

#include "obs/obs.hpp"
#include "util/csv.hpp"

namespace diac {

namespace {

[[noreturn]] void fail(std::size_t line_no, const char* what) {
  throw std::runtime_error("trace csv line " + std::to_string(line_no) +
                           ": " + what);
}

bool is_blank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && is_blank(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_blank(s.back())) s.remove_suffix(1);
  return s;
}

enum class Field { kNumber, kNotNumeric, kTrailing, kNonFinite };

// One trimmed field: a decimal or scientific number, optionally signed
// ('+' is skipped; from_chars takes '-').  from_chars rounds correctly,
// as strtod does, so values are bit-identical to the historical stod.
Field parse_field(std::string_view field, double& out) {
  const char* first = field.data();
  const char* last = first + field.size();
  if (first != last && *first == '+') {
    ++first;
    if (first != last && *first == '-') return Field::kNotNumeric;
  }
  const auto [end, ec] =
      std::from_chars(first, last, out, std::chars_format::general);
  if (ec == std::errc::invalid_argument) return Field::kNotNumeric;
  if (ec == std::errc::result_out_of_range) return Field::kNonFinite;
  if (end != last) return Field::kTrailing;
  return std::isfinite(out) ? Field::kNumber : Field::kNonFinite;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open trace file: " + path);
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) {  // not a regular file (a pipe, say): read it as a stream
    return std::string(std::istreambuf_iterator<char>(f),
                       std::istreambuf_iterator<char>());
  }
  std::string data(static_cast<std::size_t>(size), '\0');
  if (!f.read(data.data(), static_cast<std::streamsize>(size))) {
    throw std::runtime_error("cannot read trace file: " + path);
  }
  return data;
}

// The whole parser: one pass of memchr line scans over the file's text.
PiecewiseTrace parse_text(std::string_view text) {
  std::vector<PiecewiseTrace::Segment> segs;
  std::uint64_t rows = 0;
  bool header_seen = false;
  std::size_t line_no = 0;
  while (!text.empty()) {
    ++line_no;
    const void* nl = std::memchr(text.data(), '\n', text.size());
    const std::size_t len =
        nl ? static_cast<std::size_t>(static_cast<const char*>(nl) -
                                      text.data())
           : text.size();
    std::string_view line = text.substr(0, len);
    text.remove_prefix(nl ? len + 1 : len);

    if (const std::size_t hash = line.find('#');
        hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    if (trim(line).empty()) continue;
    const std::size_t comma = line.find(',');
    if (comma == std::string_view::npos || comma + 1 == line.size()) {
      fail(line_no, "expected two comma-separated columns");
    }
    const std::size_t comma2 = line.find(',', comma + 1);
    double t = 0, p = 0;
    const Field ft = parse_field(trim(line.substr(0, comma)), t);
    const Field fp =
        parse_field(trim(line.substr(comma + 1, comma2 - comma - 1)), p);
    if (ft == Field::kNotNumeric || fp == Field::kNotNumeric) {
      // Exactly one leading header row is tolerated; anything else
      // non-numeric is a malformed file, not a header.
      if (segs.empty() && !header_seen) {
        header_seen = true;
        continue;
      }
      fail(line_no, "non-numeric sample");
    }
    if (comma2 != std::string_view::npos) {
      fail(line_no, "expected two comma-separated columns");
    }
    if (ft == Field::kTrailing || fp == Field::kTrailing) {
      fail(line_no, "trailing characters after a number");
    }
    if (ft == Field::kNonFinite || fp == Field::kNonFinite) {
      fail(line_no, "non-finite or out-of-range sample");
    }
    ++rows;
    if (p < 0) fail(line_no, "negative power");
    if (!segs.empty()) {
      if (t < segs.back().start) {
        fail(line_no, "timestamps must be non-decreasing");
      }
      if (t == segs.back().start) {
        // Duplicate timestamp: the later sample wins; collapsing it here
        // avoids a zero-width segment whose earlier power is unreachable.
        segs.back().power = p;
        continue;
      }
    }
    segs.push_back({t, p});
  }
  DIAC_OBS_COUNT("power.trace_rows", rows);
  if (segs.empty()) {
    throw std::runtime_error("trace csv: no samples");
  }
  return PiecewiseTrace(std::move(segs));
}

}  // namespace

PiecewiseTrace parse_trace_csv(std::istream& in) {
  const std::string text(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>{});
  return parse_text(text);
}

PiecewiseTrace load_trace_csv(const std::string& path) {
  return parse_text(read_file(path));
}

void save_trace_csv(const std::string& path, const HarvestSource& source,
                    double horizon, double interval) {
  if (horizon <= 0 || interval <= 0) {
    throw std::invalid_argument("save_trace_csv: horizon/interval must be positive");
  }
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_trace_csv: cannot open " + path);
  // The whole file is formatted into one buffer and written in one call.
  // Index-based grid: accumulating `t += interval` drifts after thousands
  // of additions and can emit or drop the sample nearest `horizon`.
  // Samples are written at max_digits10 so load_trace_csv reproduces the
  // source's power_at bit-exactly on the grid.
  constexpr int kDigits = std::numeric_limits<double>::max_digits10;
  std::string text = "time_s,power_W\n";
  const double rows = std::ceil(horizon / interval);
  if (rows < 1.0e7) text.reserve(static_cast<std::size_t>(rows) * 40 + 16);
  for (std::int64_t i = 0;; ++i) {
    const double t = static_cast<double>(i) * interval;
    if (t >= horizon) break;
    append_double(text, t, kDigits);
    text += ',';
    append_double(text, source.power_at(t), kDigits);
    text += '\n';
  }
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.close();
  if (!out) throw std::runtime_error("save_trace_csv: cannot write " + path);
}

}  // namespace diac
