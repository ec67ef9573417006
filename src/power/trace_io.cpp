#include "power/trace_io.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <system_error>

#include "obs/obs.hpp"
#include "util/csv.hpp"
#include "util/lexer.hpp"

namespace diac {

namespace {

// Every error names its line: "trace csv line N: ...".
constexpr std::string_view kWhere = "trace csv line ";

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

}  // namespace

// The whole parser: one pass of memchr line scans over the file's text.
PiecewiseTrace parse_trace_csv(std::string_view text) {
  std::vector<PiecewiseTrace::Segment> segs;
  std::uint64_t rows = 0;
  bool header_seen = false;
  std::size_t line_no = 0;
  while (!text.empty()) {
    ++line_no;
    std::string_view line = next_line(text);

    if (const std::size_t hash = line.find('#');
        hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    if (trim_blanks(line).empty()) continue;
    const std::size_t comma = line.find(',');
    if (comma == std::string_view::npos || comma + 1 == line.size()) {
      throw_at_line(kWhere, line_no, "expected two comma-separated columns");
    }
    const std::size_t comma2 = line.find(',', comma + 1);
    double t = 0, p = 0;
    const Field ft = parse_field(trim_blanks(line.substr(0, comma)), t);
    const Field fp =
        parse_field(trim_blanks(line.substr(comma + 1, comma2 - comma - 1)), p);
    if (ft == Field::kNotNumeric || fp == Field::kNotNumeric) {
      // Exactly one leading header row is tolerated; anything else
      // non-numeric is a malformed file, not a header.
      if (segs.empty() && !header_seen) {
        header_seen = true;
        continue;
      }
      throw_at_line(kWhere, line_no, "non-numeric sample");
    }
    if (comma2 != std::string_view::npos) {
      throw_at_line(kWhere, line_no, "expected two comma-separated columns");
    }
    if (ft == Field::kTrailing || fp == Field::kTrailing) {
      throw_at_line(kWhere, line_no, "trailing characters after a number");
    }
    if (ft == Field::kNonFinite || fp == Field::kNonFinite) {
      throw_at_line(kWhere, line_no, "non-finite or out-of-range sample");
    }
    ++rows;
    if (p < 0) throw_at_line(kWhere, line_no, "negative power");
    if (!segs.empty()) {
      if (t < segs.back().start) {
        throw_at_line(kWhere, line_no, "timestamps must be non-decreasing");
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

PiecewiseTrace load_trace_csv(const std::string& path) {
  return parse_trace_csv(read_text_file(path, "trace"));
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
