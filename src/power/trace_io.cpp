#include "power/trace_io.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
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

// A UTF-8 byte order mark, skipped once before line 1.
constexpr std::string_view kBom = "\xEF\xBB\xBF";

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

// 10^0 .. 10^22, every power of ten a double holds exactly.
constexpr double kPow10[] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
                             1e8,  1e9,  1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
                             1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};
constexpr int kMaxFractionDigits = 22;
constexpr std::uint64_t kMaxExactMantissa = std::uint64_t{1} << 53;

// Reads a short decimal `D+('.'D+)?` at `p`: its digits, read as one
// integer m, stay <= 2^53, and it has at most 22 fraction digits f.  Then
// double(m) and 10^f are exact and m / 10^f rounds once, correctly, to the
// double from_chars returns for the same text (Clinger, "How to Read
// Floating Point Numbers Accurately", PLDI 1990).  Returns the end of the
// number, or nullptr when the text at `p` has any other shape.
const char* read_short_decimal(const char* p, const char* end, double& out) {
  std::uint64_t m = 0;
  const auto digits = [&] {
    const char* first = p;
    for (; p != end && static_cast<unsigned char>(*p - '0') < 10; ++p) {
      m = m * 10 + static_cast<unsigned char>(*p - '0');
      if (m > kMaxExactMantissa) return false;
    }
    return p != first;
  };
  if (!digits()) return nullptr;
  long fraction = 0;
  if (p != end && *p == '.') {
    const char* point = ++p;
    if (!digits()) return nullptr;
    fraction = p - point;
    if (fraction > kMaxFractionDigits) return nullptr;
  }
  out = static_cast<double>(m) / kPow10[fraction];
  return p;
}

// The end of the line end (\n, \r\n or the end of the text) at `p`, or
// nullptr when `p` is not at one.
const char* line_end(const char* p, const char* end) {
  if (p == end) return p;
  if (*p == '\n') return p + 1;
  if (*p == '\r' && end - p > 1 && p[1] == '\n') return p + 2;
  return nullptr;
}

// The row lane: reads the common row `time,power` + line end in one
// pointer pass.  The time is a short decimal; the power either repeats the
// bytes of `last_power`, the previous accepted row's trimmed power field,
// and so takes its value `last_value`, or is a short decimal.  Returns the
// start of the next line, or nullptr when the row has any other shape; the
// general line path then reads it.  A row read here has no blanks,
// comment or third column, so the general path would read the same two
// doubles.
const char* read_lane_row(const char* p, const char* end,
                          std::string_view last_power, double last_value,
                          double& t, double& power,
                          std::string_view& power_field) {
  p = read_short_decimal(p, end, t);
  if (p == nullptr || p == end || *p != ',') return nullptr;
  const char* field = ++p;
  const std::size_t size = last_power.size();
  if (static_cast<std::size_t>(end - field) >= size &&
      std::memcmp(field, last_power.data(), size) == 0) {
    if (const char* next = line_end(field + size, end)) {
      power = last_value;
      power_field = last_power;
      return next;
    }
  }
  p = read_short_decimal(field, end, power);
  if (p == nullptr) return nullptr;
  power_field = std::string_view(field, static_cast<std::size_t>(p - field));
  return line_end(p, end);
}

}  // namespace

// The whole parser: one pass over the file's text.  Once a sample is read,
// each row is tried on the row lane first; any row the lane does not take
// is read by the general line path, which alone decides headers, comments,
// duplicates and errors.
PiecewiseTrace parse_trace_csv(std::string_view text) {
  DIAC_OBS_COUNT("power.trace_bytes", text.size());
  if (text.substr(0, kBom.size()) == kBom) text.remove_prefix(kBom.size());
  std::vector<PiecewiseTrace::Segment> segs;
  std::uint64_t rows = 0;
  bool header_seen = false;
  std::size_t line_no = 0;
  std::string_view last_power;  // the power field of the last accepted row
  const char* const end = text.data() + text.size();
  while (!text.empty()) {
    ++line_no;
    if (!segs.empty()) {
      double t = 0, p = 0;
      std::string_view field;
      const char* next = read_lane_row(text.data(), end, last_power,
                                       segs.back().power, t, p, field);
      if (next != nullptr && t > segs.back().start) {
        ++rows;
        segs.push_back({t, p});
        last_power = field;
        text.remove_prefix(static_cast<std::size_t>(next - text.data()));
        continue;
      }
    }
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
    const std::string_view power_field =
        trim_blanks(line.substr(comma + 1, comma2 - comma - 1));
    double t = 0, p = 0;
    const Field ft = parse_field(trim_blanks(line.substr(0, comma)), t);
    const Field fp = parse_field(power_field, p);
    if (ft == Field::kNotNumeric || fp == Field::kNotNumeric) {
      if (line.find(kBom) != std::string_view::npos) {
        throw_at_line(kWhere, line_no,
                      "byte order mark after the start of the file");
      }
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
    last_power = power_field;
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
  const std::string text = read_text_file(path, "trace");
  DIAC_TRACE_SPAN("trace_csv.parse", "power");
  return parse_trace_csv(text);
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
