#include "util/csv.hpp"

#include <charconv>
#include <stdexcept>

namespace diac {

std::string csv_escape(const std::string& cell) {
  const bool needs_quotes =
      cell.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return cell;
  std::string out = "\"";
  for (char ch : cell) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

void append_double(std::string& out, double v, int precision) {
  // to_chars with an explicit precision is specified as printf("%.*g") in
  // the C locale, the conversion the ostream path performs.  %.*g output
  // is at most precision + 7 characters ("-0.0000" + digits, or a sign,
  // point and "e-308" around them).
  const int digits = precision > 0 ? precision : 6;
  char buf[64];
  if (digits <= 48) {
    const auto r = std::to_chars(buf, buf + sizeof buf, v,
                                 std::chars_format::general, digits);
    out.append(buf, r.ptr);
    return;
  }
  std::string wide(static_cast<std::size_t>(digits) + 8, '\0');
  const auto r = std::to_chars(wide.data(), wide.data() + wide.size(), v,
                               std::chars_format::general, digits);
  out.append(wide.data(), r.ptr);
}

CsvWriter::CsvWriter(const std::string& path,
                     const std::vector<std::string>& header)
    : path_(path), out_(path), columns_(header.size()) {
  if (!out_) {
    throw std::runtime_error("CsvWriter: cannot open " + path);
  }
  add_row(header);
}

void CsvWriter::add_row(const std::vector<std::string>& cells) {
  if (cells.size() != columns_) {
    throw std::invalid_argument("CsvWriter: wrong cell count for " + path_);
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) out_ << ',';
    out_ << csv_escape(cells[i]);
  }
  out_ << '\n';
}

void CsvWriter::add_row(const std::vector<double>& values, int precision) {
  if (values.size() != columns_) {
    throw std::invalid_argument("CsvWriter: wrong cell count for " + path_);
  }
  // A formatted number never holds a comma, quote or newline, so cells
  // need no escaping.
  line_.clear();
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) line_ += ',';
    append_double(line_, values[i], precision);
  }
  line_ += '\n';
  out_.write(line_.data(), static_cast<std::streamsize>(line_.size()));
}

}  // namespace diac
