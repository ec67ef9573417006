// CSV writer for benchmark outputs (time series for the figure
// reproductions are emitted both as ASCII tables and as CSV files so they
// can be re-plotted).
#pragma once

#include <fstream>
#include <string>
#include <vector>

namespace diac {

class CsvWriter {
 public:
  // Opens `path` for writing and emits the header line.  Throws
  // std::runtime_error when the file cannot be opened.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);

  void add_row(const std::vector<std::string>& cells);
  // precision <= 0 keeps the stream default (6 significant digits);
  // pass std::numeric_limits<double>::max_digits10 for lossless
  // round-trippable output.  Cells are formatted by append_double.
  void add_row(const std::vector<double>& values, int precision = 0);

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::ofstream out_;
  std::size_t columns_;
  std::string line_;  // row buffer, reused across add_row calls
};

// Escapes a cell per RFC 4180 (quotes cells containing comma/quote/newline).
std::string csv_escape(const std::string& cell);

// Appends `v` with `precision` significant digits (<= 0 means 6) as
// printf("%.*g") formats it in the C locale, which is byte for byte what
// an ostream at that precision prints.  No allocation beyond `out`'s own
// growth.
void append_double(std::string& out, double v, int precision = 0);

}  // namespace diac
