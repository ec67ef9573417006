// Reference CSV writers for byte-identity tests of the buffered writers
// (save_trace_csv, CsvWriter::add_row over doubles).
//
// The straightforward ostream formatting: each number goes through its
// own ostringstream at the requested precision (the stream default of 6
// significant digits when precision <= 0), and rows are written through
// an ofstream cell by cell.  Production formats with std::to_chars into
// one buffer; the two must agree byte for byte.
#pragma once

#include <string>
#include <vector>

#include "power/harvester.hpp"

namespace diac {

// One CSV line ("a,b,...\n") of `values` as the ostream path prints it.
std::string reference_csv_row(const std::vector<double>& values,
                              int precision = 0);

// save_trace_csv's file, written through the ostream path: a
// "time_s,power_W" header, then source.power_at(i * interval) for every
// i * interval < horizon, both columns at max_digits10.
void reference_save_trace_csv(const std::string& path,
                              const HarvestSource& source, double horizon,
                              double interval);

}  // namespace diac
