// Reference trace CSV parser for differential tests of parse_trace_csv.
//
// The straightforward getline + stringstream + std::stod reading of the
// two-column (time, power) format: one optional header row, '#'
// comments, blank lines, non-decreasing times with last-wins duplicate
// timestamps.  It is laxer than production on malformed fields (stod
// accepts `1.5abc` as 1.5, and `nan`/`inf`), so differentials compare
// the two only on well-formed input, where they must agree bit for bit.
#pragma once

#include <istream>

#include "power/harvester.hpp"

namespace diac {

PiecewiseTrace reference_parse_trace_csv(std::istream& in);

}  // namespace diac
