// Harvest-trace file I/O.
//
// Real deployments log their supply as timestamped power samples; this
// module loads such logs (two-column CSV: time_s, power_W — header
// optional) into a PiecewiseTrace for replay, and saves any HarvestSource
// by sampling it.  This is the drop-in path for users with measured RFID
// or solar traces.
#pragma once

#include <string>
#include <string_view>

#include "power/harvester.hpp"

namespace diac {

// Loads a two-column CSV (time, power) into a step-function trace.
// Grammar, per line (LF or CRLF), after one skipped UTF-8 byte order mark
// at the very start of the text (a BOM anywhere else fails at its line):
//   - everything from a '#' on is a comment; blank lines are skipped;
//   - a sample row is exactly two comma-separated fields, each a decimal
//     or scientific number with optional surrounding blanks (space, tab)
//     and an optional leading '+';
//   - exactly one header row is tolerated, before the first sample: a
//     row with a field that does not start with a number.
// Samples must be finite, powers non-negative, and times non-decreasing;
// a sample repeating the previous timestamp replaces it (last sample
// wins — loggers often emit a final reading twice on shutdown).  Any
// other line — trailing characters after a number (`1.5abc`), `nan` or
// `inf`, a missing or third column — throws std::runtime_error naming
// its line ("trace csv line N: ...").
// Throws "cannot open trace file: <path>" when the file cannot be read.
// Rows of the common shape (short decimals, no blanks: `12.5,0.003`) are
// read in one pointer pass and every other line by the general path; both
// give the doubles std::from_chars gives for the same text.
PiecewiseTrace load_trace_csv(const std::string& path);
PiecewiseTrace parse_trace_csv(std::string_view text);

// Samples `source` at t = i * interval over [0, horizon) and writes a CSV
// loadable by load_trace_csv.  Samples carry full double precision, so a
// save/load round trip reproduces power_at exactly on the grid.
void save_trace_csv(const std::string& path, const HarvestSource& source,
                    double horizon, double interval);

}  // namespace diac
