/// Trace libraries: a directory of measured-trace CSVs turned into a list
/// of replayable scenarios.
///
/// A deployment campaign typically leaves behind a folder of supply logs —
/// one CSV per node or per day.  This unit enumerates such a folder
/// (sorted, so job order and therefore sweep results are deterministic)
/// and parses every file exactly once into a shared, immutable
/// PiecewiseTrace; the resulting ScenarioSpecs fan out over the
/// ExperimentRunner with all pool threads sampling the same in-memory
/// traces — no per-job re-read or re-parse.
#pragma once

#include <string>
#include <vector>

#include "exp/scenario.hpp"

namespace diac {

class ExperimentRunner;

struct TraceLibrary {
  struct Entry {
    std::string name;       // file stem, used as the result label
    std::string path;       // full path the trace was loaded from
    ScenarioSpec scenario;  // kTrace spec holding the pre-loaded trace
  };
  std::vector<Entry> entries;
};

/// Lists the *.csv files directly inside `dir`, sorted by path.  Throws
/// std::runtime_error when `dir` is not a directory.
std::vector<std::string> list_trace_files(const std::string& dir);

/// Loads every *.csv in `dir` (each file read and parsed exactly once)
/// into kTrace scenarios, sorted by path.  Parse errors are rethrown with
/// the offending file's path prepended; an empty library throws.
TraceLibrary load_trace_library(const std::string& dir);

/// The same library, with the files parsed in parallel on `runner`.
/// Entries and errors are those of the serial load at any thread count:
/// entries stay in sorted-path order, and when several files fail, the
/// first failing path in that order is the one reported.
TraceLibrary load_trace_library(const std::string& dir,
                                ExperimentRunner& runner);

}  // namespace diac
