// Report formatting for the benchmark harnesses: Fig. 5-style tables and
// per-run statistics summaries.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "metrics/pdp.hpp"
#include "search/engine.hpp"
#include "util/table.hpp"

namespace diac {

// Fig. 5: one row per circuit — normalized PDP of each scheme.
Table fig5_table(const std::vector<BenchmarkResult>& results);

// Per-suite and overall average improvements (the numbers quoted in
// SIV.B and the abstract).
Table improvement_summary(const std::vector<BenchmarkResult>& results);

// Detailed per-scheme statistics for one benchmark (NVM writes, backups,
// safe-zone saves, time breakdown).
Table scheme_detail_table(const BenchmarkResult& result);

// Trace-library replay: one row per replayed trace — normalized PDP of
// each scheme, the DIAC-Optimized improvement over NV-Based, and whether
// the workload completed under that supply.
Table trace_sweep_table(const std::vector<BenchmarkResult>& results);

// Benchmark inventory (the Fig. 5 header row: # gates / function / suite).
Table suite_inventory_table();

// Design-space search: the ranked Pareto front — one row per front
// member, ordered by the first objective, with the design axes and every
// objective in its natural reading ("n/a" for undefined outcomes).
Table search_front_table(const SearchResult& result,
                         const SearchObjectives& objectives);

// Machine-readable dump of the whole search: one row per candidate (in
// candidate order) with design axes, status (front/evaluated),
// objective values, and the headline run statistics.
void write_search_csv(std::ostream& out, const SearchResult& result,
                      const SearchObjectives& objectives);

}  // namespace diac
