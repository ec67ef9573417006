/// Sweep rows: one evaluator per sweep kind computes the typed rows of
/// one plan-owned slice of a sweep.
///
/// Every transport runs these: the in-process sweep (the trivial 1-way
/// plan, rows handed straight to the merge), `diac shard-worker` and
/// `diac serve` (rows encoded with write_shard at the process edge).
/// Evaluators recompute only what their slice needs — synthesis of the
/// schemes/candidates they evaluate, the seeded sources of their runs,
/// the trace CSVs of their files — so I/O and CPU both scale down with
/// the slice.
///
/// Determinism contract: a job's row depends only on its *global* index
/// and the shared sweep options, never on the plan.  Monte-Carlo seeds
/// derive from the global run index, replay scenarios from the sorted
/// global file list, and a search candidate's result is a pure function
/// of the candidate alone.  Merging the rows of any N-way split
/// therefore reproduces the 1-way sweep bit-for-bit.
///
/// Cache awareness: every evaluator takes an optional RowCache.  Before
/// evaluating, each job's canonical digest (shard/job_key.*) is looked
/// up; hits decode the stored tokens, misses are evaluated in one call —
/// sharing one synthesis — and stored.  A hit decodes to the exact row a
/// cold run computes, so warm and cold sweeps are byte-identical by
/// construction; a hit that does not decode (wrong arity, malformed
/// token) is treated as a miss and overwritten.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "metrics/pdp.hpp"
#include "search/engine.hpp"
#include "shard/codec.hpp"
#include "shard/plan.hpp"
#include "shard/row_cache.hpp"
#include "shard/search_row.hpp"

namespace diac {

/// Monte-Carlo rows: the plan's slice of `runs` seeded traces, each
/// evaluated under all four schemes; rows[k] is global run
/// plan.begin(runs) + k.  Rejects non-positive run counts and non-seeded
/// scenarios exactly like evaluate_monte_carlo.
std::vector<SchemeRow> mc_rows(const Netlist& nl, const CellLibrary& lib,
                               const EvaluationOptions& options, int runs,
                               const ShardPlan& plan, ExperimentRunner& runner,
                               RowCache* cache = nullptr);

/// Replay rows: the plan's slice of `traces` (the sorted global CSV
/// list), loaded in parallel on `runner` and evaluated under all four
/// schemes.  Throws on an empty list.
std::vector<SchemeRow> replay_rows(const Netlist& nl, const CellLibrary& lib,
                                   const EvaluationOptions& options,
                                   const std::vector<std::string>& traces,
                                   const ShardPlan& plan,
                                   ExperimentRunner& runner,
                                   RowCache* cache = nullptr);

/// Search rows: the plan's slice of `points` (the full candidate list in
/// canonical order), evaluated through run_search.
std::vector<CandidateResult> search_rows(const Netlist& nl,
                                         const CellLibrary& lib,
                                         const std::vector<DesignPoint>& points,
                                         const SearchOptions& options,
                                         const ShardPlan& plan,
                                         ExperimentRunner& runner,
                                         RowCache* cache = nullptr);

/// Writes the plan's slice of a `kind` sweep over `jobs` jobs as a shard
/// file (shard/codec.hpp): the codec at the process edge.
template <typename Row>
void write_shard(std::ostream& out, const std::string& kind,
                 const ShardPlan& plan, std::size_t jobs,
                 const std::vector<Row>& rows) {
  write_shard_header(out, {kShardFormatVersion, kind, plan.shards, plan.index,
                           jobs});
  const std::size_t first = plan.begin(jobs);
  for (std::size_t k = 0; k < rows.size(); ++k) {
    write_shard_row(out, first + k, encode_row(rows[k]));
  }
  write_shard_trailer(out, rows.size());
}

}  // namespace diac
