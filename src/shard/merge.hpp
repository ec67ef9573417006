/// Sweep merges: the one aggregation per sweep kind, over typed rows
/// from any transport, plus the decoders for rows that arrived as text
/// (shard/coordinator.hpp's merge_shard_rows, serve/client.hpp).
///
/// The merge runs exactly the aggregation the in-process sweeps use —
/// summarize_monte_carlo for `mc`, library-order results for `replay`,
/// and rank_candidates for `search` — on doubles that round-trip
/// exactly through the shard codec, so the final report is a pure
/// function of the job set and not of how, or where, it was computed.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "metrics/montecarlo.hpp"
#include "metrics/pdp.hpp"
#include "search/engine.hpp"
#include "shard/codec.hpp"

namespace diac {

/// Dense job-indexed row tokens: payloads[job] is that job's row.
using RowPayloads = std::vector<std::vector<std::string>>;

/// Decodes mc or replay payloads; throws std::runtime_error naming the
/// first malformed job.
std::vector<SchemeRow> decode_scheme_rows(const RowPayloads& payloads);

/// Decodes search payloads for `points` (the full candidate list), each
/// carrying one cost per objective; throws std::runtime_error naming the
/// first malformed job or on a row count other than points.size().
std::vector<CandidateResult> decode_search_rows(
    const RowPayloads& payloads, const std::vector<DesignPoint>& points,
    const SearchObjectives& objectives);

/// The Monte-Carlo statistics of per-run rows; `name`/`gate_count` label
/// the samples like evaluate_monte_carlo does.
MonteCarloResult merge_mc_rows(const std::vector<SchemeRow>& rows,
                               const std::string& name,
                               std::size_t gate_count);

/// The trace-sweep result list of per-trace rows; results[i] is named
/// after traces[i]'s file stem, mirroring evaluate_trace_library.
std::vector<BenchmarkResult> merge_replay_rows(
    const std::vector<SchemeRow>& rows, const std::vector<std::string>& traces,
    std::size_t gate_count);

}  // namespace diac
