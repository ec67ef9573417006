#include "shard/worker.hpp"

#include <exception>
#include <stdexcept>

#include "exp/trace_library.hpp"
#include "metrics/montecarlo.hpp"
#include "metrics/trace_sweep.hpp"
#include "netlist/fingerprint.hpp"
#include "shard/job_key.hpp"

namespace diac {

namespace {

// The rows of `count` slice jobs with the cache in front: probe every
// job (key_of(k)), decode the hits (decode(tokens, row) throws on a
// damaged entry, which then counts as a miss), evaluate all misses in
// one call (evaluate(misses) returns their rows in order) and store
// them.  Without a cache every job is a miss.
template <typename Row, typename KeyOf, typename Decode, typename Evaluate>
std::vector<Row> cached_rows(const char* kind, std::size_t count,
                             RowCache* cache, KeyOf&& key_of, Decode&& decode,
                             Evaluate&& evaluate) {
  std::vector<Row> rows(count);
  std::vector<Hash128> keys(cache != nullptr ? count : 0);
  std::vector<std::size_t> misses;
  std::vector<std::string> tokens;
  for (std::size_t k = 0; k < count; ++k) {
    if (cache != nullptr) {
      keys[k] = key_of(k);
      try {
        if (cache->lookup(kind, keys[k], tokens)) {
          decode(tokens, rows[k]);
          continue;
        }
      } catch (const std::exception&) {
        // A damaged entry: recomputed below and stored over.
      }
    }
    misses.push_back(k);
  }
  if (misses.empty()) return rows;
  std::vector<Row> fresh = evaluate(misses);
  for (std::size_t m = 0; m < misses.size(); ++m) {
    Row& row = rows[misses[m]];
    row = std::move(fresh[m]);
    if (cache != nullptr) cache->store(kind, keys[misses[m]], encode_row(row));
  }
  return rows;
}

// Run-major kAllSchemes job results as one SchemeRow per job group.
std::vector<SchemeRow> scheme_rows(const std::vector<RunStats>& stats) {
  std::vector<SchemeRow> rows(stats.size() / kSchemeCount);
  for (std::size_t g = 0; g < rows.size(); ++g) {
    for (std::size_t s = 0; s < kSchemeCount; ++s) {
      rows[g][s] = stats[g * kSchemeCount + s];
    }
  }
  return rows;
}

void decode_scheme(const std::vector<std::string>& tokens, SchemeRow& row) {
  row = decode_scheme_row(tokens);
}

Hash128 fingerprint_if(const Netlist& nl, const RowCache* cache) {
  return cache != nullptr ? canonical_fingerprint(nl) : Hash128{};
}

}  // namespace

std::vector<SchemeRow> mc_rows(const Netlist& nl, const CellLibrary& lib,
                               const EvaluationOptions& options, int runs,
                               const ShardPlan& plan, ExperimentRunner& runner,
                               RowCache* cache) {
  plan.validate();
  if (runs <= 0) throw std::invalid_argument("mc_rows: runs must be positive");
  const auto jobs = static_cast<std::size_t>(runs);
  const std::size_t first = plan.begin(jobs);
  const Hash128 fp = fingerprint_if(nl, cache);
  return cached_rows<SchemeRow>(
      "mc", plan.count(jobs), cache,
      [&](std::size_t k) {
        return mc_job_key(fp, options, static_cast<int>(first + k));
      },
      decode_scheme,
      [&](const std::vector<std::size_t>& misses) {
        // The builder evaluate_monte_carlo itself uses, over exactly the
        // missed global runs — identical jobs by construction (and it
        // rejects non-seeded scenarios like the in-process sweep does).
        std::vector<std::size_t> miss_runs;
        miss_runs.reserve(misses.size());
        for (std::size_t k : misses) miss_runs.push_back(first + k);
        const McSweepJobs sweep(nl, lib, options, miss_runs);
        return scheme_rows(run_simulations(runner, sweep.jobs()));
      });
}

std::vector<SchemeRow> replay_rows(const Netlist& nl, const CellLibrary& lib,
                                   const EvaluationOptions& options,
                                   const std::vector<std::string>& traces,
                                   const ShardPlan& plan,
                                   ExperimentRunner& runner,
                                   RowCache* cache) {
  plan.validate();
  if (traces.empty()) throw std::invalid_argument("replay_rows: no traces");
  // Only the slice's CSVs are read: disk I/O shards along with the
  // compute.  Keys cover the trace *content*, so loading happens before
  // the cache probe either way.
  const auto first =
      traces.begin() + static_cast<std::ptrdiff_t>(plan.begin(traces.size()));
  const TraceLibrary slice = load_trace_files(
      {first, first + static_cast<std::ptrdiff_t>(plan.count(traces.size()))},
      runner);
  const Hash128 fp = fingerprint_if(nl, cache);
  return cached_rows<SchemeRow>(
      "replay", slice.entries.size(), cache,
      [&](std::size_t k) {
        return replay_job_key(fp, options, slice.entries[k].scenario);
      },
      decode_scheme,
      [&](const std::vector<std::size_t>& misses) {
        // The job builder evaluate_trace_library uses, over the missed
        // scenarios of the sorted global file list — identical jobs by
        // construction.
        std::vector<ScenarioSpec> scenarios;
        scenarios.reserve(misses.size());
        for (std::size_t k : misses) {
          scenarios.push_back(slice.entries[k].scenario);
        }
        const ReplaySweepJobs sweep(nl, lib, options, scenarios);
        return scheme_rows(run_simulations(runner, sweep.jobs()));
      });
}

std::vector<CandidateResult> search_rows(const Netlist& nl,
                                         const CellLibrary& lib,
                                         const std::vector<DesignPoint>& points,
                                         const SearchOptions& options,
                                         const ShardPlan& plan,
                                         ExperimentRunner& runner,
                                         RowCache* cache) {
  plan.validate();
  const auto first =
      points.begin() + static_cast<std::ptrdiff_t>(plan.begin(points.size()));
  const std::vector<DesignPoint> slice(
      first, first + static_cast<std::ptrdiff_t>(plan.count(points.size())));
  const Hash128 fp = fingerprint_if(nl, cache);
  std::vector<CandidateResult> rows = cached_rows<CandidateResult>(
      "search", slice.size(), cache,
      [&](std::size_t k) { return search_job_key(fp, options, slice[k]); },
      [&](const std::vector<std::string>& tokens, CandidateResult& c) {
        decode_search_row(tokens, options.objectives.size(), c);
      },
      [&](const std::vector<std::size_t>& misses) {
        // Each candidate's result is a pure function of that candidate,
        // so the misses are evaluated on their own: a warm-started,
        // resumable search.
        std::vector<DesignPoint> miss_points;
        miss_points.reserve(misses.size());
        for (std::size_t k : misses) miss_points.push_back(slice[k]);
        return run_search(nl, lib, miss_points, options, runner).candidates;
      });
  for (std::size_t k = 0; k < slice.size(); ++k) rows[k].point = slice[k];
  return rows;
}

}  // namespace diac
