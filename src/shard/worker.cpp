#include "shard/worker.hpp"

#include <ostream>
#include <stdexcept>

#include "metrics/montecarlo.hpp"
#include "metrics/trace_sweep.hpp"
#include "netlist/fingerprint.hpp"
#include "shard/codec.hpp"
#include "shard/job_key.hpp"
#include "shard/search_row.hpp"

namespace diac {

namespace {

ShardHeader header_for(const std::string& kind, const ShardPlan& plan,
                       std::size_t jobs) {
  ShardHeader h;
  h.kind = kind;
  h.shards = plan.shards;
  h.index = plan.index;
  h.jobs = jobs;
  return h;
}

// Serializes one four-scheme job group (mc and replay rows share this
// payload shape).
std::vector<std::string> scheme_row_tokens(const std::vector<RunStats>& stats,
                                           std::size_t group) {
  std::vector<std::string> tokens;
  tokens.reserve(kSchemeCount * kRunStatsTokenCount);
  for (Scheme s : kAllSchemes) {
    append_run_stats(
        tokens, stats[group * kSchemeCount + static_cast<std::size_t>(s)]);
  }
  return tokens;
}

// A cached row is only usable when it has the shape this build would
// serialize; anything else is treated as a miss (and recomputed over).
bool valid_hit(const std::vector<std::string>& tokens, std::size_t arity) {
  return tokens.size() == arity;
}

}  // namespace

void run_mc_shard(std::ostream& out, const Netlist& nl, const CellLibrary& lib,
                  const EvaluationOptions& options, int runs,
                  const ShardPlan& plan, ExperimentRunner& runner,
                  RowCache* cache) {
  plan.validate();
  if (runs <= 0) {
    throw std::invalid_argument("run_mc_shard: runs must be positive");
  }
  const auto jobs_total = static_cast<std::size_t>(runs);
  write_shard_header(out, header_for("mc", plan, jobs_total));

  const std::size_t first = plan.begin(jobs_total);
  const std::size_t count = plan.count(jobs_total);
  if (count == 0) {  // more shards than runs: nothing to synthesize
    write_shard_trailer(out, 0);
    return;
  }

  // Probe the cache for every run of the slice; rows[k] empty = miss.
  const std::size_t arity = kSchemeCount * kRunStatsTokenCount;
  std::vector<std::vector<std::string>> rows(count);
  std::vector<Hash128> keys(count);
  std::vector<std::size_t> misses;
  if (cache != nullptr) {
    const Hash128 fp = canonical_fingerprint(nl);
    for (std::size_t k = 0; k < count; ++k) {
      keys[k] = mc_job_key(fp, options, static_cast<int>(first + k));
      if (!cache->lookup("mc", keys[k], rows[k]) ||
          !valid_hit(rows[k], arity)) {
        rows[k].clear();
        misses.push_back(k);
      }
    }
  } else {
    for (std::size_t k = 0; k < count; ++k) misses.push_back(k);
  }

  if (!misses.empty()) {
    // The builder evaluate_monte_carlo itself uses, over exactly the
    // missed global runs — identical jobs by construction (and it
    // rejects non-seeded scenarios like the in-process sweep does).
    std::vector<std::size_t> miss_runs;
    miss_runs.reserve(misses.size());
    for (std::size_t k : misses) miss_runs.push_back(first + k);
    const McSweepJobs sweep(nl, lib, options, miss_runs);
    const std::vector<RunStats> stats = run_simulations(runner, sweep.jobs());
    for (std::size_t m = 0; m < misses.size(); ++m) {
      rows[misses[m]] = scheme_row_tokens(stats, m);
      if (cache != nullptr) cache->store("mc", keys[misses[m]], rows[misses[m]]);
    }
  }

  for (std::size_t k = 0; k < count; ++k) {
    write_shard_row(out, first + k, rows[k]);
  }
  write_shard_trailer(out, count);
}

void run_replay_shard(std::ostream& out, const Netlist& nl,
                      const CellLibrary& lib, const EvaluationOptions& options,
                      const std::vector<std::string>& traces,
                      const ShardPlan& plan, ExperimentRunner& runner,
                      RowCache* cache) {
  plan.validate();
  if (traces.empty()) {
    throw std::invalid_argument("run_replay_shard: no traces");
  }
  write_shard_header(out, header_for("replay", plan, traces.size()));

  const std::size_t first = plan.begin(traces.size());
  const std::size_t count = plan.count(traces.size());
  if (count == 0) {  // more shards than traces: nothing to load
    write_shard_trailer(out, 0);
    return;
  }

  // Only the slice's CSVs are read: disk I/O shards along with the
  // compute.  Keys cover the trace *content*, so loading happens before
  // the cache probe either way (a CSV read is noise next to a replay).
  std::vector<ScenarioSpec> scenarios;
  scenarios.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    scenarios.push_back(trace_scenario(traces[first + k]));
  }

  const std::size_t arity = kSchemeCount * kRunStatsTokenCount;
  std::vector<std::vector<std::string>> rows(count);
  std::vector<Hash128> keys(count);
  std::vector<std::size_t> misses;
  if (cache != nullptr) {
    const Hash128 fp = canonical_fingerprint(nl);
    for (std::size_t k = 0; k < count; ++k) {
      keys[k] = replay_job_key(fp, options, scenarios[k]);
      if (!cache->lookup("replay", keys[k], rows[k]) ||
          !valid_hit(rows[k], arity)) {
        rows[k].clear();
        misses.push_back(k);
      }
    }
  } else {
    for (std::size_t k = 0; k < count; ++k) misses.push_back(k);
  }

  if (!misses.empty()) {
    // The job builder evaluate_trace_library uses, over the missed
    // scenarios of the sorted global file list — identical jobs by
    // construction.
    std::vector<ScenarioSpec> miss_scenarios;
    miss_scenarios.reserve(misses.size());
    for (std::size_t k : misses) miss_scenarios.push_back(scenarios[k]);
    const ReplaySweepJobs sweep(nl, lib, options, miss_scenarios);
    const std::vector<RunStats> stats = run_simulations(runner, sweep.jobs());
    for (std::size_t m = 0; m < misses.size(); ++m) {
      rows[misses[m]] = scheme_row_tokens(stats, m);
      if (cache != nullptr) {
        cache->store("replay", keys[misses[m]], rows[misses[m]]);
      }
    }
  }

  for (std::size_t k = 0; k < count; ++k) {
    write_shard_row(out, first + k, rows[k]);
  }
  write_shard_trailer(out, count);
}

void run_search_shard(std::ostream& out, const Netlist& nl,
                      const CellLibrary& lib,
                      const std::vector<DesignPoint>& points,
                      const SearchOptions& options, const ShardPlan& plan,
                      ExperimentRunner& runner, RowCache* cache) {
  plan.validate();
  write_shard_header(out, header_for("search", plan, points.size()));

  const std::size_t first = plan.begin(points.size());
  const std::vector<DesignPoint> slice(
      points.begin() + static_cast<std::ptrdiff_t>(first),
      points.begin() + static_cast<std::ptrdiff_t>(plan.end(points.size())));

  const std::size_t arity = search_row_arity(options.objectives.size());
  std::vector<std::vector<std::string>> rows(slice.size());
  std::vector<Hash128> keys(slice.size());
  std::vector<std::size_t> misses;
  if (cache != nullptr) {
    const Hash128 fp = canonical_fingerprint(nl);
    for (std::size_t k = 0; k < slice.size(); ++k) {
      keys[k] = search_job_key(fp, options, slice[k]);
      if (!cache->lookup("search", keys[k], rows[k]) ||
          !valid_hit(rows[k], arity)) {
        rows[k].clear();
        misses.push_back(k);
      }
    }
  } else {
    for (std::size_t k = 0; k < slice.size(); ++k) misses.push_back(k);
  }

  if (!misses.empty()) {
    // Pruning decisions depend on the evaluation order of *other*
    // candidates, so sharded (and cached) searches evaluate
    // exhaustively; each candidate's row is then a pure function of
    // that candidate, which is also what lets the miss subset be
    // evaluated on its own — a warm-started, resumable search.
    std::vector<DesignPoint> miss_points;
    miss_points.reserve(misses.size());
    for (std::size_t k : misses) miss_points.push_back(slice[k]);
    SearchOptions exhaustive = options;
    exhaustive.prune = false;
    const SearchResult result =
        run_search(nl, lib, miss_points, exhaustive, runner);
    for (std::size_t m = 0; m < misses.size(); ++m) {
      rows[misses[m]] = encode_search_row(result.candidates[m]);
      if (cache != nullptr) {
        cache->store("search", keys[misses[m]], rows[misses[m]]);
      }
    }
  }

  for (std::size_t k = 0; k < slice.size(); ++k) {
    write_shard_row(out, first + k, rows[k]);
  }
  write_shard_trailer(out, slice.size());
}

}  // namespace diac
