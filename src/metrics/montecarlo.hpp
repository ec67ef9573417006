// Monte-Carlo evaluation: repeats the scheme comparison over many seeded
// harvest traces and reports distribution statistics, so conclusions are
// robust to the stochastic supply rather than artifacts of one trace.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "metrics/pdp.hpp"

namespace diac {

struct SampleStats {
  double mean = 0;
  double stddev = 0;
  double min = 0;
  double max = 0;
  int n = 0;
};

SampleStats summarize(const std::vector<double>& samples);

struct MonteCarloResult {
  int runs = 0;
  // Normalized PDP (vs NV-Based) distribution per scheme.
  std::array<SampleStats, kSchemeCount> normalized_pdp{};
  // Improvement distributions for the paper's headline comparisons.
  SampleStats diac_vs_nv_based;
  SampleStats diac_vs_nv_clustering;
  SampleStats opt_vs_nv_based;
  SampleStats opt_vs_diac;
  // Per-run raw results for further analysis.
  std::vector<BenchmarkResult> samples;
};

// The (scheme × seed) job set for runs [first, first + count) of a
// Monte-Carlo sweep: all four schemes synthesized once, jobs in run-major
// kAllSchemes order, each materializing its own (O(1), lazily generated)
// harvest source when it runs.  Seeds derive from the *global* run index,
// so any contiguous range builds jobs identical to the same range of the
// full sweep — this single builder serves evaluate_monte_carlo and the mc
// shard worker, which makes sharded sweeps bit-identical with the
// in-process path by construction.  Non-copyable/non-movable: the jobs point into the
// designs it owns.
class McSweepJobs {
 public:
  // Throws std::invalid_argument on a non-seeded scenario kind (a
  // deterministic trace would yield `count` identical samples).  The
  // runner is not used (building a job is O(1)); the parameter keeps
  // existing callers compiling.
  McSweepJobs(const Netlist& nl, const CellLibrary& lib,
              const EvaluationOptions& options, std::size_t first,
              std::size_t count, ExperimentRunner& runner);
  // Sparse form: jobs for exactly the listed global run indices (in list
  // order), sharing one synthesis.  This is how the cache-aware worker
  // evaluates only its misses — the k-th four-scheme job group equals
  // the contiguous builder's group for the same global run, so a sweep
  // assembled from cached and computed rows is bit-identical with a
  // fully computed one.
  McSweepJobs(const Netlist& nl, const CellLibrary& lib,
              const EvaluationOptions& options,
              const std::vector<std::size_t>& runs);
  McSweepJobs(const McSweepJobs&) = delete;
  McSweepJobs& operator=(const McSweepJobs&) = delete;

  const std::vector<SimulationJob>& jobs() const { return jobs_; }

 private:
  std::array<SynthesisResult, kSchemeCount> designs_;
  std::vector<SimulationJob> jobs_;
};

// Folds per-run four-scheme samples into the Monte-Carlo statistics.
// This is the single aggregation used by evaluate_monte_carlo and by
// the shard merge, so a sweep's report depends only on the sample set —
// not on which process computed each sample.  Throws on empty input.
MonteCarloResult summarize_monte_carlo(std::vector<BenchmarkResult> samples);

// Evaluates `nl` under all four schemes on `runs` independent harvest
// traces (seeds derived from options.scenario.seed via derive_seed).
// Synthesis happens once per scheme; the (scheme × seed) simulation jobs
// fan out over `runner`.  Statistics are bit-identical at any thread
// count: every job is independent and explicitly seeded, and results are
// assembled in job order.
MonteCarloResult evaluate_monte_carlo(const Netlist& nl,
                                      const CellLibrary& lib,
                                      const EvaluationOptions& options,
                                      int runs, ExperimentRunner& runner);

// Convenience overload: fans out over a default runner sized to the
// hardware concurrency.
MonteCarloResult evaluate_monte_carlo(const Netlist& nl,
                                      const CellLibrary& lib,
                                      const EvaluationOptions& options,
                                      int runs);

}  // namespace diac
