#include "metrics/montecarlo.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace diac {

SampleStats summarize(const std::vector<double>& samples) {
  SampleStats s;
  s.n = static_cast<int>(samples.size());
  if (samples.empty()) return s;
  s.min = *std::min_element(samples.begin(), samples.end());
  s.max = *std::max_element(samples.begin(), samples.end());
  double sum = 0;
  for (double v : samples) sum += v;
  s.mean = sum / s.n;
  double var = 0;
  for (double v : samples) var += (v - s.mean) * (v - s.mean);
  s.stddev = s.n > 1 ? std::sqrt(var / (s.n - 1)) : 0.0;
  return s;
}

namespace {

std::vector<std::size_t> contiguous_runs(std::size_t first, std::size_t count) {
  std::vector<std::size_t> runs(count);
  for (std::size_t k = 0; k < count; ++k) runs[k] = first + k;
  return runs;
}

}  // namespace

McSweepJobs::McSweepJobs(const Netlist& nl, const CellLibrary& lib,
                         const EvaluationOptions& options, std::size_t first,
                         std::size_t count, ExperimentRunner&)
    : McSweepJobs(nl, lib, options, contiguous_runs(first, count)) {}

McSweepJobs::McSweepJobs(const Netlist& nl, const CellLibrary& lib,
                         const EvaluationOptions& options,
                         const std::vector<std::size_t>& runs) {
  if (!is_seeded(options.scenario.kind)) {
    // A deterministic trace would yield N identical samples reported as
    // zero-variance statistics.
    throw std::invalid_argument(
        std::string("Monte-Carlo sweep: scenario kind '") +
        to_string(options.scenario.kind) +
        "' is deterministic; Monte-Carlo needs a seeded source (rfid|solar)");
  }

  // Synthesize each scheme once — the designs are independent of the
  // harvest seed, so all runs share them.
  designs_ = synthesize_all_schemes(nl, lib, options.synthesis);

  const std::array<std::shared_ptr<const SimPlan>, kSchemeCount> plans =
      compile_plans(designs_, options);

  // One job per (scheme × seed); jobs[k * kSchemeCount + s].  The seed
  // is a function of the global run index, never of the run window or
  // list.
  jobs_.reserve(runs.size() * kSchemeCount);
  for (std::size_t k = 0; k < runs.size(); ++k) {
    const ScenarioSpec scenario = options.scenario.with_seed(
        derive_seed(options.scenario.seed, static_cast<int>(runs[k])));
    for (Scheme s : kAllSchemes) {
      jobs_.push_back({plans[static_cast<std::size_t>(s)], scenario,
                       options.simulator});
    }
  }
}

MonteCarloResult summarize_monte_carlo(std::vector<BenchmarkResult> samples) {
  if (samples.empty()) {
    throw std::invalid_argument("summarize_monte_carlo: no samples");
  }
  MonteCarloResult mc;
  mc.runs = static_cast<int>(samples.size());
  std::array<std::vector<double>, kSchemeCount> norm;
  std::vector<double> d_nvb, d_nvc, o_nvb, o_diac;
  for (const BenchmarkResult& res : samples) {
    for (Scheme s : kAllSchemes) {
      norm[static_cast<std::size_t>(s)].push_back(res.normalized_pdp(s));
    }
    d_nvb.push_back(res.improvement(Scheme::kDiac, Scheme::kNvBased));
    d_nvc.push_back(res.improvement(Scheme::kDiac, Scheme::kNvClustering));
    o_nvb.push_back(res.improvement(Scheme::kDiacOptimized, Scheme::kNvBased));
    o_diac.push_back(res.improvement(Scheme::kDiacOptimized, Scheme::kDiac));
  }
  for (std::size_t i = 0; i < kSchemeCount; ++i) {
    mc.normalized_pdp[i] = summarize(norm[i]);
  }
  mc.diac_vs_nv_based = summarize(d_nvb);
  mc.diac_vs_nv_clustering = summarize(d_nvc);
  mc.opt_vs_nv_based = summarize(o_nvb);
  mc.opt_vs_diac = summarize(o_diac);
  mc.samples = std::move(samples);
  return mc;
}

MonteCarloResult evaluate_monte_carlo(const Netlist& nl,
                                      const CellLibrary& lib,
                                      const EvaluationOptions& options,
                                      int runs, ExperimentRunner& runner) {
  if (runs <= 0) {
    throw std::invalid_argument("evaluate_monte_carlo: runs must be positive");
  }
  const McSweepJobs sweep(nl, lib, options, 0, static_cast<std::size_t>(runs),
                          runner);
  const std::vector<RunStats> stats = run_simulations(runner, sweep.jobs());

  std::vector<BenchmarkResult> samples;
  samples.reserve(static_cast<std::size_t>(runs));
  const std::size_t gates = nl.logic_gate_count();  // O(gates): once
  for (int r = 0; r < runs; ++r) {
    BenchmarkResult res;
    res.name = nl.name();
    res.gate_count = gates;
    for (Scheme s : kAllSchemes) {
      const auto i = static_cast<std::size_t>(s);
      res.stats[i] = stats[static_cast<std::size_t>(r) * kSchemeCount + i];
    }
    samples.push_back(std::move(res));
  }
  return summarize_monte_carlo(std::move(samples));
}

MonteCarloResult evaluate_monte_carlo(const Netlist& nl,
                                      const CellLibrary& lib,
                                      const EvaluationOptions& options,
                                      int runs) {
  ExperimentRunner runner;  // hardware concurrency
  return evaluate_monte_carlo(nl, lib, options, runs, runner);
}

}  // namespace diac
