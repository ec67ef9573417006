#include "metrics/trace_sweep.hpp"

#include <stdexcept>

namespace diac {

ReplaySweepJobs::ReplaySweepJobs(const Netlist& nl, const CellLibrary& lib,
                                 const EvaluationOptions& options,
                                 const std::vector<ScenarioSpec>& scenarios) {
  // Synthesis is independent of the supply: once per scheme, shared by
  // every trace.
  designs_ = synthesize_all_schemes(nl, lib, options.synthesis);
  const std::array<std::shared_ptr<const SimPlan>, kSchemeCount> plans =
      compile_plans(designs_, options);

  // One job per (trace × scheme), pointing at the scenario's shared
  // in-memory trace — each file was read exactly once, at load time.
  jobs_.reserve(scenarios.size() * kSchemeCount);
  for (const ScenarioSpec& scenario : scenarios) {
    if (!scenario.trace) {
      throw std::invalid_argument("replay sweep: scenario '" +
                                  scenario.trace_path +
                                  "' has no loaded trace");
    }
    for (Scheme s : kAllSchemes) {
      // run_simulation clamps each replay to its trace's last sample.
      jobs_.push_back({plans[static_cast<std::size_t>(s)], scenario,
                       options.simulator});
    }
  }
}

std::vector<BenchmarkResult> evaluate_trace_library(
    const Netlist& nl, const CellLibrary& lib,
    const EvaluationOptions& options, const TraceLibrary& library,
    ExperimentRunner& runner) {
  if (library.entries.empty()) {
    throw std::invalid_argument("evaluate_trace_library: empty library");
  }
  std::vector<ScenarioSpec> scenarios;
  scenarios.reserve(library.entries.size());
  for (const TraceLibrary::Entry& entry : library.entries) {
    scenarios.push_back(entry.scenario);
  }
  const ReplaySweepJobs sweep(nl, lib, options, scenarios);
  const std::vector<RunStats> stats = run_simulations(runner, sweep.jobs());

  std::vector<BenchmarkResult> results;
  results.reserve(library.entries.size());
  const std::size_t gates = nl.logic_gate_count();  // O(gates): once
  for (std::size_t e = 0; e < library.entries.size(); ++e) {
    BenchmarkResult res;
    res.name = library.entries[e].name;
    res.gate_count = gates;
    for (Scheme s : kAllSchemes) {
      const auto i = static_cast<std::size_t>(s);
      res.stats[i] = stats[e * kSchemeCount + i];
    }
    results.push_back(std::move(res));
  }
  return results;
}

}  // namespace diac
