#include "metrics/pdp.hpp"

#include <stdexcept>

namespace diac {

double BenchmarkResult::normalized_pdp(Scheme s) const {
  const double base = pdp(Scheme::kNvBased);
  if (base <= 0) return 0;
  return pdp(s) / base;
}

double BenchmarkResult::improvement(Scheme better, Scheme base) const {
  const double b = pdp(base);
  if (b <= 0) return 0;
  return 1.0 - pdp(better) / b;
}

std::array<SynthesisResult, kSchemeCount> synthesize_all_schemes(
    const Netlist& nl, const CellLibrary& lib, const SynthesisOptions& options) {
  const DiacSynthesizer synth(nl, lib, options);
  const TaskTree tree = synth.transformed_tree();
  std::array<SynthesisResult, kSchemeCount> designs;
  for (Scheme s : kAllSchemes) {
    designs[static_cast<std::size_t>(s)] = synth.synthesize_scheme(s, tree);
  }
  return designs;
}

std::array<std::shared_ptr<const SimPlan>, kSchemeCount> compile_plans(
    const std::array<SynthesisResult, kSchemeCount>& designs,
    const EvaluationOptions& options) {
  std::array<std::shared_ptr<const SimPlan>, kSchemeCount> plans;
  for (std::size_t i = 0; i < kSchemeCount; ++i) {
    plans[i] = std::make_shared<const SimPlan>(designs[i].design, options.fsm,
                                               options.simulator);
  }
  return plans;
}

BenchmarkResult evaluate_circuit(const Netlist& nl, const CellLibrary& lib,
                                 const EvaluationOptions& options,
                                 ExperimentRunner& runner) {
  BenchmarkResult result;
  result.name = nl.name();
  result.gate_count = nl.logic_gate_count();

  // Synthesize every scheme up front, then fan the simulations out.  All
  // four schemes see the same seeded trace.
  const std::array<SynthesisResult, kSchemeCount> designs =
      synthesize_all_schemes(nl, lib, options.synthesis);
  std::vector<SimulationJob> jobs;
  jobs.reserve(kSchemeCount);
  for (const std::shared_ptr<const SimPlan>& plan :
       compile_plans(designs, options)) {
    jobs.push_back({plan, options.scenario, options.simulator});
  }
  const std::vector<RunStats> stats = run_simulations(runner, jobs);
  for (std::size_t i = 0; i < kSchemeCount; ++i) result.stats[i] = stats[i];
  return result;
}

BenchmarkResult evaluate_circuit(const Netlist& nl, const CellLibrary& lib,
                                 const EvaluationOptions& options) {
  ExperimentRunner serial(1);
  return evaluate_circuit(nl, lib, options, serial);
}

BenchmarkResult evaluate_benchmark(const BenchmarkSpec& spec,
                                   const CellLibrary& lib,
                                   const EvaluationOptions& options) {
  const Netlist nl = build_benchmark(spec);
  BenchmarkResult result = evaluate_circuit(nl, lib, options);
  result.name = spec.name;
  result.suite = spec.suite;
  result.gate_count = spec.gate_count;
  return result;
}

double average_improvement(const std::vector<BenchmarkResult>& results,
                           Scheme better, Scheme base) {
  if (results.empty()) return 0;
  double sum = 0;
  for (const auto& r : results) sum += r.improvement(better, base);
  return sum / static_cast<double>(results.size());
}

double average_improvement(const std::vector<BenchmarkResult>& results,
                           BenchmarkSuite suite, Scheme better, Scheme base) {
  double sum = 0;
  int n = 0;
  for (const auto& r : results) {
    if (r.suite != suite) continue;
    sum += r.improvement(better, base);
    ++n;
  }
  return n > 0 ? sum / n : 0;
}

}  // namespace diac
