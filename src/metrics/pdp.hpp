// PDP evaluation: the machinery behind Fig. 5 and the ablations.
//
// Evaluates one benchmark circuit under all four schemes on an *identical*
// harvest trace and workload, then reports power-delay products normalized
// to the NV-Based baseline (the paper's presentation).  Simulations go
// through the experiment engine: synthesis happens once per scheme and
// the (scheme × seed) jobs fan out over an ExperimentRunner.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "diac/synthesizer.hpp"
#include "exp/experiment.hpp"
#include "netlist/suite.hpp"
#include "runtime/simulator.hpp"

namespace diac {

inline constexpr std::array<Scheme, kSchemeCount> kAllSchemes = {
    Scheme::kNvBased, Scheme::kNvClustering, Scheme::kDiac,
    Scheme::kDiacOptimized};

struct EvaluationOptions {
  SynthesisOptions synthesis;
  FsmConfig fsm;
  SimulatorOptions simulator;
  // Harvest scenario (every scheme sees the same trace; scenario.seed is
  // the sweep base seed).
  ScenarioSpec scenario;
};

struct BenchmarkResult {
  std::string name;
  BenchmarkSuite suite = BenchmarkSuite::kIscas89;
  std::size_t gate_count = 0;
  std::array<RunStats, kSchemeCount> stats{};  // indexed by Scheme

  const RunStats& of(Scheme s) const {
    return stats[static_cast<std::size_t>(s)];
  }
  double pdp(Scheme s) const { return of(s).pdp(); }
  // PDP normalized to NV-Based (Fig. 5's y-axis).
  double normalized_pdp(Scheme s) const;
  // Fractional PDP improvement of `better` over `base` (0.36 = 36%).
  double improvement(Scheme better, Scheme base) const;
};

// The four scheme designs of a sweep, indexed by Scheme.  All four are
// derived from one policy tree, built once rather than once per scheme.
std::array<SynthesisResult, kSchemeCount> synthesize_all_schemes(
    const Netlist& nl, const CellLibrary& lib, const SynthesisOptions& options);

// One SimPlan per scheme design under options.fsm and the storage of
// options.simulator, for every job of a sweep to share.  The plans point
// into `designs`, which must outlive them.
std::array<std::shared_ptr<const SimPlan>, kSchemeCount> compile_plans(
    const std::array<SynthesisResult, kSchemeCount>& designs,
    const EvaluationOptions& options);

// Synthesizes all four schemes for `nl` and simulates each on the same
// seeded harvest trace, fanning the four simulations out over `runner`.
BenchmarkResult evaluate_circuit(const Netlist& nl, const CellLibrary& lib,
                                 const EvaluationOptions& options,
                                 ExperimentRunner& runner);
// Convenience overload: runs the four simulations inline (serial).
BenchmarkResult evaluate_circuit(const Netlist& nl, const CellLibrary& lib,
                                 const EvaluationOptions& options);

// Builds the named suite benchmark first.
BenchmarkResult evaluate_benchmark(const BenchmarkSpec& spec,
                                   const CellLibrary& lib,
                                   const EvaluationOptions& options);

// Average improvement of `better` over `base` across results.
double average_improvement(const std::vector<BenchmarkResult>& results,
                           Scheme better, Scheme base);
double average_improvement(const std::vector<BenchmarkResult>& results,
                           BenchmarkSuite suite, Scheme better, Scheme base);

}  // namespace diac
