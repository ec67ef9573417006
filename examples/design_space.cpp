// Example: design-space exploration with DIAC.
//
//   $ ./design_space [benchmark]
//
// This is the "Design Exploration" of the paper's title as a user would
// drive it — now a thin client of the src/search/ subsystem: enumerate
// the candidate grid (policy × commit budget × NVM technology × sensing
// mode), let the SearchEngine synthesize each candidate once, evaluate
// everything on one shared harvest trace over an ExperimentRunner, and
// print the ranked Pareto front (PDP vs forward progress).  Results are
// bit-identical at any thread count, and an all-incomplete sweep reports
// "none" instead of a garbage best (the ParetoFront's NaN-safe
// comparators replace the old hand-rolled best_pdp = 0 scan).
#include <cmath>
#include <iostream>
#include <vector>

#include "metrics/report.hpp"
#include "netlist/suite.hpp"
#include "search/engine.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace diac;
  using namespace diac::units;

  const std::string name = argc > 1 ? argv[1] : "b12";
  const CellLibrary lib = CellLibrary::nominal_45nm();
  const Netlist nl = build_benchmark(name);

  std::cout << "=== DIAC design-space exploration: " << name << " ("
            << nl.logic_gate_count() << " gates) ===\n\n";

  SearchOptions options;
  options.scenario.seed = 0xD5E;  // every candidate sees the same RFID trace
  options.simulator.target_instances = 6;
  options.simulator.max_time = 30000;
  options.objectives = SearchObjectives::defaults();  // pdp, progress

  const CandidateSpace space;  // default axes: 3 x 3 x 4 x 1 x 2 = 72
  ExperimentRunner runner;     // all cores
  const SearchResult result =
      run_search(nl, lib, space.grid(), options, runner);

  std::cout << space.size() << " candidates, " << result.evaluated
            << " evaluated in " << result.simulations
            << " simulations, Pareto front " << result.front.size() << "\n\n";
  std::cout << search_front_table(result, options.objectives).str() << "\n";

  // "Best" = the front head by PDP.  When nothing ever completed an
  // instance under this supply, the PDP objective is NaN everywhere and
  // there is no best design.
  if (!result.front.empty() &&
      !std::isnan(result.candidates[result.front.front()].costs.front())) {
    const CandidateResult& best = result.candidates[result.front.front()];
    std::cout << "best completed design: " << best.point.label() << " (PDP "
              << Table::num(as_mJ(best.stats.pdp()), 1) << " mJ*s)\n";
  } else {
    std::cout << "best completed design: none (no candidate completed an "
              << "instance)\n";
  }
  return 0;
}
