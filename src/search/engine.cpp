#include "search/engine.hpp"

#include <array>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <tuple>

#include "obs/obs.hpp"
#include "runtime/executor.hpp"

namespace diac {

SearchResult rank_candidates(std::vector<CandidateResult> candidates,
                             const SearchObjectives& objectives) {
  ParetoFront front(objectives.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    front.insert(i, candidates[i].costs);
  }
  SearchResult result;
  result.evaluated = candidates.size();
  result.candidates = std::move(candidates);
  result.front = ranked_front(front);
  return result;
}

SearchResult run_search(const Netlist& nl, const CellLibrary& lib,
                        const std::vector<DesignPoint>& points,
                        const SearchOptions& options,
                        ExperimentRunner& runner) {
  if (options.objectives.size() == 0) {
    throw std::invalid_argument("run_search: no objectives");
  }
  std::vector<CandidateResult> candidates(points.size());

  // --- synthesize every candidate once ---------------------------------
  // The runtime-knob axes don't change the synthesized design, so
  // candidates are deduplicated on the synthesis-relevant axes.  A deque
  // keeps addresses stable for the non-owning job pointers.  The stages
  // below a design are shared too: DesignPoint never overlays `grouping`,
  // so every candidate starts from one initial tree, and policy trees are
  // memoized on exactly the fields DiacSynthesizer::policy_tree reads.
  // Each design is compiled into a SimPlan under its first candidate's
  // FSM configuration; the only runtime axis DesignPoint::fsm_config
  // overlays is adaptive sensing, so the other mode's plan is compiled
  // only when a simulation needs it.
  using SynthKey = std::tuple<PolicyKind, double, NvmTechnology, Scheme>;
  using PolicyKey =
      std::tuple<TreeGrouping, PolicyKind, double, double, double, double>;
  std::map<SynthKey, std::size_t> synth_index;
  std::deque<SynthesisResult> synthesized;
  std::optional<TaskTree> initial;
  std::map<PolicyKey, TaskTree> policy_trees;
  std::vector<std::size_t> design_of(points.size());
  // Per design, indexed by adaptive sensing: the compiled plans and the
  // RunStats each sensing mode is known to produce.
  struct DesignRuns {
    std::size_t first = 0;      // the design's first candidate
    bool twin_needed = false;   // a candidate wants the other mode
    std::size_t simulations = 0;
    std::array<std::shared_ptr<const SimPlan>, 2> plan;
    std::array<std::optional<RunStats>, 2> stats;
  };
  std::vector<DesignRuns> runs;
  {
    DIAC_TRACE_SPAN_ARG("search.synthesize", "search", "candidates",
                        points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      const DesignPoint& p = points[i];
      const SynthKey key{p.policy, p.budget_fraction, p.technology, p.scheme};
      auto [it, inserted] = synth_index.try_emplace(key, synthesized.size());
      if (inserted) {
        const SynthesisOptions so = p.synthesis_options(options.synthesis);
        const DiacSynthesizer synth(nl, lib, so);
        if (!initial) initial = synth.initial_tree();
        const PolicyKey policy_key{so.grouping,       so.policy,
                                   so.e_max,          so.instance_rho,
                                   so.upper_fraction, so.lower_ratio};
        auto tree = policy_trees.find(policy_key);
        if (tree == policy_trees.end()) {
          tree = policy_trees.emplace(policy_key, synth.policy_tree(*initial))
                     .first;
        }
        synthesized.push_back(synth.synthesize_scheme(p.scheme, tree->second));
        DesignRuns& r = runs.emplace_back();
        r.first = i;
        r.plan[p.adaptive_sensing] = std::make_shared<const SimPlan>(
            synthesized.back().design, p.fsm_config(options.fsm),
            options.simulator);
      }
      design_of[i] = it->second;
      DesignRuns& r = runs[design_of[i]];
      r.twin_needed = r.twin_needed ||
                      p.adaptive_sensing != points[r.first].adaptive_sensing;

      CandidateResult& c = candidates[i];
      const SynthesisResult& sr = synthesized[design_of[i]];
      c.point = p;
      c.tasks = sr.design.tree.size();
      c.commit_points = sr.replacement.points.size();
    }
    DIAC_OBS_COUNT("search.unique_designs", synthesized.size());
  }

  // Simulates design `d` under sensing mode `mode` and records the
  // outcome; when the run's witness proves the mode did not matter, the
  // outcome is the other mode's too (NodeMachine::sensing_mode_mattered).
  // Returns whether the witness fired.
  const auto simulate = [&](std::size_t d, bool mode) {
    DesignRuns& r = runs[d];
    std::shared_ptr<const SimPlan>& plan = r.plan[mode];
    if (!plan) {
      DesignPoint p = points[r.first];
      p.adaptive_sensing = mode;
      plan = std::make_shared<const SimPlan>(synthesized[d].design,
                                             p.fsm_config(options.fsm),
                                             options.simulator);
    }
    bool mattered = false;
    // Every candidate sees the identical seeded trace.
    r.stats[mode] = run_simulation({plan, options.scenario, options.simulator},
                                   &mattered);
    if (!mattered && !r.stats[!mode]) r.stats[!mode] = r.stats[mode];
    return mattered;
  };

  // --- one runner job per design ----------------------------------------
  // The job simulates the design's first candidate's mode, and the other
  // mode only when a candidate needs it and the first run's witness
  // fired.  Each job touches only its own DesignRuns.
  runner.parallel_for(runs.size(), [&](std::size_t d) {
    DesignRuns& r = runs[d];
    const bool mode = points[r.first].adaptive_sensing;
    r.simulations = 1;
    if (simulate(d, mode) && r.twin_needed) {
      simulate(d, !mode);
      r.simulations = 2;
    }
  });
  std::size_t simulations = 0;
  for (const DesignRuns& r : runs) simulations += r.simulations;
  for (std::size_t i = 0; i < points.size(); ++i) {
    CandidateResult& c = candidates[i];
    c.stats = *runs[design_of[i]].stats[points[i].adaptive_sensing];
    c.costs = options.objectives.costs(c.stats);
  }

  SearchResult result = rank_candidates(std::move(candidates),
                                        options.objectives);
  result.simulations = simulations;
  DIAC_OBS_COUNT("search.candidates", points.size());
  DIAC_OBS_COUNT("search.evaluated", result.evaluated);
  DIAC_OBS_COUNT("search.simulations", result.simulations);
  DIAC_OBS_COUNT("search.shared", result.evaluated - result.simulations);
  return result;
}

}  // namespace diac
