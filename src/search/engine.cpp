#include "search/engine.hpp"

#include <array>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <tuple>

#include "obs/obs.hpp"
#include "power/pmu.hpp"
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

namespace {

// The tree stages of a search, shared by every candidate: one initial
// tree (DesignPoint never overlays `grouping`) and one policy tree per
// distinct value of the fields DiacSynthesizer::policy_tree reads, built
// on first use.  Policy3's tree is the merge of the memoized Policy1
// tree; when Policy1 splits nothing, its tree shares the initial tree's
// structure and Policy3's tree is Policy2's, structure included.
class PolicyTrees {
 public:
  PolicyTrees(const Netlist& nl, const CellLibrary& lib) : nl_(nl), lib_(lib) {}

  const TaskTree& get(SynthesisOptions so) {
    const Key key{so.grouping,       so.policy,
                  so.e_max,          so.instance_rho,
                  so.upper_fraction, so.lower_ratio};
    if (const auto it = trees_.find(key); it != trees_.end()) {
      return it->second;
    }
    const DiacSynthesizer synth(nl_, lib_, so);
    if (!initial_) initial_ = synth.initial_tree();
    TaskTree tree;
    if (so.policy != PolicyKind::kPolicy3) {
      tree = synth.policy_tree(*initial_);
    } else {
      so.policy = PolicyKind::kPolicy1;
      const TaskTree& split = get(so);
      so.policy = PolicyKind::kPolicy2;
      tree = split.nodes().data() == initial_->nodes().data()
                 ? get(so)
                 : synth.policy_tree(*initial_, split);
    }
    return trees_.emplace(key, std::move(tree)).first->second;
  }

 private:
  using Key =
      std::tuple<TreeGrouping, PolicyKind, double, double, double, double>;
  const Netlist& nl_;
  const CellLibrary& lib_;
  std::optional<TaskTree> initial_;
  std::map<Key, TaskTree> trees_;
};

}  // namespace

SearchResult run_search(const Netlist& nl, const CellLibrary& lib,
                        const std::vector<DesignPoint>& points,
                        const SearchOptions& options,
                        ExperimentRunner& runner) {
  if (options.objectives.size() == 0) {
    throw std::invalid_argument("run_search: no objectives");
  }
  std::vector<CandidateResult> candidates(points.size());

  // --- synthesize every design once -------------------------------------
  // A design is a function of its policy tree and the scheme-stage axes,
  // so designs are memoized on (policy tree structure, budget, NVM,
  // scheme): candidates differing only in runtime knobs, or in policies
  // whose trees coincide, share one design, one plan per sensing mode
  // and one simulation, and each still reports its own point.  A deque
  // keeps addresses stable for the jobs.
  using DesignKey = std::tuple<const TaskNode*, double, NvmTechnology, Scheme>;
  PolicyTrees trees(nl, lib);
  std::map<DesignKey, std::size_t> design_index;
  std::deque<SynthesisResult> synthesized;
  std::vector<std::size_t> design_of(points.size());
  // Per design, indexed by adaptive sensing: the RunStats each sensing
  // mode is known to produce.
  struct DesignRuns {
    std::size_t first = 0;      // the design's first candidate
    bool twin_needed = false;   // a candidate wants the other mode
    std::size_t simulations = 0;
    std::array<std::optional<RunStats>, 2> stats;
  };
  std::vector<DesignRuns> runs;
  {
    DIAC_TRACE_SPAN_ARG("search.synthesize", "search", "candidates",
                        points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      const DesignPoint& p = points[i];
      const SynthesisOptions so = p.synthesis_options(options.synthesis);
      const TaskTree& tree = trees.get(so);
      const DesignKey key{tree.nodes().data(), p.budget_fraction,
                          p.technology, p.scheme};
      auto [it, inserted] = design_index.try_emplace(key, synthesized.size());
      if (inserted) {
        synthesized.push_back(
            DiacSynthesizer(nl, lib, so).synthesize_scheme(p.scheme, tree));
        runs.emplace_back().first = i;
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

  // Compiles design `d` into a SimPlan under its first candidate's FSM
  // configuration with adaptive sensing set to `mode` (the only runtime
  // axis DesignPoint::fsm_config overlays).
  const auto compile = [&](std::size_t d, bool mode) {
    DesignPoint p = points[runs[d].first];
    p.adaptive_sensing = mode;
    return std::make_shared<const SimPlan>(
        synthesized[d].design, p.fsm_config(options.fsm), options.simulator);
  };
  // Simulates design `d` under sensing mode `mode` and records the
  // outcome; when the run's witness proves the mode did not matter, the
  // outcome is the other mode's too (NodeMachine::sensing_mode_mattered).
  // Returns whether the witness fired.
  const auto simulate = [&](std::size_t d, bool mode,
                            std::shared_ptr<const SimPlan> plan) {
    DesignRuns& r = runs[d];
    bool mattered = false;
    // Every candidate sees the identical seeded trace.
    r.stats[mode] = run_simulation(
        {std::move(plan), options.scenario, options.simulator}, &mattered);
    if (!mattered && !r.stats[!mode]) r.stats[!mode] = r.stats[mode];
    return mattered;
  };

  // --- one runner job per design ----------------------------------------
  // The job compiles and simulates the design's first candidate's mode,
  // and the other mode only when a candidate needs it and the first run's
  // witness fired; each plan is released when its run ends.  A design
  // whose threshold stack does not fit below E_MAX has no plan: its
  // candidates keep an empty RunStats, so their costs are undefined.
  // Each job touches only its own DesignRuns.
  runner.parallel_for(runs.size(), [&](std::size_t d) {
    DesignRuns& r = runs[d];
    const bool mode = points[r.first].adaptive_sensing;
    std::shared_ptr<const SimPlan> plan;
    try {
      plan = compile(d, mode);
    } catch (const ThresholdStackDoesNotFit&) {
      r.stats = {RunStats{}, RunStats{}};
      return;
    }
    r.simulations = 1;
    if (simulate(d, mode, std::move(plan)) && r.twin_needed) {
      simulate(d, !mode, compile(d, !mode));
      r.simulations = 2;
    }
  });
  std::size_t simulations = 0;
  for (const DesignRuns& r : runs) simulations += r.simulations;
  for (std::size_t i = 0; i < points.size(); ++i) {
    CandidateResult& c = candidates[i];
    const DesignRuns& r = runs[design_of[i]];
    c.stats = *r.stats[points[i].adaptive_sensing];
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
