#include "search/engine.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <tuple>

#include "obs/obs.hpp"
#include "runtime/executor.hpp"

namespace diac {

namespace {

// Per-instance energy/time floors a candidate cannot beat, derived from
// the synthesized program and the FSM constants alone.  Operation
// energies jitter by ±op_jitter at run time, so the floor scales by
// (1 - op_jitter); durations are not jittered.  Backup/restore/boundary
// overheads and re-execution only add on top, so these are true lower
// bounds on energy_per_instance() and time_per_instance().
struct InstanceFloors {
  double energy = 0;  // J
  double time = 0;    // s
};

InstanceFloors instance_floors(const TaskProgram& program,
                               const FsmConfig& fsm) {
  const double lo = std::max(0.0, 1.0 - fsm.op_jitter);
  const double packets =
      std::ceil(fsm.transmit_energy / fsm.transmit_packet_energy);
  const double steps = static_cast<double>(program.size());
  InstanceFloors f;
  f.energy = lo * fsm.sense_energy + steps * fsm.dispatch_energy +
             lo * program.instance_energy() +
             packets * lo * fsm.transmit_packet_energy;
  f.time = lo * fsm.sense_energy / fsm.sense_power +
           steps * fsm.dispatch_time + program.instance_duration() +
           packets * lo * fsm.transmit_packet_energy / fsm.transmit_power;
  return f;
}

// The component-wise best cost any run of this candidate could achieve.
// Soundness: if a front member strictly dominates this vector it
// dominates every achievable cost vector, so the candidate can be
// skipped without changing the front.
std::vector<double> optimistic_costs(const SearchObjectives& objectives,
                                     const InstanceFloors& floors,
                                     const SimulatorOptions& simulator) {
  std::vector<double> costs;
  costs.reserve(objectives.size());
  for (ObjectiveKind kind : objectives.kinds) {
    switch (kind) {
      case ObjectiveKind::kPdp:
        costs.push_back(floors.energy * floors.time);
        break;
      case ObjectiveKind::kProgress:
        costs.push_back(-1.0);  // nothing re-executed
        break;
      case ObjectiveKind::kNvmWrites:
        // A run that never executes writes nothing, so no useful floor
        // exists; pruning on this objective needs a zero-write front
        // member.
        costs.push_back(0.0);
        break;
      case ObjectiveKind::kCompletion:
        costs.push_back(-static_cast<double>(simulator.target_instances));
        break;
      case ObjectiveKind::kEnergy:
        costs.push_back(0.0);
        break;
      case ObjectiveKind::kMakespan:
        costs.push_back(simulator.target_instances * floors.time);
        break;
    }
  }
  return costs;
}

}  // namespace

SearchResult run_search(const Netlist& nl, const CellLibrary& lib,
                        const std::vector<DesignPoint>& points,
                        const SearchOptions& options,
                        ExperimentRunner& runner) {
  if (options.objectives.size() == 0) {
    throw std::invalid_argument("run_search: no objectives");
  }
  const std::size_t batch = std::max<std::size_t>(options.batch, 1);

  SearchResult result;
  result.candidates.resize(points.size());

  // --- synthesize every candidate once ---------------------------------
  // The runtime-knob axes don't change the synthesized design, so
  // candidates are deduplicated on the synthesis-relevant axes.  A deque
  // keeps addresses stable for the non-owning job pointers.  The stages
  // below a design are shared too: DesignPoint never overlays `grouping`,
  // so every candidate starts from one initial tree, and policy trees are
  // memoized on exactly the fields DiacSynthesizer::policy_tree reads.
  // Each (design, FSM configuration) is compiled once into the SimPlan
  // its candidates' jobs share and their pruning floors read; the only
  // runtime axis DesignPoint::fsm_config overlays is adaptive sensing,
  // so that is the key beside the design.
  using SynthKey = std::tuple<PolicyKind, double, NvmTechnology, Scheme>;
  using PolicyKey =
      std::tuple<TreeGrouping, PolicyKind, double, double, double, double>;
  std::map<SynthKey, std::size_t> synth_index;
  std::deque<SynthesisResult> synthesized;
  std::optional<TaskTree> initial;
  std::map<PolicyKey, TaskTree> policy_trees;
  std::vector<std::size_t> design_of(points.size());
  std::map<std::pair<std::size_t, bool>, std::shared_ptr<const SimPlan>>
      plans;
  std::vector<std::shared_ptr<const SimPlan>> plan_of(points.size());
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
      }
      design_of[i] = it->second;

      CandidateResult& c = result.candidates[i];
      const SynthesisResult& sr = synthesized[design_of[i]];
      c.point = p;
      c.tasks = sr.design.tree.size();
      c.commit_points = sr.replacement.points.size();
      std::shared_ptr<const SimPlan>& plan =
          plans[{design_of[i], p.adaptive_sensing}];
      if (!plan) {
        plan = std::make_shared<const SimPlan>(
            sr.design, p.fsm_config(options.fsm), options.simulator);
      }
      plan_of[i] = plan;
      c.optimistic = optimistic_costs(
          options.objectives, instance_floors(plan->program(), plan->config()),
          options.simulator);
    }
    DIAC_OBS_COUNT("search.unique_designs", synthesized.size());
  }

  // --- batched fan-out with between-batch pruning ----------------------
  ParetoFront front(options.objectives.size());
  std::size_t next = 0;
  while (next < points.size()) {
    DIAC_TRACE_SPAN("search.batch", "search");
    std::vector<SimulationJob> jobs;
    std::vector<std::size_t> who;
    while (next < points.size() && jobs.size() < batch) {
      CandidateResult& c = result.candidates[next];
      if (options.prune && front.dominated(c.optimistic)) {
        c.pruned = true;
        ++result.pruned;
        ++next;
        continue;
      }
      // Every candidate sees the identical seeded trace.
      jobs.push_back({plan_of[next], options.scenario, options.simulator});
      who.push_back(next);
      ++next;
    }
    const std::vector<RunStats> stats = run_simulations(runner, jobs);
    for (std::size_t j = 0; j < who.size(); ++j) {
      CandidateResult& c = result.candidates[who[j]];
      c.stats = stats[j];
      c.costs = options.objectives.costs(stats[j]);
      front.insert(who[j], c.costs);
      ++result.evaluated;
    }
  }

  DIAC_OBS_COUNT("search.candidates", points.size());
  DIAC_OBS_COUNT("search.evaluated", result.evaluated);
  DIAC_OBS_COUNT("search.pruned", result.pruned);

  // --- rank the front ---------------------------------------------------
  result.front = ranked_front(front);
  return result;
}

}  // namespace diac
