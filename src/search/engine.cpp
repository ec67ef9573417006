#include "search/engine.hpp"

#include <algorithm>
#include <array>
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
  // Each design is compiled into a SimPlan under its first candidate's
  // FSM configuration.  The only runtime axis DesignPoint::fsm_config
  // overlays is adaptive sensing, which the pruning floors never read, so
  // a design's twins share that plan's floors; the other mode's plan is
  // compiled only when a simulation needs it.
  using SynthKey = std::tuple<PolicyKind, double, NvmTechnology, Scheme>;
  using PolicyKey =
      std::tuple<TreeGrouping, PolicyKind, double, double, double, double>;
  std::map<SynthKey, std::size_t> synth_index;
  std::deque<SynthesisResult> synthesized;
  std::optional<TaskTree> initial;
  std::map<PolicyKey, TaskTree> policy_trees;
  std::vector<std::size_t> design_of(points.size());
  // Per design, indexed by adaptive sensing: the compiled plans and the
  // RunStats each sensing mode is known to produce.  Kept across batches,
  // so twins a batch boundary splits still share one run.
  struct DesignRuns {
    std::size_t first = 0;  // the design's first candidate
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

      CandidateResult& c = result.candidates[i];
      const SynthesisResult& sr = synthesized[design_of[i]];
      c.point = p;
      c.tasks = sr.design.tree.size();
      c.commit_points = sr.replacement.points.size();
      const DesignRuns& r = runs[design_of[i]];
      if (inserted) {
        const SimPlan& plan = *r.plan[p.adaptive_sensing];
        c.optimistic = optimistic_costs(
            options.objectives, instance_floors(plan.program(), plan.config()),
            options.simulator);
      } else {
        c.optimistic = result.candidates[r.first].optimistic;
      }
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

  // --- batched fan-out with between-batch pruning ----------------------
  // A batch is a fixed slice of non-pruned candidates.  Its candidates
  // whose outcome is still unknown are grouped by design into one runner
  // job each: the job simulates the group's first candidate's mode, and
  // the other mode only when a candidate of the group needs it and the
  // first run's witness fired.
  struct Group {
    std::size_t design;
    bool mode;                  // the first candidate's sensing mode
    bool twin_needed = false;   // a candidate wants the other mode
    std::size_t simulations = 0;
  };
  constexpr std::size_t kNoGroup = static_cast<std::size_t>(-1);
  std::vector<std::size_t> group_of(synthesized.size(), kNoGroup);
  ParetoFront front(options.objectives.size());
  std::size_t next = 0;
  while (next < points.size()) {
    DIAC_TRACE_SPAN("search.batch", "search");
    std::vector<std::size_t> who;
    while (next < points.size() && who.size() < batch) {
      CandidateResult& c = result.candidates[next];
      if (options.prune && front.dominated(c.optimistic)) {
        c.pruned = true;
        ++result.pruned;
        ++next;
        continue;
      }
      who.push_back(next);
      ++next;
    }
    std::vector<Group> groups;
    for (std::size_t i : who) {
      const std::size_t d = design_of[i];
      const bool mode = points[i].adaptive_sensing;
      if (runs[d].stats[mode]) continue;
      if (group_of[d] == kNoGroup) {
        group_of[d] = groups.size();
        groups.push_back({d, mode});
      } else if (groups[group_of[d]].mode != mode) {
        groups[group_of[d]].twin_needed = true;
      }
    }
    runner.parallel_for(groups.size(), [&](std::size_t k) {
      Group& g = groups[k];
      g.simulations = 1;
      if (simulate(g.design, g.mode) && g.twin_needed) {
        simulate(g.design, !g.mode);
        g.simulations = 2;
      }
    });
    for (const Group& g : groups) {
      group_of[g.design] = kNoGroup;
      result.simulations += g.simulations;
    }
    for (std::size_t i : who) {
      CandidateResult& c = result.candidates[i];
      c.stats = *runs[design_of[i]].stats[points[i].adaptive_sensing];
      c.costs = options.objectives.costs(c.stats);
      front.insert(i, c.costs);
      ++result.evaluated;
    }
  }

  DIAC_OBS_COUNT("search.candidates", points.size());
  DIAC_OBS_COUNT("search.evaluated", result.evaluated);
  DIAC_OBS_COUNT("search.pruned", result.pruned);
  DIAC_OBS_COUNT("search.simulations", result.simulations);
  DIAC_OBS_COUNT("search.shared", result.evaluated - result.simulations);

  // --- rank the front ---------------------------------------------------
  result.front = ranked_front(front);
  return result;
}

}  // namespace diac
