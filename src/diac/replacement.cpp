#include "diac/replacement.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

namespace diac {

ReplacementResult insert_nvm(TaskTree& tree, const ReplacementOptions& options) {
  if (options.budget <= 0 || options.scale <= 0) {
    throw std::invalid_argument("insert_nvm: budget and scale must be positive");
  }

  // Reset any previous plan.
  tree.clear_annotations();

  ReplacementResult result;
  auto commit = [&](TaskId id) {
    NvmAnnotation& a = tree.annotation(id);
    if (a.has_nvm) return;
    a.has_nvm = true;
    // One write event persists the node's boundary signals (capped at the
    // register-file width) plus control state (criterion III: all fanout
    // signals consolidate into this one commit).
    a.nvm_bits =
        std::min(std::max(1, tree.node(id).dict.fanout), options.bits_cap) +
        options.control_bits;
    result.points.push_back(id);
    result.total_bits += a.nvm_bits;
  };

  // Leaves -> roots traversal along the topological schedule.  P_total
  // accumulates the energy of every task since the last commit point —
  // execution (and therefore recovery) is linear in schedule order, so
  // accumulating along the schedule bounds exactly the work a power
  // failure can destroy.  "The previous power values are set to zero" when
  // a commit is inserted.
  const auto& schedule = tree.schedule();
  const int max_level = std::max(1, tree.max_level());

  // kScored: pick the best-scoring commit position among the trailing
  // uncommitted tasks (criteria I-III), then charge the tail after it to
  // the next accumulation period.
  auto scored_commit = [&](std::size_t crossing) -> std::size_t {
    const std::size_t lo =
        crossing + 1 >= static_cast<std::size_t>(std::max(1, options.window))
            ? crossing + 1 - static_cast<std::size_t>(std::max(1, options.window))
            : 0;
    double best = -1;
    std::size_t best_pos = crossing;
    for (std::size_t j = lo; j <= crossing; ++j) {
      const TaskNode& cand = tree.node(schedule[j]);
      const NvmAnnotation& mark = tree.annotation(schedule[j]);
      if (mark.has_nvm) continue;  // already a commit point
      const double fan = cand.dict.fanin + cand.dict.fanout;
      const double score =
          options.w_level * (static_cast<double>(cand.dict.level) / max_level) +
          options.w_power * (mark.accumulated_energy / options.budget) +
          options.w_fan * std::min(1.0, fan / options.bits_cap);
      if (score > best) {
        best = score;
        best_pos = j;
      }
    }
    return best_pos;
  };

  if (options.strategy == InsertionStrategy::kOptimalDp) {
    // Prefix sums of scaled task energies along the schedule.
    const std::size_t n = schedule.size();
    std::vector<double> prefix(n + 1, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      prefix[i + 1] =
          prefix[i] + options.scale * tree.node(schedule[i]).dict.energy();
    }
    auto write_cost = [&](std::size_t pos) {
      const TaskNode& cand = tree.node(schedule[pos]);
      const int bits =
          std::min(std::max(1, cand.dict.fanout), options.bits_cap) +
          options.control_bits;
      return options.controller_event_energy + bits * options.energy_per_bit;
    };
    // Expected re-execution cost of a segment (i, j]: failures arrive at
    // failure_rate per active second over T = E/P; each destroys half the
    // segment's work in expectation.
    auto segment_cost = [&](std::size_t i, std::size_t j) {
      const double e = prefix[j] - prefix[i];
      const double duration = e / options.active_power;
      return options.failure_rate * duration * (e / 2.0);
    };
    // best[j] = minimal cost of executing tasks [0, j) with a commit at
    // task j-1.  The final task must commit (result persistence).
    std::vector<double> best(n + 1, 0.0);
    std::vector<std::size_t> prev(n + 1, 0);
    for (std::size_t j = 1; j <= n; ++j) {
      best[j] = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < j; ++i) {
        const double c = best[i] + segment_cost(i, j) + write_cost(j - 1);
        if (c < best[j]) {
          best[j] = c;
          prev[j] = i;
        }
      }
    }
    // Walk the commit chain backwards.
    std::vector<std::size_t> cuts;
    for (std::size_t j = n; j > 0; j = prev[j]) cuts.push_back(j - 1);
    for (auto it = cuts.rbegin(); it != cuts.rend(); ++it) {
      commit(schedule[*it]);
    }
    // Exposure bookkeeping: accumulated energy resets at each commit.
    double acc_dp = 0;
    for (std::size_t i = 0; i < n; ++i) {
      acc_dp += options.scale * tree.node(schedule[i]).dict.energy();
      NvmAnnotation& a = tree.annotation(schedule[i]);
      a.accumulated_energy = acc_dp;
      result.max_exposed_energy = std::max(result.max_exposed_energy, acc_dp);
      if (a.has_nvm) acc_dp = 0;
    }
    return result;
  }

  double acc = 0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const TaskId id = schedule[i];
    acc += options.scale * tree.node(id).dict.energy();
    tree.annotation(id).accumulated_energy = acc;
    result.max_exposed_energy = std::max(result.max_exposed_energy, acc);

    // The final task always commits when commit_roots is set: the commit
    // barrier persists the live state, so one terminal commit makes the
    // instance result (all primary outputs) survive arbitrarily many
    // failures before Transmit.
    const bool is_last = i + 1 == schedule.size();
    if (acc > options.budget || (options.commit_roots && is_last)) {
      std::size_t pos = i;
      if (options.strategy == InsertionStrategy::kScored && !is_last) {
        pos = scored_commit(i);
      }
      commit(schedule[pos]);
      // Tasks after the chosen position start the next period.
      acc = 0;
      for (std::size_t j = pos + 1; j <= i; ++j) {
        acc += options.scale * tree.node(schedule[j]).dict.energy();
      }
      result.max_exposed_energy = std::max(result.max_exposed_energy, acc);
    }
  }
  return result;
}

CommitCost per_pass_commit_cost(const TaskTree& tree, const NvmParameters& nvm,
                                double system_factor,
                                double controller_event_energy,
                                double system_time_factor) {
  CommitCost cost;
  for (TaskId id = 0; id < tree.size(); ++id) {
    const NvmAnnotation& a = tree.annotation(id);
    if (!a.has_nvm) continue;
    ++cost.writes;
    cost.energy +=
        controller_event_energy + system_factor * nvm.write_energy(a.nvm_bits);
    cost.time += system_time_factor * nvm.write_time(a.nvm_bits);
  }
  return cost;
}

}  // namespace diac
