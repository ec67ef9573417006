#include "oracle/reference_policy.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace diac {

namespace {

class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = static_cast<TaskId>(i);
  }
  TaskId find(TaskId x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(TaskId a, TaskId b) { parent_[find(a)] = find(b); }

 private:
  std::vector<TaskId> parent_;
};

}  // namespace

TaskTree reference_merge_small_nodes(const TaskTree& tree,
                                     const PolicyLimits& limits,
                                     int* changing_passes) {
  if (limits.lower <= 0 || limits.upper < limits.lower) {
    throw std::invalid_argument("merge_small_nodes: need 0 < lower <= upper");
  }
  if (changing_passes != nullptr) *changing_passes = 0;
  const Netlist& nl = tree.netlist();
  const std::size_t n = tree.size();

  UnionFind uf(n);
  std::vector<double> group_energy(n);
  for (std::size_t i = 0; i < n; ++i) {
    group_energy[i] =
        limits.scaled(tree.node(static_cast<TaskId>(i)).dict.energy());
  }
  auto energy_of = [&](TaskId id) { return group_energy[uf.find(id)]; };
  auto merge_groups = [&](TaskId a, TaskId b) {
    const TaskId ra = uf.find(a), rb = uf.find(b);
    if (ra == rb) return;
    const double e = group_energy[ra] + group_energy[rb];
    uf.unite(ra, rb);
    group_energy[uf.find(ra)] = e;
  };

  // Rule (a): same-level nodes with identical successor sets.
  std::map<std::pair<int, std::vector<TaskId>>, std::vector<TaskId>> buckets;
  for (std::size_t i = 0; i < n; ++i) {
    const TaskNode& node = tree.node(static_cast<TaskId>(i));
    if (limits.scaled(node.dict.energy()) >= limits.lower) continue;
    const std::vector<TaskId> succs(node.succs.begin(), node.succs.end());
    buckets[{node.dict.level, succs}].push_back(static_cast<TaskId>(i));
  }
  for (auto& [key, ids] : buckets) {
    if (ids.size() < 2) continue;
    TaskId head = ids[0];
    for (std::size_t k = 1; k < ids.size(); ++k) {
      if (energy_of(head) + energy_of(ids[k]) <= limits.upper) {
        merge_groups(head, ids[k]);
      } else {
        head = ids[k];
      }
    }
  }

  // Rule (b): absorb single-pred chains.
  for (TaskId v = 0; v < n; ++v) {
    const TaskNode& node = tree.node(v);
    if (node.preds.size() != 1) continue;
    const TaskId u = node.preds[0];
    if (uf.find(u) == uf.find(v)) continue;
    if (energy_of(v) >= limits.lower && energy_of(u) >= limits.lower) continue;
    if (energy_of(u) + energy_of(v) > limits.upper) continue;
    merge_groups(u, v);
  }

  // Rebuild from the union-find groups with joined labels.
  std::vector<int> group_index(n, -1);
  int next = 0;
  std::vector<int> part(nl.size(), kNoNode);
  std::vector<std::string> labels;
  auto append_label = [&labels](int group, const std::string& member) {
    std::string& l = labels[static_cast<std::size_t>(group)];
    if (l.empty()) {
      l = member;
    } else if (l.size() >= 3 && l.compare(l.size() - 3, 3, "+..") == 0) {
      // already elided
    } else if (std::count(l.begin(), l.end(), '+') < 3) {
      l += "+" + member;
    } else {
      l += "+..";
    }
  };
  for (TaskId id = 0; id < n; ++id) {
    const TaskId root = uf.find(id);
    if (group_index[root] < 0) {
      group_index[root] = next++;
      labels.emplace_back();
    }
    append_label(group_index[root], std::string(tree.node(id).label));
    for (GateId g : tree.node(id).gates) part[g] = group_index[root];
  }
  TaskTree merged = tree.repartition(part, next, labels);
  if (limits.structural_only) return merged;

  // Stage (c): pack topologically-contiguous runs of small nodes, one
  // rebuild per changing pass.
  for (int pass = 0; pass < 4; ++pass) {
    bool changed = false;
    const std::size_t m = merged.size();
    std::vector<int> seg_of(m, -1);
    int seg = 0;
    double acc = 0;
    bool open = false;
    for (TaskId id : merged.schedule()) {
      const double e = limits.scaled(merged.node(id).dict.energy());
      const bool small = e < limits.lower;
      if (!small) {
        if (open) {
          ++seg;
          acc = 0;
          open = false;
        }
        seg_of[id] = seg++;
        continue;
      }
      if (open && acc + e > limits.upper) {
        ++seg;
        acc = 0;
        open = false;
      }
      if (open) changed = true;
      seg_of[id] = seg;
      open = true;
      acc += e;
    }
    if (!changed) break;
    if (changing_passes != nullptr) ++*changing_passes;
    std::vector<int> part2(nl.size(), kNoNode);
    std::vector<int> dense(seg + 1, -1);
    int next2 = 0;
    for (TaskId id = 0; id < m; ++id) {
      const int s = seg_of[id];
      if (dense[s] < 0) dense[s] = next2++;
      for (GateId g : merged.node(id).gates) part2[g] = dense[s];
    }
    merged = merged.repartition(part2, next2);
  }
  return merged;
}

TaskTree reference_apply_policy(const TaskTree& tree, PolicyKind kind,
                                const PolicyLimits& limits) {
  switch (kind) {
    case PolicyKind::kPolicy1:
      return split_large_nodes(tree, limits);
    case PolicyKind::kPolicy2:
      return reference_merge_small_nodes(tree, limits);
    case PolicyKind::kPolicy3:
      return reference_merge_small_nodes(split_large_nodes(tree, limits),
                                         limits);
  }
  throw std::logic_error("reference_apply_policy: unknown policy");
}

}  // namespace diac
