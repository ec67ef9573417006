#include "diac/policy.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

namespace diac {

const char* to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kPolicy1: return "Policy1";
    case PolicyKind::kPolicy2: return "Policy2";
    case PolicyKind::kPolicy3: return "Policy3";
  }
  return "?";
}

TaskTree split_large_nodes(const TaskTree& tree, const PolicyLimits& limits) {
  if (limits.upper <= 0 || limits.split_fraction <= 0) {
    throw std::invalid_argument("split_large_nodes: limits must be positive");
  }
  auto splits = [&limits](const TaskNode& node) {
    return limits.scaled(node.dict.energy()) > limits.upper &&
           node.gates.size() >= 2;
  };
  if (std::none_of(tree.nodes().begin(), tree.nodes().end(), splits)) {
    return tree;  // rebuilding the identical partition would change nothing
  }
  const Netlist& nl = tree.netlist();
  const CellLibrary& lib = tree.library();
  const double chunk_cap = limits.upper * limits.split_fraction;

  std::vector<int> part(nl.size(), kNoNode);
  std::vector<std::string> labels;
  int next = 0;
  const std::span<const std::uint32_t> pos = tree.topo_positions();

  for (const TaskNode& node : tree.nodes()) {
    if (!splits(node)) {
      for (GateId g : node.gates) part[g] = next;
      labels.push_back(node.label);
      ++next;
      continue;
    }
    // Cut member gates along topological order into chunks whose scaled
    // switching energy stays below chunk_cap.  Chunk edges can only point
    // forward in topological order, so the partition stays acyclic.
    std::vector<GateId> ordered = node.gates;
    std::sort(ordered.begin(), ordered.end(),
              [pos](GateId a, GateId b) { return pos[a] < pos[b]; });
    double acc = 0.0;
    bool chunk_open = false;
    int chunk_idx = 0;
    for (GateId g : ordered) {
      const Gate& gate = nl.gate(g);
      const double e =
          limits.scaled(lib.switching_energy(gate.kind, gate.fanin_count()));
      if (chunk_open && acc + e > chunk_cap) {
        ++next;  // close the chunk
        chunk_open = false;
        acc = 0.0;
      }
      if (!chunk_open) {
        labels.push_back(node.label + "." + std::to_string(++chunk_idx));
      }
      part[g] = next;
      chunk_open = true;
      acc += e;
    }
    if (chunk_open) ++next;
  }
  return tree.repartition(part, next, labels);
}

namespace {

// Merge-group bookkeeping: union-find over task ids.
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

TaskTree merge_small_nodes(const TaskTree& tree, const PolicyLimits& limits) {
  if (limits.lower <= 0 || limits.upper < limits.lower) {
    throw std::invalid_argument("merge_small_nodes: need 0 < lower <= upper");
  }
  const Netlist& nl = tree.netlist();
  const std::size_t n = tree.size();

  UnionFind uf(n);
  std::vector<double> group_energy(n);
  for (std::size_t i = 0; i < n; ++i) {
    group_energy[i] = limits.scaled(tree.node(static_cast<TaskId>(i)).dict.energy());
  }
  auto energy_of = [&](TaskId id) { return group_energy[uf.find(id)]; };
  auto merge_groups = [&](TaskId a, TaskId b) {
    const TaskId ra = uf.find(a), rb = uf.find(b);
    if (ra == rb) return;
    const double e = group_energy[ra] + group_energy[rb];
    uf.unite(ra, rb);
    group_energy[uf.find(ra)] = e;
  };

  // Rule (a): same-level nodes with identical successor sets.  Within a
  // level no node can reach another (levels strictly increase along
  // edges), so any same-level grouping is acyclic; identical-successor
  // grouping additionally preserves the communication structure — this is
  // the rule that merges F5..F8 (all feeding the output node) into F13.
  std::map<std::pair<int, std::vector<TaskId>>, std::vector<TaskId>> buckets;
  for (std::size_t i = 0; i < n; ++i) {
    const TaskNode& node = tree.node(static_cast<TaskId>(i));
    if (limits.scaled(node.dict.energy()) >= limits.lower) continue;
    buckets[{node.dict.level, node.succs}].push_back(static_cast<TaskId>(i));
  }
  for (auto& [key, ids] : buckets) {
    if (ids.size() < 2) continue;
    // Greedy packing: add members while the group stays within upper.
    TaskId head = ids[0];
    for (std::size_t k = 1; k < ids.size(); ++k) {
      if (energy_of(head) + energy_of(ids[k]) <= limits.upper) {
        merge_groups(head, ids[k]);
      } else {
        head = ids[k];
      }
    }
  }

  // Rule (b): absorb single-pred chains.  If v's only predecessor is u (or
  // u's only successor is v), every path into v passes through u, so the
  // merge cannot create a cycle.  Applied only while both sides are small.
  for (TaskId v = 0; v < n; ++v) {
    const TaskNode& node = tree.node(v);
    if (node.preds.size() != 1) continue;
    const TaskId u = node.preds[0];
    if (uf.find(u) == uf.find(v)) continue;
    if (energy_of(v) >= limits.lower && energy_of(u) >= limits.lower) continue;
    if (energy_of(u) + energy_of(v) > limits.upper) continue;
    // Only safe when no *other* group member of u reaches v around the
    // chain; restrict to the simple case where u's group is u alone or the
    // chain rule applies directly to original nodes.
    merge_groups(u, v);
  }

  // Rebuild the partition from the union-find groups.  Merged groups keep
  // a joined label (capped at three member names, the paper's F13 style).
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
    append_label(group_index[root], tree.node(id).label);
    for (GateId g : tree.node(id).gates) part[g] = group_index[root];
  }
  TaskTree merged = tree.repartition(part, next, labels);
  if (limits.structural_only) return merged;

  // Stage (c): pack topologically-contiguous runs of small nodes.  A
  // contiguous segment of a topological order only has forward edges to
  // later segments, so any such packing is acyclic.  This coarsens the
  // many tiny cones of large netlists into operand-sized tasks.
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
        // Large nodes stand alone; close any open run first.
        if (open) {
          ++seg;
          acc = 0;
          open = false;
        }
        seg_of[id] = seg++;
        continue;
      }
      if (open && acc + e > limits.upper) {
        ++seg;  // close the full run
        acc = 0;
        open = false;
      }
      if (open) changed = true;  // this node joins an existing run
      seg_of[id] = seg;
      open = true;
      acc += e;
    }
    if (!changed) break;
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

TaskTree apply_policy(const TaskTree& tree, PolicyKind kind,
                      const PolicyLimits& limits) {
  switch (kind) {
    case PolicyKind::kPolicy1:
      return split_large_nodes(tree, limits);
    case PolicyKind::kPolicy2:
      return merge_small_nodes(tree, limits);
    case PolicyKind::kPolicy3: {
      const TaskTree split = split_large_nodes(tree, limits);
      return merge_small_nodes(split, limits);
    }
  }
  throw std::logic_error("apply_policy: unknown policy");
}

PolicyLimits limits_for_storage(const TaskTree& tree, double e_max,
                                double instance_energy,
                                double headroom_fraction) {
  if (e_max <= 0 || instance_energy <= 0 || headroom_fraction <= 0) {
    throw std::invalid_argument("limits_for_storage: arguments must be positive");
  }
  const double total = tree.total_energy();
  if (total <= 0) {
    throw std::invalid_argument("limits_for_storage: tree has no energy");
  }
  PolicyLimits limits;
  limits.scale = instance_energy / total;
  limits.upper = headroom_fraction * e_max;
  limits.lower = 0.8 * limits.upper;  // the paper's 25/20 ratio
  return limits;
}

}  // namespace diac
