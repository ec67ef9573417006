#include "diac/policy.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "obs/obs.hpp"
#include "tree/energy_model.hpp"

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
  if (std::ranges::none_of(tree.nodes(), splits)) {
    return tree;  // a copy shares the structure; a rebuild would match it
  }
  const Netlist& nl = tree.netlist();
  const CellLibrary& lib = tree.library();
  const double chunk_cap = limits.upper * limits.split_fraction;

  std::vector<int> part(nl.size(), kNoNode);
  std::vector<std::string> labels;
  int next = 0;

  for (TaskId id = 0; id < tree.size(); ++id) {
    const TaskNode& node = tree.node(id);
    if (!splits(node)) {
      for (GateId g : node.gates) part[g] = next;
      labels.emplace_back(node.label);
      ++next;
      continue;
    }
    // Cut member gates along topological order into chunks whose scaled
    // switching energy stays below chunk_cap.  Chunk edges can only point
    // forward in topological order, so the partition stays acyclic.
    double acc = 0.0;
    bool chunk_open = false;
    int chunk_idx = 0;
    for (GateId g : tree.topo_gates(id)) {
      const Gate gate = nl.gate(g);
      const double e =
          limits.scaled(lib.switching_energy(gate.kind, gate.fanin_count()));
      if (chunk_open && acc + e > chunk_cap) {
        ++next;  // close the chunk
        chunk_open = false;
        acc = 0.0;
      }
      if (!chunk_open) {
        labels.push_back(std::string(node.label) + "." +
                         std::to_string(++chunk_idx));
      }
      part[g] = next;
      chunk_open = true;
      acc += e;
    }
    if (chunk_open) ++next;
  }
  return tree.repartition(std::move(part), next, labels);
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

// The groups rules (a)+(b) leave, holding what the first packing pass
// reads: each group's unscaled energy and Kahn's order of the group graph.
// A group that absorbed another is recosted with the cost kernel over the
// union of its gates, the cost a rebuild computes (summing member
// energies instead could flip a decision near a limit); the others keep
// their node's energy.  The schedule is the one TaskTree::build would
// compute for the contracted partition, from succ rows built in one pass
// over the input tree's edges; no pred rows are built.
struct GroupLevel {
  std::vector<double> energy;
  std::vector<TaskId> schedule;
};

GroupLevel contract_groups(const TaskTree& tree, const std::vector<int>& to,
                           int groups) {
  const std::span<const TaskNode> nodes = tree.nodes();
  const std::size_t k = static_cast<std::size_t>(groups);
  GroupLevel level;
  level.energy.resize(k);

  // Tasks of each group in ascending task order.
  std::vector<std::uint32_t> member_begin(k + 1, 0);
  for (int j : to) ++member_begin[static_cast<std::size_t>(j) + 1];
  for (std::size_t j = 0; j < k; ++j) member_begin[j + 1] += member_begin[j];
  std::vector<TaskId> members(to.size());
  {
    std::vector<std::uint32_t> fill(member_begin.begin(),
                                    member_begin.end() - 1);
    for (TaskId t = 0; t < to.size(); ++t) {
      members[fill[static_cast<std::size_t>(to[t])]++] = t;
    }
  }
  const auto absorbed = [&member_begin](std::size_t j) {
    return member_begin[j + 1] - member_begin[j] > 1;
  };

  // Gates of each merged group in topological order: size the rows from
  // the member tasks, then bucket one pass over the netlist's order.
  std::vector<std::uint32_t> gate_begin(k + 1, 0);
  std::size_t edges = 0;
  for (TaskId t = 0; t < to.size(); ++t) {
    const auto j = static_cast<std::size_t>(to[t]);
    edges += nodes[t].succs.size();
    if (absorbed(j)) {
      gate_begin[j + 1] += static_cast<std::uint32_t>(nodes[t].gates.size());
    } else {
      level.energy[j] = nodes[t].dict.energy();
    }
  }
  for (std::size_t j = 0; j < k; ++j) gate_begin[j + 1] += gate_begin[j];
  std::vector<GateId> gates(gate_begin[k]);
  {
    const std::vector<int>& task_of = tree.partition();
    std::vector<std::uint32_t> fill(gate_begin.begin(), gate_begin.end() - 1);
    for (GateId g : tree.facts().topological_order) {
      if (task_of[g] == kNoNode) continue;
      const auto j =
          static_cast<std::size_t>(to[static_cast<std::size_t>(task_of[g])]);
      if (absorbed(j)) gates[fill[j]++] = g;
    }
  }
  const Netlist& nl = tree.netlist();
  std::vector<double> arrival(nl.size(), -1.0);  // operand_cost scratch
  for (std::size_t j = 0; j < k; ++j) {
    if (!absorbed(j)) continue;
    const std::span<const GateId> ordered =
        std::span<const GateId>(gates).subspan(gate_begin[j],
                                               gate_begin[j + 1] - gate_begin[j]);
    level.energy[j] =
        ordered_operand_cost(nl, ordered, tree.library(), arrival).energy();
  }
  DIAC_OBS_COUNT("synth.costed_gates", gates.size());

  // Kahn's order of the group graph, as kahn_schedule computes it over
  // sorted succ rows.  Group j's succ row is its members' succs through
  // `to`, deduplicated by stamping j; kahn_schedule reads only the
  // in-degrees of pred rows, so their prefix sums stand in for them.
  // `to` numbers groups by their first task, so most rows come out
  // sorted already.
  std::vector<int> stamp(k, -1);
  std::vector<std::uint32_t> pred_begin(k + 1, 0);
  std::vector<std::uint32_t> succ_begin(k + 1, 0);
  std::vector<TaskId> succs;
  succs.reserve(edges);
  for (std::size_t j = 0; j < k; ++j) {
    for (std::uint32_t m = member_begin[j]; m < member_begin[j + 1]; ++m) {
      for (TaskId s : nodes[members[m]].succs) {
        const auto q = static_cast<std::size_t>(to[s]);
        if (q == j || stamp[q] == static_cast<int>(j)) continue;
        stamp[q] = static_cast<int>(j);
        succs.push_back(static_cast<TaskId>(q));
        ++pred_begin[q + 1];
      }
    }
    succ_begin[j + 1] = static_cast<std::uint32_t>(succs.size());
    const auto row = succs.begin() + succ_begin[j];
    if (!std::is_sorted(row, succs.end())) std::sort(row, succs.end());
  }
  for (std::size_t j = 0; j < k; ++j) pred_begin[j + 1] += pred_begin[j];
  level.schedule = kahn_schedule(pred_begin, succ_begin, succs);
  if (level.schedule.size() != k) {
    throw std::invalid_argument(
        "TaskTree: partition induces a cyclic node graph");
  }
  return level;
}

// One packing pass over groups visited in `schedule` order, where
// energy(g) is group g's unscaled energy.  Maps each group onto its run in
// `to` (runs numbered by first appearance in group order) and returns the
// run count, or 0 when no group joins another's run.
template <typename EnergyOf>
int pack_runs(std::span<const TaskId> schedule, EnergyOf energy,
              const PolicyLimits& limits, std::vector<int>& to) {
  std::vector<int> seg_of(schedule.size(), -1);
  bool changed = false;
  int seg = 0;
  double acc = 0;
  bool open = false;
  for (TaskId id : schedule) {
    const double e = limits.scaled(energy(id));
    if (e >= limits.lower) {
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
  if (!changed) return 0;
  std::vector<int> dense(static_cast<std::size_t>(seg) + 1, -1);
  to.resize(schedule.size());
  int runs = 0;
  for (std::size_t id = 0; id < schedule.size(); ++id) {
    const auto s = static_cast<std::size_t>(seg_of[id]);
    if (dense[s] < 0) dense[s] = runs++;
    to[id] = dense[s];
  }
  return runs;
}

// `tree`'s gate->node map with every node t replaced by to[t].
std::vector<int> compose(const TaskTree& tree, const std::vector<int>& to) {
  std::vector<int> part = tree.partition();
  for (int& p : part) {
    if (p != kNoNode) p = to[static_cast<std::size_t>(p)];
  }
  return part;
}

}  // namespace

TaskTree merge_small_nodes(const TaskTree& tree, const PolicyLimits& limits) {
  if (limits.lower <= 0 || limits.upper < limits.lower) {
    throw std::invalid_argument("merge_small_nodes: need 0 < lower <= upper");
  }
  const std::span<const TaskNode> nodes = tree.nodes();
  const std::size_t n = nodes.size();
  UnionFind uf(n);
  std::vector<double> group_energy(n);
  for (std::size_t i = 0; i < n; ++i) {
    group_energy[i] = limits.scaled(nodes[i].dict.energy());
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
  // Buckets are runs of the small nodes sorted on (level, succs, id).
  // Equal successor sets share their first successor, so a counting sort
  // on it (sinks last) leaves small classes to sort.  Buckets are
  // disjoint, so their order does not change the result.
  std::vector<std::uint32_t> class_begin(n + 2, 0);
  std::vector<std::uint32_t> class_of(n);
  std::size_t small_count = 0;
  for (TaskId i = 0; i < n; ++i) {
    if (group_energy[i] >= limits.lower) continue;
    const std::span<const TaskId> succs = nodes[i].succs;
    class_of[i] = succs.empty() ? static_cast<std::uint32_t>(n) : succs[0];
    ++class_begin[class_of[i] + 1];
    ++small_count;
  }
  for (std::size_t c = 0; c <= n; ++c) class_begin[c + 1] += class_begin[c];
  std::vector<TaskId> small(small_count);
  {
    std::vector<std::uint32_t> fill(class_begin.begin(), class_begin.end() - 1);
    for (TaskId i = 0; i < n; ++i) {
      if (group_energy[i] < limits.lower) small[fill[class_of[i]]++] = i;
    }
  }
  auto same_bucket = [&nodes](TaskId a, TaskId b) {
    return nodes[a].dict.level == nodes[b].dict.level &&
           std::ranges::equal(nodes[a].succs, nodes[b].succs);
  };
  for (std::size_t c = 0; c <= n; ++c) {
    const auto first = small.begin() + class_begin[c];
    const auto last = small.begin() + class_begin[c + 1];
    if (last - first < 2) continue;
    std::sort(first, last, [&nodes](TaskId a, TaskId b) {
      const TaskNode& x = nodes[a];
      const TaskNode& y = nodes[b];
      if (x.dict.level != y.dict.level) return x.dict.level < y.dict.level;
      if (!std::ranges::equal(x.succs, y.succs)) {
        return std::ranges::lexicographical_compare(x.succs, y.succs);
      }
      return a < b;
    });
  }
  for (std::size_t b = 0; b < small.size();) {
    std::size_t e = b + 1;
    while (e < small.size() && same_bucket(small[b], small[e])) ++e;
    // Greedy packing: add members while the group stays within upper.
    TaskId head = small[b];
    for (std::size_t k = b + 1; k < e; ++k) {
      if (energy_of(head) + energy_of(small[k]) <= limits.upper) {
        merge_groups(head, small[k]);
      } else {
        head = small[k];
      }
    }
    b = e;
  }

  // Rule (b): absorb single-pred chains.  If v's only predecessor is u (or
  // u's only successor is v), every path into v passes through u, so the
  // merge cannot create a cycle.  Applied only while both sides are small.
  for (TaskId v = 0; v < n; ++v) {
    const TaskNode& node = nodes[v];
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

  // Number the union-find groups by first appearance.
  std::vector<int> group_index(n, -1);
  int next = 0;
  std::vector<int> to(n);
  for (TaskId id = 0; id < n; ++id) {
    const TaskId root = uf.find(id);
    if (group_index[root] < 0) group_index[root] = next++;
    to[id] = group_index[root];
  }

  // Stage (c): pack topologically-contiguous runs of small nodes.  A
  // contiguous segment of a topological order only has forward edges to
  // later segments, so any such packing is acyclic.  This coarsens the
  // many tiny cones of large netlists into operand-sized tasks.  The
  // first pass reads the groups of rules (a)+(b); each productive pass is
  // rebuilt into a tree once, and the next pass reads that tree's node
  // energies and schedule (the ones a contraction would derive).
  constexpr int kPackingPasses = 4;
  std::vector<int> to_run;
  int runs = 0;
  if (!limits.structural_only) {
    const GroupLevel level = contract_groups(tree, to, next);
    runs = pack_runs(
        level.schedule, [&level](TaskId g) { return level.energy[g]; },
        limits, to_run);
  }
  if (runs > 0) {  // packed nodes fall back to "F<i+1>" labels
    for (int& g : to) g = to_run[static_cast<std::size_t>(g)];
    TaskTree packed = tree.repartition(compose(tree, to), runs);
    for (int pass = 1; pass < kPackingPasses; ++pass) {
      const std::span<const TaskNode> groups = packed.nodes();
      runs = pack_runs(
          packed.schedule(),
          [groups](TaskId g) { return groups[g].dict.energy(); }, limits,
          to_run);
      if (runs == 0) break;
      packed = packed.repartition(compose(packed, to_run), runs);
    }
    return packed;
  }
  // Merged groups keep a joined label (capped at three member names, the
  // paper's F13 style).
  std::vector<std::string> labels(static_cast<std::size_t>(next));
  for (TaskId id = 0; id < n; ++id) {
    std::string& l = labels[static_cast<std::size_t>(to[id])];
    const std::string_view member = nodes[id].label;
    if (l.empty()) {
      l = member;
    } else if (l.size() >= 3 && l.compare(l.size() - 3, 3, "+..") == 0) {
      // already elided
    } else if (std::count(l.begin(), l.end(), '+') < 3) {
      l += '+';
      l += member;
    } else {
      l += "+..";
    }
  }
  return tree.repartition(compose(tree, to), next, labels);
}

TaskTree apply_policy(const TaskTree& tree, PolicyKind kind,
                      const PolicyLimits& limits) {
  switch (kind) {
    case PolicyKind::kPolicy1:
      return split_large_nodes(tree, limits);
    case PolicyKind::kPolicy2:
      return merge_small_nodes(tree, limits);
    case PolicyKind::kPolicy3:
      return merge_small_nodes(split_large_nodes(tree, limits), limits);
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
