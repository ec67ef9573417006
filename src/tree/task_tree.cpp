#include "tree/task_tree.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "netlist/analysis.hpp"
#include "obs/obs.hpp"
#include "tree/energy_model.hpp"

namespace diac {

namespace {

std::shared_ptr<const NetlistFacts> make_facts(const Netlist& nl,
                                               std::span<const GateId> order) {
  auto facts = std::make_shared<NetlistFacts>();
  facts->topo_pos = topological_positions(order);
  facts->cone_root = cone_roots(nl, order);
  facts->state_clusters = state_driver_cones(nl, facts->cone_root);
  return facts;
}

// Offsets of a CSR pool from per-row counts held in begin[1..n]: on
// return begin[i] is row i's first entry and begin[n] the pool size.
void prefix_sum(std::vector<std::uint32_t>& begin) {
  for (std::size_t i = 1; i < begin.size(); ++i) begin[i] += begin[i - 1];
}

}  // namespace

TaskTree TaskTree::from_partition(const Netlist& nl, const CellLibrary& lib,
                                  const std::vector<int>& node_of_gate,
                                  int num_nodes,
                                  const std::vector<std::string>& labels) {
  return build(nl, lib, make_facts(nl, topological_order(nl)), node_of_gate,
               num_nodes, labels);
}

TaskTree TaskTree::repartition(const std::vector<int>& node_of_gate,
                               int num_nodes,
                               const std::vector<std::string>& labels) const {
  DIAC_OBS_COUNT("synth.repartitions", 1);
  return build(netlist(), library(), shape_->facts, node_of_gate, num_nodes,
               labels);
}

TaskTree TaskTree::build(const Netlist& nl, const CellLibrary& lib,
                         std::shared_ptr<const NetlistFacts> facts,
                         const std::vector<int>& node_of_gate, int num_nodes,
                         const std::vector<std::string>& labels) {
  if (node_of_gate.size() != nl.size()) {
    throw std::invalid_argument("TaskTree: partition size != netlist size");
  }
  if (num_nodes <= 0) {
    throw std::invalid_argument("TaskTree: num_nodes must be positive");
  }
  const auto n_nodes = static_cast<std::size_t>(num_nodes);

  // Member gates: count per node, then fill in ascending gate order.
  std::vector<std::uint32_t> gate_begin(n_nodes + 1, 0);
  for (GateId g = 0; g < nl.size(); ++g) {
    const int n = node_of_gate[g];
    const bool logic = is_logic(nl.kind(g));
    if (n == kNoNode) {
      if (logic) {
        throw std::invalid_argument("TaskTree: logic gate '" +
                                    std::string(nl.gate_name(g)) +
                                    "' not assigned to a node");
      }
      continue;
    }
    if (!logic) {
      throw std::invalid_argument("TaskTree: port/constant gate '" +
                                  std::string(nl.gate_name(g)) +
                                  "' assigned to a node");
    }
    if (n < 0 || n >= num_nodes) {
      throw std::invalid_argument("TaskTree: node index out of range");
    }
    ++gate_begin[static_cast<std::size_t>(n) + 1];
  }
  for (std::size_t i = 0; i < n_nodes; ++i) {
    if (gate_begin[i + 1] == 0) {
      throw std::invalid_argument("TaskTree: empty node " + std::to_string(i));
    }
  }
  prefix_sum(gate_begin);

  auto shape = std::make_shared<Shape>();
  Shape& s = *shape;
  s.nl = &nl;
  s.lib = &lib;
  s.facts = std::move(facts);
  s.node_of_gate = node_of_gate;
  s.gate_pool.resize(gate_begin[n_nodes]);
  {
    std::vector<std::uint32_t> fill(gate_begin.begin(), gate_begin.end() - 1);
    for (GateId g = 0; g < nl.size(); ++g) {
      const int n = node_of_gate[g];
      if (n != kNoNode) s.gate_pool[fill[static_cast<std::size_t>(n)]++] = g;
    }
  }
  auto gates_of = [&](std::size_t i) {
    return std::span<const GateId>(s.gate_pool)
        .subspan(gate_begin[i], gate_begin[i + 1] - gate_begin[i]);
  };

  // Edges and fan counts in one scan over fanins.  Dependency edges follow
  // combinational connectivity; DFF D-inputs are sequential boundaries (no
  // dep edge) but still count as data fan-in/fan-out for backup sizing.
  // Stamp arrays dedupe per node: `last_reader[f]` is the last node that
  // counted signal f as fan-in, `last_pred[p]` the last node that recorded
  // node p as a predecessor.  `external[g]` marks gates read outside their
  // own node, by another node or by a port.
  std::vector<FeatureDict> dicts(n_nodes);
  std::vector<std::uint32_t> pred_begin(n_nodes + 1, 0);
  std::vector<int> last_reader(nl.size(), kNoNode);
  std::vector<int> last_pred(n_nodes, kNoNode);
  std::vector<char> external(nl.size(), 0);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    const int self = static_cast<int>(i);
    const auto row = static_cast<std::ptrdiff_t>(s.pred_pool.size());
    for (GateId g : gates_of(i)) {
      const GateKind kind = nl.kind(g);
      for (GateId f : nl.fanin(g)) {
        const int src_node = node_of_gate[f];
        if (src_node == self) continue;
        external[f] = 1;
        if (last_reader[f] != self) {
          last_reader[f] = self;
          ++dicts[i].fanin;
        }
        if (src_node != kNoNode && kind != GateKind::kDff &&
            last_pred[static_cast<std::size_t>(src_node)] != self) {
          last_pred[static_cast<std::size_t>(src_node)] = self;
          s.pred_pool.push_back(static_cast<TaskId>(src_node));
        }
      }
    }
    std::sort(s.pred_pool.begin() + row, s.pred_pool.end());
    pred_begin[i + 1] = static_cast<std::uint32_t>(s.pred_pool.size());
  }
  for (GateId g = 0; g < nl.size(); ++g) {
    if (node_of_gate[g] != kNoNode) continue;
    for (GateId f : nl.fanin(g)) external[f] = 1;
  }
  // Succs are the inverse of preds, filled in ascending node order so each
  // row comes out sorted.
  std::vector<std::uint32_t> succ_begin(n_nodes + 1, 0);
  for (TaskId p : s.pred_pool) ++succ_begin[p + 1];
  prefix_sum(succ_begin);
  s.succ_pool.resize(s.pred_pool.size());
  {
    std::vector<std::uint32_t> fill(succ_begin.begin(), succ_begin.end() - 1);
    for (std::size_t i = 0; i < n_nodes; ++i) {
      for (std::uint32_t e = pred_begin[i]; e < pred_begin[i + 1]; ++e) {
        s.succ_pool[fill[s.pred_pool[e]]++] = static_cast<TaskId>(i);
      }
    }
  }

  // Costs over the shared topological position map, with one set of
  // scratch buffers serving every node.
  std::vector<double> arrival(nl.size(), -1.0);
  std::vector<GateId> ordered;
  for (std::size_t i = 0; i < n_nodes; ++i) {
    FeatureDict& d = dicts[i];
    for (GateId g : gates_of(i)) d.fanout += external[g];
    const OperandCost cost = operand_cost(nl, gates_of(i), lib,
                                          s.facts->topo_pos, arrival, ordered);
    d.delay = cost.delay;
    d.power = cost.power;
    d.dynamic_energy = cost.dynamic_energy;
    d.static_energy = cost.static_energy;
  }

  // Topological schedule + levels over the node graph (Kahn, FIFO, ready
  // nodes seeded in index order).
  std::vector<std::uint32_t> pending(n_nodes);
  s.schedule.reserve(n_nodes);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    pending[i] = pred_begin[i + 1] - pred_begin[i];
    if (pending[i] == 0) s.schedule.push_back(static_cast<TaskId>(i));
  }
  for (std::size_t head = 0; head < s.schedule.size(); ++head) {
    const TaskId id = s.schedule[head];
    int lvl = 0;
    for (std::uint32_t e = pred_begin[id]; e < pred_begin[id + 1]; ++e) {
      lvl = std::max(lvl, dicts[s.pred_pool[e]].level + 1);
    }
    dicts[id].level = lvl;
    s.max_level = std::max(s.max_level, lvl);
    for (std::uint32_t e = succ_begin[id]; e < succ_begin[id + 1]; ++e) {
      if (--pending[s.succ_pool[e]] == 0) s.schedule.push_back(s.succ_pool[e]);
    }
  }
  if (s.schedule.size() != n_nodes) {
    throw std::invalid_argument("TaskTree: partition induces a cyclic node graph");
  }

  s.nodes.resize(n_nodes);
  auto edges_of = [](const std::vector<TaskId>& pool,
                     const std::vector<std::uint32_t>& begin, std::size_t i) {
    return std::span<const TaskId>(pool).subspan(begin[i],
                                                 begin[i + 1] - begin[i]);
  };
  for (std::size_t i = 0; i < n_nodes; ++i) {
    TaskNode& node = s.nodes[i];
    node.label = i < labels.size() && !labels[i].empty()
                     ? labels[i]
                     : "F" + std::to_string(i + 1);
    node.gates = gates_of(i);
    node.dict = dicts[i];
    node.preds = edges_of(s.pred_pool, pred_begin, i);
    node.succs = edges_of(s.succ_pool, succ_begin, i);
  }

  TaskTree tree;
  tree.shape_ = std::move(shape);
  tree.annotations_.resize(n_nodes);
  return tree;
}

const TaskNode& TaskTree::node(TaskId id) const {
  if (id >= size()) throw std::out_of_range("TaskTree::node: bad id");
  return shape_->nodes[id];
}

std::span<const TaskNode> TaskTree::nodes() const {
  if (!shape_) return {};
  return shape_->nodes;
}

const NvmAnnotation& TaskTree::annotation(TaskId id) const {
  if (id >= size()) throw std::out_of_range("TaskTree::annotation: bad id");
  return annotations_[id];
}

NvmAnnotation& TaskTree::annotation(TaskId id) {
  if (id >= size()) throw std::out_of_range("TaskTree::annotation: bad id");
  return annotations_[id];
}

void TaskTree::clear_annotations() {
  std::fill(annotations_.begin(), annotations_.end(), NvmAnnotation{});
}

std::vector<TaskId> TaskTree::nodes_at_level(int level) const {
  std::vector<TaskId> out;
  const std::span<const TaskNode> all = nodes();
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].dict.level == level) out.push_back(static_cast<TaskId>(i));
  }
  return out;
}

double TaskTree::total_energy() const {
  double e = 0;
  for (const TaskNode& n : nodes()) e += n.dict.energy();
  return e;
}

double TaskTree::total_delay() const {
  double d = 0;
  for (const TaskNode& n : nodes()) d += n.dict.delay;
  return d;
}

double TaskTree::max_node_energy() const {
  double e = 0;
  for (const TaskNode& n : nodes()) e = std::max(e, n.dict.energy());
  return e;
}

double TaskTree::min_node_energy() const {
  const std::span<const TaskNode> all = nodes();
  double e = all.empty() ? 0 : all[0].dict.energy();
  for (const TaskNode& n : all) e = std::min(e, n.dict.energy());
  return e;
}

double TaskTree::avg_node_energy() const {
  return size() == 0 ? 0 : total_energy() / static_cast<double>(size());
}

std::vector<TaskId> TaskTree::nvm_points() const {
  std::vector<TaskId> pts;
  for (std::size_t i = 0; i < annotations_.size(); ++i) {
    if (annotations_[i].has_nvm) pts.push_back(static_cast<TaskId>(i));
  }
  return pts;
}

int TaskTree::total_nvm_bits() const {
  int bits = 0;
  for (const NvmAnnotation& a : annotations_) {
    if (a.has_nvm) bits += a.nvm_bits;
  }
  return bits;
}

void TaskTree::validate() const {
  const std::span<const TaskNode> all = nodes();
  std::vector<char> seen(all.size(), 0);
  for (TaskId id : schedule()) {
    const TaskNode& n = node(id);
    for (TaskId p : n.preds) {
      if (!seen.at(p)) {
        throw std::runtime_error("TaskTree::validate: schedule violates deps");
      }
      if (all[p].dict.level >= n.dict.level) {
        throw std::runtime_error("TaskTree::validate: levels not increasing");
      }
    }
    seen[id] = 1;
  }
  for (char s : seen) {
    if (!s) throw std::runtime_error("TaskTree::validate: schedule incomplete");
  }
  // Edge symmetry.
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (TaskId s : all[i].succs) {
      const std::span<const TaskId> preds = node(s).preds;
      if (std::find(preds.begin(), preds.end(), static_cast<TaskId>(i)) ==
          preds.end()) {
        throw std::runtime_error("TaskTree::validate: asymmetric edge");
      }
    }
  }
}

TaskTree initial_tree(const Netlist& nl, const CellLibrary& lib) {
  // One topological order serves the cones, the cost positions and the
  // rest of the netlist's shared facts.
  std::shared_ptr<const NetlistFacts> facts =
      make_facts(nl, topological_order(nl));
  // Cones numbered by ascending root id, then one node per DFF.
  const std::vector<GateId>& root = facts->cone_root;
  std::vector<int> part(nl.size(), kNoNode);
  int next = 0;
  for (GateId g = 0; g < nl.size(); ++g) {
    if (root[g] == g) part[g] = next++;
  }
  for (GateId g = 0; g < nl.size(); ++g) {
    if (root[g] != kNullGate) part[g] = part[root[g]];
  }
  for (GateId d : nl.dffs()) part[d] = next++;
  if (next == 0) {
    throw std::invalid_argument("initial_tree: netlist has no logic gates");
  }
  return TaskTree::build(nl, lib, std::move(facts), part, next, {});
}

TaskTree per_gate_tree(const Netlist& nl, const CellLibrary& lib) {
  std::vector<int> part(nl.size(), kNoNode);
  int next = 0;
  for (GateId g = 0; g < nl.size(); ++g) {
    if (is_logic(nl.kind(g))) part[g] = next++;
  }
  if (next == 0) {
    throw std::invalid_argument("per_gate_tree: netlist has no logic gates");
  }
  return TaskTree::from_partition(nl, lib, part, next);
}

}  // namespace diac
