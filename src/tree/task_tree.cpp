#include "tree/task_tree.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <ranges>
#include <stdexcept>
#include <utility>

#include "netlist/analysis.hpp"
#include "obs/obs.hpp"
#include "tree/energy_model.hpp"

namespace diac {

namespace {

std::shared_ptr<const NetlistFacts> make_facts(const Netlist& nl) {
  auto facts = std::make_shared<NetlistFacts>();
  facts->topological_order = topological_order(nl);
  facts->cone_root = cone_roots(nl, facts->topological_order);
  facts->state_clusters = state_driver_cones(nl, facts->cone_root);
  return facts;
}

// Offsets of a CSR pool from per-row counts held in begin[1..n]: on
// return begin[i] is row i's first entry and begin[n] the pool size.
void prefix_sum(std::vector<std::uint32_t>& begin) {
  for (std::size_t i = 1; i < begin.size(); ++i) begin[i] += begin[i - 1];
}

// Row i of a CSR pool.
template <typename T>
std::span<const T> row(const std::vector<T>& pool,
                       const std::vector<std::uint32_t>& begin,
                       std::size_t i) {
  return std::span<const T>(pool).subspan(begin[i], begin[i + 1] - begin[i]);
}

// Fills the rows of `pool`, whose offsets `begin` holds: row i gets every
// id of `ids` with row_of(id) == i, in the order `ids` yields them; a
// negative row_of drops the id.  `fill` is scratch of one entry per row.
template <typename Ids, typename RowOf, typename T>
void bucket(const Ids& ids, RowOf row_of,
            const std::vector<std::uint32_t>& begin,
            std::vector<std::uint32_t>& fill, std::vector<T>& pool) {
  std::copy(begin.begin(), begin.end() - 1, fill.begin());
  for (const auto id : ids) {
    const int r = row_of(id);
    if (r >= 0) pool[fill[static_cast<std::size_t>(r)]++] = static_cast<T>(id);
  }
}

}  // namespace

TaskTree TaskTree::from_partition(const Netlist& nl, const CellLibrary& lib,
                                  std::vector<int> node_of_gate, int num_nodes,
                                  const std::vector<std::string>& labels) {
  return build(nl, lib, make_facts(nl), std::move(node_of_gate), num_nodes,
               labels);
}

TaskTree TaskTree::repartition(std::vector<int> node_of_gate, int num_nodes,
                               const std::vector<std::string>& labels) const {
  DIAC_OBS_COUNT("synth.repartitions", 1);
  return build(netlist(), library(), shape_->facts, std::move(node_of_gate),
               num_nodes, labels);
}

TaskTree TaskTree::build(const Netlist& nl, const CellLibrary& lib,
                         std::shared_ptr<const NetlistFacts> facts,
                         std::vector<int> node_of_gate, int num_nodes,
                         const std::vector<std::string>& labels) {
  if (node_of_gate.size() != nl.size()) {
    throw std::invalid_argument("TaskTree: partition size != netlist size");
  }
  if (num_nodes <= 0) {
    throw std::invalid_argument("TaskTree: num_nodes must be positive");
  }
  const auto n_nodes = static_cast<std::size_t>(num_nodes);

  // Member gates: count per node, then fill two pools with the same row
  // offsets, one counting pass each: ascending gate order (node.gates)
  // and the netlist's topological order (topo_gates()).
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
  s.node_of_gate = std::move(node_of_gate);
  const auto node_of = [&s](GateId g) { return s.node_of_gate[g]; };
  // One per-node scratch row serves every counting fill below.
  std::vector<std::uint32_t> fill(n_nodes);
  s.gate_pool.resize(gate_begin[n_nodes]);
  s.topo_pool.resize(gate_begin[n_nodes]);
  bucket(std::views::iota(GateId{0}, static_cast<GateId>(nl.size())), node_of,
         gate_begin, fill, s.gate_pool);
  bucket(s.facts->topological_order, node_of, gate_begin, fill, s.topo_pool);

  // Labels live in one arena, reserved up front so the views into it stay
  // valid; a node without a label is "F<i+1>".
  s.nodes.resize(n_nodes);
  {
    // 'F' plus the digits of any std::size_t.
    constexpr std::size_t kDefault =
        2 + std::numeric_limits<std::size_t>::digits10;
    const auto given = [&labels](std::size_t i) {
      return i < labels.size() && !labels[i].empty();
    };
    std::size_t bytes = 0;
    for (std::size_t i = 0; i < n_nodes; ++i) {
      bytes += given(i) ? labels[i].size() : kDefault;
    }
    s.label_pool.reserve(bytes);
    for (std::size_t i = 0; i < n_nodes; ++i) {
      const std::size_t at = s.label_pool.size();
      if (given(i)) {
        s.label_pool += labels[i];
      } else {
        char buf[kDefault] = {'F'};
        s.label_pool.append(buf,
                            std::to_chars(buf + 1, buf + kDefault, i + 1).ptr);
      }
      TaskNode& node = s.nodes[i];
      node.label = std::string_view(s.label_pool).substr(at);
      node.gates = row(s.gate_pool, gate_begin, i);
    }
  }

  // Costs, edges and fan counts in one walk: each node's topological
  // slice goes through the cost kernel, which hands every member's fanins
  // to the edge scan.  Dependency edges follow combinational
  // connectivity; DFF D-inputs are sequential boundaries (no dep edge)
  // but still count as data fan-in/fan-out for backup sizing.  Stamp
  // arrays dedupe per node: `reader[f]` is the last node that counted
  // signal f as fan-in (num_nodes once a port reads it), so a gate is
  // read outside its own node iff its entry is set.  `last_pred[p]` is
  // the last node that recorded node p as a predecessor.
  std::vector<int> reader(nl.size(), kNoNode);
  std::vector<int> last_pred(n_nodes, kNoNode);
  std::vector<TaskId> found;  // pred rows in discovery order
  found.reserve(nl.fanin_pool().size());
  std::vector<std::uint32_t> pred_begin(n_nodes + 1, 0);
  std::vector<std::uint32_t> succ_begin(n_nodes + 1, 0);
  {
    std::vector<double> arrival(nl.size(), -1.0);
    for (std::size_t i = 0; i < n_nodes; ++i) {
      const int self = static_cast<int>(i);
      FeatureDict& d = s.nodes[i].dict;
      const auto scan = [&](GateKind kind, std::span<const GateId> fanin) {
        for (GateId f : fanin) {
          const int src_node = s.node_of_gate[f];
          if (src_node == self) continue;
          if (reader[f] != self) {
            reader[f] = self;
            ++d.fanin;
          }
          if (src_node != kNoNode && kind != GateKind::kDff &&
              last_pred[static_cast<std::size_t>(src_node)] != self) {
            last_pred[static_cast<std::size_t>(src_node)] = self;
            found.push_back(static_cast<TaskId>(src_node));
            ++succ_begin[static_cast<std::size_t>(src_node) + 1];
          }
        }
      };
      const OperandCost cost = ordered_operand_cost(
          nl, row(s.topo_pool, gate_begin, i), lib, arrival, scan);
      d.delay = cost.delay;
      d.power = cost.power;
      d.dynamic_energy = cost.dynamic_energy;
      d.static_energy = cost.static_energy;
      pred_begin[i + 1] = static_cast<std::uint32_t>(found.size());
    }
  }
  DIAC_OBS_COUNT("synth.costed_gates", s.topo_pool.size());
  for (GateId g = 0; g < nl.size(); ++g) {
    if (s.node_of_gate[g] != kNoNode) continue;
    for (GateId f : nl.fanin(g)) reader[f] = num_nodes;
  }
  for (TaskNode& node : s.nodes) {
    for (GateId g : node.gates) node.dict.fanout += reader[g] != kNoNode;
  }

  // Sorted rows with no sort: the inverse of the pred rows, filled in
  // ascending node order, gives sorted succ rows, and inverting those back
  // (into the discovery buffer, now free) gives sorted pred rows.
  prefix_sum(succ_begin);
  s.succ_pool.resize(found.size());
  std::copy(succ_begin.begin(), succ_begin.end() - 1, fill.begin());
  for (std::size_t i = 0; i < n_nodes; ++i) {
    for (TaskId p : row(found, pred_begin, i)) {
      s.succ_pool[fill[p]++] = static_cast<TaskId>(i);
    }
  }
  s.pred_pool = std::move(found);
  std::copy(pred_begin.begin(), pred_begin.end() - 1, fill.begin());
  for (std::size_t p = 0; p < n_nodes; ++p) {
    for (TaskId c : row(s.succ_pool, succ_begin, p)) {
      s.pred_pool[fill[c]++] = static_cast<TaskId>(p);
    }
  }

  // Schedule, then levels along it: a node's level is final when it is
  // reached, and pushes level + 1 onto its successors.
  s.schedule = kahn_schedule(pred_begin, succ_begin, s.succ_pool);
  if (s.schedule.size() != n_nodes) {
    throw std::invalid_argument("TaskTree: partition induces a cyclic node graph");
  }
  std::vector<int>& level = last_pred;
  std::fill(level.begin(), level.end(), 0);
  for (TaskId id : s.schedule) {
    const int next = level[id] + 1;
    for (TaskId c : row(s.succ_pool, succ_begin, id)) {
      level[c] = std::max(level[c], next);
    }
  }
  for (std::size_t i = 0; i < n_nodes; ++i) {
    TaskNode& node = s.nodes[i];
    node.dict.level = level[i];
    s.max_level = std::max(s.max_level, level[i]);
    node.preds = row(s.pred_pool, pred_begin, i);
    node.succs = row(s.succ_pool, succ_begin, i);
  }

  TaskTree tree;
  tree.shape_ = std::move(shape);
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

std::span<const GateId> TaskTree::topo_gates(TaskId id) const {
  const std::span<const GateId> gates = node(id).gates;
  // Both pools share their row offsets.
  const auto first =
      static_cast<std::size_t>(gates.data() - shape_->gate_pool.data());
  return std::span<const GateId>(shape_->topo_pool)
      .subspan(first, gates.size());
}

const NvmAnnotation& TaskTree::annotation(TaskId id) const {
  static const NvmAnnotation kUnannotated{};
  if (id >= size()) throw std::out_of_range("TaskTree::annotation: bad id");
  return annotations_.empty() ? kUnannotated : annotations_[id];
}

NvmAnnotation& TaskTree::annotation(TaskId id) {
  if (id >= size()) throw std::out_of_range("TaskTree::annotation: bad id");
  if (annotations_.empty()) annotations_.resize(size());
  return annotations_[id];
}

void TaskTree::clear_annotations() {
  annotations_.clear();
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

std::vector<TaskId> kahn_schedule(std::span<const std::uint32_t> pred_begin,
                                  std::span<const std::uint32_t> succ_begin,
                                  std::span<const TaskId> succs) {
  // Each node is written at the tail and kept only if it became ready, so
  // the queue grows without a branch per edge.
  const std::size_t n = pred_begin.size() - 1;
  std::vector<std::uint32_t> pending(n);
  std::vector<TaskId> order(n + 1);  // one spare slot for the last write
  std::size_t tail = 0;
  for (std::size_t i = 0; i < n; ++i) {
    pending[i] = pred_begin[i + 1] - pred_begin[i];
    order[tail] = static_cast<TaskId>(i);
    tail += pending[i] == 0;
  }
  for (std::size_t head = 0; head < tail; ++head) {
    const TaskId id = order[head];
    for (std::uint32_t e = succ_begin[id]; e < succ_begin[id + 1]; ++e) {
      order[tail] = succs[e];
      tail += --pending[succs[e]] == 0;
    }
  }
  order.resize(tail);
  return order;
}

TaskTree initial_tree(const Netlist& nl, const CellLibrary& lib) {
  // One topological order serves the cones, the member order of every
  // node and the rest of the netlist's shared facts.
  std::shared_ptr<const NetlistFacts> facts = make_facts(nl);
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
  return TaskTree::build(nl, lib, std::move(facts), std::move(part), next,
                         {});
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
  return TaskTree::from_partition(nl, lib, std::move(part), next);
}

}  // namespace diac
