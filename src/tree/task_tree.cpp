#include "tree/task_tree.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "netlist/analysis.hpp"
#include "tree/energy_model.hpp"

namespace diac {

namespace {

void sort_unique(std::vector<TaskId>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

TaskTree TaskTree::from_partition(const Netlist& nl, const CellLibrary& lib,
                                  const std::vector<int>& node_of_gate,
                                  int num_nodes,
                                  const std::vector<std::string>& labels) {
  return build(nl, lib, nullptr, node_of_gate, num_nodes, labels);
}

TaskTree TaskTree::repartition(const std::vector<int>& node_of_gate,
                               int num_nodes,
                               const std::vector<std::string>& labels) const {
  return build(*nl_, *lib_, topo_pos_, node_of_gate, num_nodes, labels);
}

TaskTree TaskTree::build(const Netlist& nl, const CellLibrary& lib,
                         std::shared_ptr<const std::vector<std::uint32_t>> pos,
                         const std::vector<int>& node_of_gate, int num_nodes,
                         const std::vector<std::string>& labels) {
  if (node_of_gate.size() != nl.size()) {
    throw std::invalid_argument("TaskTree: partition size != netlist size");
  }
  if (num_nodes <= 0) {
    throw std::invalid_argument("TaskTree: num_nodes must be positive");
  }

  TaskTree tree;
  tree.nl_ = &nl;
  tree.lib_ = &lib;
  tree.node_of_gate_ = node_of_gate;
  tree.nodes_.resize(static_cast<std::size_t>(num_nodes));

  for (GateId g = 0; g < nl.size(); ++g) {
    const int n = node_of_gate[g];
    const bool logic = is_logic(nl.gate(g).kind);
    if (n == kNoNode) {
      if (logic) {
        throw std::invalid_argument("TaskTree: logic gate '" + nl.gate(g).name +
                                    "' not assigned to a node");
      }
      continue;
    }
    if (!logic) {
      throw std::invalid_argument("TaskTree: port/constant gate '" +
                                  nl.gate(g).name + "' assigned to a node");
    }
    if (n < 0 || n >= num_nodes) {
      throw std::invalid_argument("TaskTree: node index out of range");
    }
    tree.nodes_[static_cast<std::size_t>(n)].gates.push_back(g);
  }
  for (std::size_t i = 0; i < tree.nodes_.size(); ++i) {
    if (tree.nodes_[i].gates.empty()) {
      throw std::invalid_argument("TaskTree: empty node " + std::to_string(i));
    }
    tree.nodes_[i].label = i < labels.size() && !labels[i].empty()
                               ? labels[i]
                               : "F" + std::to_string(i + 1);
  }

  // Edges and fan counts.  Dependency edges follow combinational
  // connectivity; DFF D-inputs are sequential boundaries (no dep edge) but
  // still count as data fan-in/fan-out for backup sizing.
  const std::size_t n_nodes = tree.nodes_.size();
  for (std::size_t i = 0; i < n_nodes; ++i) {
    TaskNode& node = tree.nodes_[i];
    std::vector<GateId> ext_in;  // deduplicated below via sort+unique
    int ext_out = 0;
    for (GateId g : node.gates) {
      const Gate& gate = nl.gate(g);
      for (GateId f : gate.fanin) {
        const int src_node = node_of_gate[f];
        if (src_node == static_cast<int>(i)) continue;
        ext_in.push_back(f);
        if (src_node != kNoNode && gate.kind != GateKind::kDff) {
          node.preds.push_back(static_cast<TaskId>(src_node));
        }
      }
      bool external_reader = false;
      for (GateId c : gate.fanout) {
        const int dst_node = node_of_gate[c];
        if (dst_node == static_cast<int>(i)) continue;
        external_reader = true;
        if (dst_node != kNoNode && nl.gate(c).kind != GateKind::kDff) {
          node.succs.push_back(static_cast<TaskId>(dst_node));
        }
      }
      if (external_reader) ++ext_out;
    }
    sort_unique(node.preds);
    sort_unique(node.succs);
    std::sort(ext_in.begin(), ext_in.end());
    ext_in.erase(std::unique(ext_in.begin(), ext_in.end()), ext_in.end());
    node.dict.fanin = static_cast<int>(ext_in.size());
    node.dict.fanout = ext_out;
  }

  // Costs over the (possibly shared) topological position map, with one
  // arrival scratch buffer serving every node.
  tree.topo_pos_ =
      pos != nullptr ? std::move(pos)
                     : std::make_shared<const std::vector<std::uint32_t>>(
                           topological_positions(nl));
  std::vector<double> arrival(nl.size(), -1.0);
  for (TaskNode& node : tree.nodes_) {
    const OperandCost cost =
        operand_cost(nl, node.gates, lib, tree.topo_positions(), arrival);
    node.dict.delay = cost.delay;
    node.dict.power = cost.power;
    node.dict.dynamic_energy = cost.dynamic_energy;
    node.dict.static_energy = cost.static_energy;
  }

  // Topological schedule + levels over the node graph.
  std::vector<int> pending(n_nodes, 0);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    pending[i] = static_cast<int>(tree.nodes_[i].preds.size());
  }
  std::vector<TaskId> ready;
  for (std::size_t i = 0; i < n_nodes; ++i) {
    if (pending[i] == 0) ready.push_back(static_cast<TaskId>(i));
  }
  tree.schedule_.reserve(n_nodes);
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const TaskId id = ready[head];
    tree.schedule_.push_back(id);
    TaskNode& node = tree.nodes_[id];
    int lvl = 0;
    for (TaskId p : node.preds) {
      lvl = std::max(lvl, tree.nodes_[p].dict.level + 1);
    }
    node.dict.level = lvl;
    tree.max_level_ = std::max(tree.max_level_, lvl);
    for (TaskId s : node.succs) {
      if (--pending[s] == 0) ready.push_back(s);
    }
  }
  if (tree.schedule_.size() != n_nodes) {
    throw std::invalid_argument("TaskTree: partition induces a cyclic node graph");
  }
  return tree;
}

const TaskNode& TaskTree::node(TaskId id) const {
  if (id >= nodes_.size()) throw std::out_of_range("TaskTree::node: bad id");
  return nodes_[id];
}

TaskNode& TaskTree::node(TaskId id) {
  if (id >= nodes_.size()) throw std::out_of_range("TaskTree::node: bad id");
  return nodes_[id];
}

std::vector<TaskId> TaskTree::nodes_at_level(int level) const {
  std::vector<TaskId> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].dict.level == level) out.push_back(static_cast<TaskId>(i));
  }
  return out;
}

double TaskTree::total_energy() const {
  double e = 0;
  for (const TaskNode& n : nodes_) e += n.dict.energy();
  return e;
}

double TaskTree::total_delay() const {
  double d = 0;
  for (const TaskNode& n : nodes_) d += n.dict.delay;
  return d;
}

double TaskTree::max_node_energy() const {
  double e = 0;
  for (const TaskNode& n : nodes_) e = std::max(e, n.dict.energy());
  return e;
}

double TaskTree::min_node_energy() const {
  double e = nodes_.empty() ? 0 : nodes_[0].dict.energy();
  for (const TaskNode& n : nodes_) e = std::min(e, n.dict.energy());
  return e;
}

double TaskTree::avg_node_energy() const {
  return nodes_.empty() ? 0 : total_energy() / static_cast<double>(nodes_.size());
}

std::vector<TaskId> TaskTree::nvm_points() const {
  std::vector<TaskId> pts;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].has_nvm) pts.push_back(static_cast<TaskId>(i));
  }
  return pts;
}

int TaskTree::total_nvm_bits() const {
  int bits = 0;
  for (const TaskNode& n : nodes_) {
    if (n.has_nvm) bits += n.nvm_bits;
  }
  return bits;
}

void TaskTree::validate() const {
  std::vector<char> seen(nodes_.size(), 0);
  for (TaskId id : schedule_) {
    const TaskNode& n = nodes_.at(id);
    for (TaskId p : n.preds) {
      if (!seen.at(p)) {
        throw std::runtime_error("TaskTree::validate: schedule violates deps");
      }
      if (nodes_[p].dict.level >= n.dict.level) {
        throw std::runtime_error("TaskTree::validate: levels not increasing");
      }
    }
    seen[id] = 1;
  }
  for (char s : seen) {
    if (!s) throw std::runtime_error("TaskTree::validate: schedule incomplete");
  }
  // Edge symmetry.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    for (TaskId s : nodes_[i].succs) {
      const auto& preds = nodes_.at(s).preds;
      if (std::find(preds.begin(), preds.end(), static_cast<TaskId>(i)) ==
          preds.end()) {
        throw std::runtime_error("TaskTree::validate: asymmetric edge");
      }
    }
  }
}

TaskTree initial_tree(const Netlist& nl, const CellLibrary& lib) {
  std::vector<int> part(nl.size(), kNoNode);
  int next = 0;
  for (const Cone& cone : fanout_free_cones(nl)) {
    for (GateId g : cone.members) part[g] = next;
    ++next;
  }
  for (GateId d : nl.dffs()) part[d] = next++;
  if (next == 0) {
    throw std::invalid_argument("initial_tree: netlist has no logic gates");
  }
  return TaskTree::from_partition(nl, lib, part, next);
}

TaskTree per_gate_tree(const Netlist& nl, const CellLibrary& lib) {
  std::vector<int> part(nl.size(), kNoNode);
  int next = 0;
  for (GateId g = 0; g < nl.size(); ++g) {
    if (is_logic(nl.gate(g).kind)) part[g] = next++;
  }
  if (next == 0) {
    throw std::invalid_argument("per_gate_tree: netlist has no logic gates");
  }
  return TaskTree::from_partition(nl, lib, part, next);
}

}  // namespace diac
