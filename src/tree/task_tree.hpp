// Task tree: the DIAC intermediate representation.
//
// A `TaskTree` partitions a netlist's logic gates into "operand" nodes
// (the paper's functions F1, F2, ...).  Each node carries the paper's
// feature dictionary: fan-in, fan-out, level j, power consumption — plus
// delay and the energy numbers the policies and the replacement engine
// consume.  Dependency edges are derived from gate-level connectivity
// (cut at DFF D-inputs, which are sequential boundaries), so any
// transformation expressed as a new partition is automatically consistent;
// `from_partition` re-derives edges/levels/dictionaries and rejects
// partitions whose node graph is cyclic.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cell/cell_library.hpp"
#include "netlist/netlist.hpp"

namespace diac {

using TaskId = std::uint32_t;
inline constexpr TaskId kNullTask = static_cast<TaskId>(-1);
inline constexpr int kNoNode = -1;  // partition entry for port/constant gates

// The paper's per-node feature dictionary (SIII.A step 3), extended with
// the energy-model outputs.
struct FeatureDict {
  int fanin = 0;     // distinct external signals read by the node
  int fanout = 0;    // distinct node signals read outside the node
  int level = 0;     // node level j in the levelized tree
  double power = 0;  // W: average power while the node executes
  double delay = 0;  // s: critical delay path (CDP) through the node
  double dynamic_energy = 0;  // J per evaluation (2 * sum delay_i * dyn_i)
  double static_energy = 0;   // J per evaluation (CDP * sum static_i)

  double energy() const { return dynamic_energy + static_energy; }
};

// One node of a tree.  The label, member gates and edges are read-only
// views into the tree's shared structure (see TaskTree), so they stay
// valid as long as any copy of the tree is alive.
struct TaskNode {
  std::string_view label;           // "F<id>"; points into the tree
  std::span<const GateId> gates;    // member gates (logic gates), ascending
  FeatureDict dict;
  std::span<const TaskId> preds;    // dependency edges (deduplicated, sorted)
  std::span<const TaskId> succs;
};

// NVM insertion state of one node (filled by the replacement engine).
// The only per-copy part of a tree, allocated on the first write.
struct NvmAnnotation {
  bool has_nvm = false;
  int nvm_bits = 0;               // signals persisted when this node commits
  double accumulated_energy = 0;  // P_total bookkeeping from the traversal
};

// Facts about one netlist that every tree over it shares, computed once
// when the first tree over the netlist is built and carried by
// repartition.
struct NetlistFacts {
  // topological_order(netlist): every build buckets each node's members
  // along it, so operand costs visit them in this order with no sort.
  std::vector<GateId> topological_order;
  // cone_roots(): root of g's fanout-free cone, kNullGate off the cones.
  std::vector<GateId> cone_root;
  // state_driver_cones(): the LE-FF cluster count NV-Clustering sizes by.
  int state_clusters = 0;
};

// A task tree is a shared, immutable structure plus per-copy NVM
// annotations.  The structure (member gates, edges, dictionaries, labels,
// schedule) lives in flat pools behind a shared_ptr, so copying a tree —
// one per synthesized design — copies only the annotations.
class TaskTree {
 public:
  // Builds a tree from a gate->node assignment.  `node_of_gate[g]` is the
  // node index for logic gate g, or kNoNode for ports/constants.  Node
  // indices must be dense in [0, num_nodes).  `labels`, when provided,
  // names the nodes (empty entries fall back to "F<i+1>") — policies use
  // this to keep the paper's operand names through splits/merges
  // (F2 -> F2.1/F2.2, F5..F8 -> F5+F6+F7+F8).  Throws on invalid
  // assignments or on a cyclic node graph.
  static TaskTree from_partition(const Netlist& nl, const CellLibrary& lib,
                                 std::vector<int> node_of_gate, int num_nodes,
                                 const std::vector<std::string>& labels = {});

  // from_partition over this tree's netlist and library, sharing this
  // tree's NetlistFacts instead of recomputing them: the rebuild step of
  // every policy transform.
  TaskTree repartition(std::vector<int> node_of_gate, int num_nodes,
                       const std::vector<std::string>& labels = {}) const;

  const Netlist& netlist() const { return *shape_->nl; }
  const CellLibrary& library() const { return *shape_->lib; }

  std::size_t size() const { return shape_ ? shape_->nodes.size() : 0; }
  const TaskNode& node(TaskId id) const;
  std::span<const TaskNode> nodes() const;

  // node(id).gates in the netlist's topological order: the order operand
  // costs and splits visit members in.
  std::span<const GateId> topo_gates(TaskId id) const;

  // The gate->node map this tree was built from.
  const std::vector<int>& partition() const { return shape_->node_of_gate; }

  const NetlistFacts& facts() const { return *shape_->facts; }

  // Topological order of nodes (sources first).
  const std::vector<TaskId>& schedule() const { return shape_->schedule; }

  int max_level() const { return shape_->max_level; }
  std::vector<TaskId> nodes_at_level(int level) const;

  // Aggregates.
  double total_energy() const;   // J per evaluation, sum over nodes
  double total_delay() const;    // s, sum over node CDPs along the schedule
  double max_node_energy() const;
  double min_node_energy() const;
  double avg_node_energy() const;

  // NVM plan: this copy's annotations.
  const NvmAnnotation& annotation(TaskId id) const;
  NvmAnnotation& annotation(TaskId id);
  void clear_annotations();
  std::vector<TaskId> nvm_points() const;
  int total_nvm_bits() const;

  // Structural invariants (edges consistent, schedule valid); throws on
  // violation.  from_partition always returns a valid tree; this re-check
  // is used by tests.
  void validate() const;

  // An empty tree (no netlist attached).  Only assignment, destruction and
  // size() are valid on a default-constructed tree; it exists so
  // aggregates like IntermittentDesign can be built incrementally.
  TaskTree() = default;

 private:
  friend TaskTree initial_tree(const Netlist& nl, const CellLibrary& lib);

  // The shared, immutable part.  Nodes' spans point into the pools, so a
  // Shape is never copied: build() fills it in place behind its
  // shared_ptr.
  struct Shape {
    Shape() = default;
    Shape(const Shape&) = delete;
    Shape& operator=(const Shape&) = delete;

    const Netlist* nl = nullptr;
    const CellLibrary* lib = nullptr;
    std::shared_ptr<const NetlistFacts> facts;
    std::vector<int> node_of_gate;
    std::vector<GateId> gate_pool;  // members of node i, node-major
    std::vector<GateId> topo_pool;  // gate_pool's rows in topological order
    std::vector<TaskId> pred_pool;
    std::vector<TaskId> succ_pool;
    std::string label_pool;  // every node's label, back to back
    std::vector<TaskNode> nodes;
    std::vector<TaskId> schedule;
    int max_level = 0;
  };

  static TaskTree build(const Netlist& nl, const CellLibrary& lib,
                        std::shared_ptr<const NetlistFacts> facts,
                        std::vector<int> node_of_gate, int num_nodes,
                        const std::vector<std::string>& labels);

  std::shared_ptr<const Shape> shape_;
  std::vector<NvmAnnotation> annotations_;
};

// Kahn's order of a node graph given as CSR rows: node i has
// pred_begin[i + 1] - pred_begin[i] preds and succs
// succs[succ_begin[i] .. succ_begin[i + 1]).  Ready nodes are seeded in
// index order and run FIFO, so one graph has one schedule whoever builds
// it (TaskTree::build, the policies' quotient graph).  Returns fewer than
// pred_begin.size() - 1 nodes when the graph has a cycle.
std::vector<TaskId> kahn_schedule(std::span<const std::uint32_t> pred_begin,
                                  std::span<const std::uint32_t> succ_begin,
                                  std::span<const TaskId> succs);

// Builds the trivial partition: one node per fanout-free cone plus one node
// per DFF (the un-optimized tree of SIII.A step 1).
TaskTree initial_tree(const Netlist& nl, const CellLibrary& lib);

// One-node-per-gate partition (finest granularity; used by tests and as
// the Policy1 limit case).
TaskTree per_gate_tree(const Netlist& nl, const CellLibrary& lib);

}  // namespace diac
