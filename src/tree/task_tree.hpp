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

struct TaskNode {
  std::string label;           // "F<id>"
  std::vector<GateId> gates;   // member gates (logic gates only)
  FeatureDict dict;
  std::vector<TaskId> preds;   // dependency edges (deduplicated, sorted)
  std::vector<TaskId> succs;

  // NVM insertion state (filled by the replacement engine).
  bool has_nvm = false;
  int nvm_bits = 0;            // signals persisted when this node commits
  double accumulated_energy = 0;  // P_total bookkeeping from the traversal
};

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
                                 const std::vector<int>& node_of_gate,
                                 int num_nodes,
                                 const std::vector<std::string>& labels = {});

  // from_partition over this tree's netlist and library, sharing this
  // tree's topological position map instead of recomputing it: the
  // rebuild step of every policy transform.
  TaskTree repartition(const std::vector<int>& node_of_gate, int num_nodes,
                       const std::vector<std::string>& labels = {}) const;

  const Netlist& netlist() const { return *nl_; }
  const CellLibrary& library() const { return *lib_; }

  std::size_t size() const { return nodes_.size(); }
  const TaskNode& node(TaskId id) const;
  TaskNode& node(TaskId id);
  const std::vector<TaskNode>& nodes() const { return nodes_; }

  // The gate->node map this tree was built from.
  const std::vector<int>& partition() const { return node_of_gate_; }

  // pos[g] = rank of gate g in topological_order(netlist()); computed once
  // per from_partition and shared by every tree repartitioned from it.
  std::span<const std::uint32_t> topo_positions() const { return *topo_pos_; }

  // Topological order of nodes (sources first).
  const std::vector<TaskId>& schedule() const { return schedule_; }

  int max_level() const { return max_level_; }
  std::vector<TaskId> nodes_at_level(int level) const;

  // Aggregates.
  double total_energy() const;   // J per evaluation, sum over nodes
  double total_delay() const;    // s, sum over node CDPs along the schedule
  double max_node_energy() const;
  double min_node_energy() const;
  double avg_node_energy() const;

  // NVM plan accessors.
  std::vector<TaskId> nvm_points() const;
  int total_nvm_bits() const;

  // Structural invariants (edges consistent, schedule valid); throws on
  // violation.  from_partition always returns a valid tree; this re-check
  // is used by tests.
  void validate() const;

  // An empty tree (no netlist attached).  Only assignment and destruction
  // are valid on a default-constructed tree; it exists so aggregates like
  // IntermittentDesign can be built incrementally.
  TaskTree() = default;

 private:
  static TaskTree build(const Netlist& nl, const CellLibrary& lib,
                        std::shared_ptr<const std::vector<std::uint32_t>> pos,
                        const std::vector<int>& node_of_gate, int num_nodes,
                        const std::vector<std::string>& labels);

  const Netlist* nl_ = nullptr;
  const CellLibrary* lib_ = nullptr;
  std::shared_ptr<const std::vector<std::uint32_t>> topo_pos_;
  std::vector<TaskNode> nodes_;
  std::vector<int> node_of_gate_;
  std::vector<TaskId> schedule_;
  int max_level_ = 0;
};

// Builds the trivial partition: one node per fanout-free cone plus one node
// per DFF (the un-optimized tree of SIII.A step 1).
TaskTree initial_tree(const Netlist& nl, const CellLibrary& lib);

// One-node-per-gate partition (finest granularity; used by tests and as
// the Policy1 limit case).
TaskTree per_gate_tree(const Netlist& nl, const CellLibrary& lib);

}  // namespace diac
