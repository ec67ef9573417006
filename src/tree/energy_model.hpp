// The paper's design-time power/delay/energy model (SIV.A).
//
//   dynamic energy ~= 2 * sum_i delay_i * dynamic_power_i
//     (delay measured at VDD/2 crossings and doubled "for a more accurate
//      energy consumption estimation")
//   static energy  ~= CDP * sum_{i != active} static_power_i
//     (while one gate switches the others only leak; CDP is the critical
//      delay path through the operand)
//
// `operand_cost` evaluates these formulas over an arbitrary set of member
// gates, computing the CDP with arrival times restricted to the set.
#pragma once

#include <span>
#include <vector>

#include "cell/cell_library.hpp"
#include "netlist/netlist.hpp"

namespace diac {

struct OperandCost {
  double delay = 0;           // s: critical delay path through the members
  double dynamic_energy = 0;  // J
  double static_energy = 0;   // J
  double power = 0;           // W: (dynamic+static energy) / delay

  double energy() const { return dynamic_energy + static_energy; }
};

// Evaluates the paper's model over `members` (logic gates of one operand).
// Gates outside the set contribute arrival time 0 (their values are node
// inputs, ready when the node starts).  Member DFFs contribute their
// capture delay as parallel single-gate paths.
OperandCost operand_cost(const Netlist& nl, std::span<const GateId> members,
                         const CellLibrary& lib);

// As above for costing many operands of the same netlist, in time
// independent of the netlist's size: `topo_pos` is the precomputed position map (pos[g] = rank of gate
// g in topological_order(nl)) and `arrival` a caller-owned scratch buffer
// of nl.size() entries that must all read -1.0 on entry.  The call writes
// only the members' entries and resets them to -1.0 before returning, so
// one buffer serves every operand of a tree build.  Throws
// std::invalid_argument when `arrival` is smaller than the netlist.
OperandCost operand_cost(const Netlist& nl, std::span<const GateId> members,
                         const CellLibrary& lib,
                         std::span<const std::uint32_t> topo_pos,
                         std::span<double> arrival);

// As above with a caller-owned buffer for the members' topological order,
// so costing every node of a tree allocates nothing per node.
OperandCost operand_cost(const Netlist& nl, std::span<const GateId> members,
                         const CellLibrary& lib,
                         std::span<const std::uint32_t> topo_pos,
                         std::span<double> arrival,
                         std::vector<GateId>& ordered);

// Builds the position map for the overload above.
std::vector<std::uint32_t> topological_positions(const Netlist& nl);

// The same map from an already computed topological_order(nl).
std::vector<std::uint32_t> topological_positions(std::span<const GateId> order);

// Whole-netlist cost treated as one operand (used by reports and by the
// paper's assumption-1 scaling, where a benchmark is re-run until its total
// energy exceeds the storage capacity).
OperandCost netlist_cost(const Netlist& nl, const CellLibrary& lib);

}  // namespace diac
