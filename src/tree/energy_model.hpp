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
// gates, computing the CDP with arrival times restricted to the set;
// `ordered_operand_cost` is the same evaluation over members already in
// topological order, the form every task-tree build and policy uses.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
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

// Evaluates the paper's model over `members` (logic gates of one operand,
// in any order).  Gates outside the set contribute arrival time 0 (their
// values are node inputs, ready when the node starts).  Member DFFs
// contribute their capture delay as parallel single-gate paths.  Members
// are visited in topological_order(nl), so the sums do not depend on the
// caller's order.
OperandCost operand_cost(const Netlist& nl, std::span<const GateId> members,
                         const CellLibrary& lib);

// The kernel behind every operand cost: `ordered` lists the members in
// topological_order(nl) (TaskTree::topo_gates is such a list), and the
// call visits them in that order with no copy and no sort, in time
// independent of the netlist's size.  `arrival` is a caller-owned scratch
// buffer of nl.size() entries that must all read -1.0 on entry; the call
// writes only the members' entries and resets them to -1.0 before
// returning, so one buffer serves every operand of a tree build.  Throws
// std::invalid_argument when `arrival` is smaller than the netlist.
OperandCost ordered_operand_cost(const Netlist& nl,
                                 std::span<const GateId> ordered,
                                 const CellLibrary& lib,
                                 std::span<double> arrival);

// As above, also handing each member's kind and fanins, in visit order,
// to `on_fanins(GateKind, std::span<const GateId>)`, so a caller that
// scans the same gates for edges walks them once.
template <typename OnFanins>
OperandCost ordered_operand_cost(const Netlist& nl,
                                 std::span<const GateId> ordered,
                                 const CellLibrary& lib,
                                 std::span<double> arrival,
                                 OnFanins&& on_fanins) {
  if (arrival.size() < nl.size()) {
    throw std::invalid_argument("operand_cost: arrival buffer too small");
  }
  OperandCost cost;
  if (ordered.empty()) return cost;

  // `arrival` holds the restricted arrival times, indexed by GateId.
  // Non-members and members whose arrival is still unresolved both read as
  // negative (members resolve before use because they come in topological
  // order).
  double sum_static = 0.0;
  double max_static = 0.0;

  for (GateId id : ordered) {
    const GateKind kind = nl.kind(id);
    const std::span<const GateId> fanin = nl.fanin(id);
    on_fanins(kind, fanin);
    // lib.delay/dynamic_power/static_power, with the base cell and its
    // derating looked up once.
    const CellParams& cell = lib.base(kind);
    const double derate = lib.derate(static_cast<int>(fanin.size()));
    const double d = cell.delay * derate;

    // Dynamic energy: 2 * delay * dynamic_power per member evaluation.
    cost.dynamic_energy += 2.0 * d * (cell.dynamic_power * derate);

    const double st = cell.static_power * derate;
    sum_static += st;
    max_static = std::max(max_static, st);

    // Restricted arrival: external fanins (and DFF Q values, which are
    // ready at node start) arrive at t = 0.  A non-member reads -1.0, so
    // the max over every fanin needs no branch.
    double at = 0.0;
    if (kind != GateKind::kDff) {
      for (GateId f : fanin) at = std::max(at, arrival[f]);
    }
    at += d;
    arrival[id] = at;
    cost.delay = std::max(cost.delay, at);
  }
  for (GateId id : ordered) arrival[id] = -1.0;

  // Static energy: while one gate switches, the other n-1 leak for the
  // node's CDP.  We charge CDP * (sum - max) — the "currently active gate"
  // excluded per the paper's formula (using the largest leaker keeps the
  // estimate conservative for single-gate nodes, where it becomes zero).
  cost.static_energy = cost.delay * (sum_static - max_static);

  cost.power = cost.delay > 0.0 ? cost.energy() / cost.delay : 0.0;
  return cost;
}

// pos[g] = rank of gate g in topological_order(nl).
std::vector<std::uint32_t> topological_positions(const Netlist& nl);

// Whole-netlist cost treated as one operand (used by reports and by the
// paper's assumption-1 scaling, where a benchmark is re-run until its total
// energy exceeds the storage capacity).
OperandCost netlist_cost(const Netlist& nl, const CellLibrary& lib);

}  // namespace diac
