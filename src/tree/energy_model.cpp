#include "tree/energy_model.hpp"

#include <algorithm>
#include <stdexcept>

#include "netlist/analysis.hpp"

namespace diac {

std::vector<std::uint32_t> topological_positions(const Netlist& nl) {
  return topological_positions(topological_order(nl));
}

std::vector<std::uint32_t> topological_positions(std::span<const GateId> order) {
  std::vector<std::uint32_t> pos(order.size(), 0);
  for (std::uint32_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  return pos;
}

OperandCost operand_cost(const Netlist& nl, std::span<const GateId> members,
                         const CellLibrary& lib) {
  std::vector<double> arrival(nl.size(), -1.0);
  return operand_cost(nl, members, lib, topological_positions(nl), arrival);
}

OperandCost operand_cost(const Netlist& nl, std::span<const GateId> members,
                         const CellLibrary& lib,
                         std::span<const std::uint32_t> topo_pos,
                         std::span<double> arrival) {
  std::vector<GateId> ordered;
  return operand_cost(nl, members, lib, topo_pos, arrival, ordered);
}

OperandCost operand_cost(const Netlist& nl, std::span<const GateId> members,
                         const CellLibrary& lib,
                         std::span<const std::uint32_t> topo_pos,
                         std::span<double> arrival,
                         std::vector<GateId>& ordered) {
  if (arrival.size() < nl.size()) {
    throw std::invalid_argument("operand_cost: arrival buffer too small");
  }
  OperandCost cost;
  if (members.empty()) return cost;

  // `arrival` holds the restricted arrival times, indexed by GateId.
  // Non-members and members whose arrival is still unresolved both read as
  // negative (members resolve before use because we visit them in
  // topological order).
  double sum_static = 0.0;
  double max_static = 0.0;

  // Members in global topological order so restricted arrivals resolve in
  // one pass.
  ordered.assign(members.begin(), members.end());
  std::sort(ordered.begin(), ordered.end(), [&topo_pos](GateId a, GateId b) {
    return topo_pos[a] < topo_pos[b];
  });

  for (GateId id : ordered) {
    const GateKind kind = nl.kind(id);
    const std::span<const GateId> fanin = nl.fanin(id);
    const auto n = static_cast<int>(fanin.size());
    const double d = lib.delay(kind, n);

    // Dynamic energy: 2 * delay * dynamic_power per member evaluation.
    cost.dynamic_energy += 2.0 * d * lib.dynamic_power(kind, n);

    const double st = lib.static_power(kind, n);
    sum_static += st;
    max_static = std::max(max_static, st);

    // Restricted arrival: external fanins (and DFF Q values, which are
    // ready at node start) arrive at t = 0.
    double at = 0.0;
    if (kind != GateKind::kDff) {
      for (GateId f : fanin) {
        if (arrival[f] >= 0.0) at = std::max(at, arrival[f]);
      }
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

OperandCost netlist_cost(const Netlist& nl, const CellLibrary& lib) {
  std::vector<GateId> members;
  members.reserve(nl.size());
  for (GateId id = 0; id < nl.size(); ++id) {
    if (is_logic(nl.kind(id))) members.push_back(id);
  }
  return operand_cost(nl, members, lib);
}

}  // namespace diac
