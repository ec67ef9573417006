#include "oracle/reference_cost.hpp"

#include <algorithm>
#include <vector>

namespace diac {

OperandCost reference_operand_cost(const Netlist& nl,
                                   std::span<const GateId> members,
                                   const CellLibrary& lib,
                                   std::span<const std::uint32_t> topo_pos) {
  OperandCost cost;
  if (members.empty()) return cost;

  std::vector<double> arrival(nl.size(), -1.0);
  double sum_static = 0.0;
  double max_static = 0.0;

  std::vector<GateId> ordered(members.begin(), members.end());
  std::sort(ordered.begin(), ordered.end(), [&topo_pos](GateId a, GateId b) {
    return topo_pos[a] < topo_pos[b];
  });

  for (GateId id : ordered) {
    const GateKind kind = nl.kind(id);
    const std::span<const GateId> fanin = nl.fanin(id);
    const auto n = static_cast<int>(fanin.size());
    const double d = lib.delay(kind, n);
    cost.dynamic_energy += 2.0 * d * lib.dynamic_power(kind, n);

    const double st = lib.static_power(kind, n);
    sum_static += st;
    max_static = std::max(max_static, st);

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

  cost.static_energy = cost.delay * (sum_static - max_static);
  cost.power = cost.delay > 0.0 ? cost.energy() / cost.delay : 0.0;
  return cost;
}

}  // namespace diac
