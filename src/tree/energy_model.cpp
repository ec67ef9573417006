#include "tree/energy_model.hpp"

#include "netlist/analysis.hpp"

namespace diac {

std::vector<std::uint32_t> topological_positions(const Netlist& nl) {
  const std::vector<GateId> order = topological_order(nl);
  std::vector<std::uint32_t> pos(order.size(), 0);
  for (std::uint32_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  return pos;
}

OperandCost operand_cost(const Netlist& nl, std::span<const GateId> members,
                         const CellLibrary& lib) {
  std::vector<char> member(nl.size(), 0);
  for (GateId g : members) member.at(g) = 1;
  std::vector<GateId> ordered;
  ordered.reserve(members.size());
  for (GateId g : topological_order(nl)) {
    if (member[g]) ordered.push_back(g);
  }
  std::vector<double> arrival(nl.size(), -1.0);
  return ordered_operand_cost(nl, ordered, lib, arrival);
}

OperandCost ordered_operand_cost(const Netlist& nl,
                                 std::span<const GateId> ordered,
                                 const CellLibrary& lib,
                                 std::span<double> arrival) {
  return ordered_operand_cost(nl, ordered, lib, arrival,
                              [](GateKind, std::span<const GateId>) {});
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
