#include "oracle/reference_netlist.hpp"

#include <algorithm>
#include <stdexcept>

namespace diac {

GateId ReferenceNetlist::add(GateKind kind, std::string_view name_view,
                             std::span<const GateId> fanin) {
  std::string name(name_view);
  if (by_name_.count(name) != 0) {
    throw std::invalid_argument("Netlist: duplicate gate name '" + name + "'");
  }
  for (GateId f : fanin) {
    if (f >= gates_.size()) {
      throw std::invalid_argument("Netlist: fanin id out of range for '" + name + "'");
    }
  }
  const auto id = static_cast<GateId>(gates_.size());
  ReferenceGate g;
  g.kind = kind;
  g.name = std::move(name);
  g.fanin.assign(fanin.begin(), fanin.end());
  gates_.push_back(std::move(g));
  by_name_.emplace(gates_.back().name, id);
  link_fanout(id);
  return id;
}

GateId ReferenceNetlist::add(GateKind kind, std::span<const GateId> fanin) {
  std::string name = std::string(to_string(kind)) + "_" + std::to_string(gates_.size());
  while (by_name_.count(name) != 0) name += "_";
  return add(kind, name, fanin);
}

void ReferenceNetlist::set_fanin(GateId gate_id, std::span<const GateId> fanin) {
  if (gate_id >= gates_.size()) {
    throw std::invalid_argument("Netlist::set_fanin: gate id out of range");
  }
  for (GateId f : fanin) {
    if (f >= gates_.size()) {
      throw std::invalid_argument("Netlist::set_fanin: fanin id out of range");
    }
  }
  unlink_fanout(gate_id);
  gates_[gate_id].fanin.assign(fanin.begin(), fanin.end());
  link_fanout(gate_id);
}

void ReferenceNetlist::link_fanout(GateId gate_id) {
  for (GateId f : gates_[gate_id].fanin) gates_[f].fanout.push_back(gate_id);
}

void ReferenceNetlist::unlink_fanout(GateId gate_id) {
  for (GateId f : gates_[gate_id].fanin) {
    auto& fo = gates_[f].fanout;
    fo.erase(std::remove(fo.begin(), fo.end(), gate_id), fo.end());
  }
}

GateId ReferenceNetlist::find(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? kNullGate : it->second;
}

}  // namespace diac
