// The array-of-structs netlist store the flat `Netlist` replaced: one
// record per gate holding its name and its fanin and fanout vectors, a
// string-keyed name map, and fanout lists kept up to date on every
// `add` / `set_fanin` (unlink, then re-append).  Test-only: it is the
// reference the flat store's fanout CSR is diffed against
// (tests/netlist_oracle_test.cpp).
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "netlist/netlist.hpp"

namespace diac {

struct ReferenceGate {
  GateKind kind{GateKind::kBuf};
  std::string name;
  std::vector<GateId> fanin;
  std::vector<GateId> fanout;  // maintained by add / set_fanin
};

class ReferenceNetlist {
 public:
  // Same contract as Netlist::add: throws std::invalid_argument on a
  // duplicate name or an out-of-range fanin id.
  GateId add(GateKind kind, std::string_view name,
             std::span<const GateId> fanin = {});
  // Auto-named ("<kind>_<id>", '_' appended until unique).
  GateId add(GateKind kind, std::span<const GateId> fanin = {});
  void set_fanin(GateId gate, std::span<const GateId> fanin);

  std::size_t size() const { return gates_.size(); }
  const ReferenceGate& gate(GateId id) const { return gates_.at(id); }
  GateId find(const std::string& name) const;

 private:
  void link_fanout(GateId gate);
  void unlink_fanout(GateId gate);

  std::vector<ReferenceGate> gates_;
  std::unordered_map<std::string, GateId> by_name_;
};

}  // namespace diac
