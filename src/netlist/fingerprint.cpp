#include "netlist/fingerprint.hpp"

#include <algorithm>

namespace diac {

Hash128 canonical_fingerprint(const Netlist& nl) {
  std::vector<GateId> ids = nl.all_ids();
  std::sort(ids.begin(), ids.end(), [&nl](GateId a, GateId b) {
    return nl.gate_name(a) < nl.gate_name(b);
  });

  Fnv128 h;
  const std::uint64_t count = ids.size();
  h.update(&count, sizeof(count));
  for (GateId id : ids) {
    const std::span<const GateId> fanin = nl.fanin(id);
    h.update_token(nl.gate_name(id));
    h.update_token(to_string(nl.kind(id)));
    const std::uint64_t fanins = fanin.size();
    h.update(&fanins, sizeof(fanins));
    for (GateId f : fanin) h.update_token(nl.gate_name(f));
  }
  return h.digest();
}

}  // namespace diac
