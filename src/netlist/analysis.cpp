#include "netlist/analysis.hpp"

#include <algorithm>
#include <stdexcept>

namespace diac {

namespace {

// Combinational fanins of a gate: all fanins unless the gate is a DFF
// (whose D input is a sequential boundary for path purposes).
bool cuts_paths(GateKind kind) { return kind == GateKind::kDff; }

}  // namespace

std::vector<GateId> topological_order(const Netlist& nl) {
  // Kahn's algorithm; the FIFO queue of ready gates is the order itself.
  // Each gate is written at the tail and kept only if it became ready,
  // so the queue grows without a branch per edge.  A DFF starts ready
  // (its fanin edge is a sequential boundary) and its one fanin takes
  // its count below zero, so it is never queued twice.
  const std::size_t n = nl.size();
  std::vector<int> pending(n, 0);
  std::vector<GateId> order(n + 1);  // one spare slot for the last write
  std::size_t tail = 0;
  for (GateId id = 0; id < n; ++id) {
    const int deps =
        cuts_paths(nl.kind(id)) ? 0 : static_cast<int>(nl.fanin(id).size());
    pending[id] = deps;
    order[tail] = id;
    tail += deps == 0;
  }
  for (std::size_t head = 0; head < tail; ++head) {
    for (GateId consumer : nl.fanout(order[head])) {
      order[tail] = consumer;
      tail += --pending[consumer] == 0;
    }
  }
  if (tail != n) {
    throw std::runtime_error("topological_order: combinational cycle in '" +
                             nl.name() + "'");
  }
  order.pop_back();
  return order;
}

std::vector<int> levelize(const Netlist& nl) {
  std::vector<int> level(nl.size(), 0);
  for (GateId id : topological_order(nl)) {
    const Gate g = nl.gate(id);
    if (cuts_paths(g.kind) || g.fanin.empty()) {
      level[id] = 0;
      continue;
    }
    int max_in = -1;
    for (GateId f : g.fanin) max_in = std::max(max_in, level[f]);
    // Ports are transparent: they take the driver's level; real gates add 1.
    level[id] = is_pseudo(g.kind) ? std::max(max_in, 0) : max_in + 1;
  }
  return level;
}

int depth(const Netlist& nl) {
  const auto level = levelize(nl);
  int d = 0;
  for (int l : level) d = std::max(d, l);
  return d;
}

std::vector<double> arrival_times(const Netlist& nl, const CellLibrary& lib) {
  std::vector<double> at(nl.size(), 0.0);
  for (GateId id : topological_order(nl)) {
    const Gate g = nl.gate(id);
    if (cuts_paths(g.kind) || g.fanin.empty()) {
      at[id] = 0.0;
      continue;
    }
    double max_in = 0.0;
    for (GateId f : g.fanin) max_in = std::max(max_in, at[f]);
    at[id] = max_in + lib.delay(g.kind, g.fanin_count());
  }
  return at;
}

double critical_path_delay(const Netlist& nl, const CellLibrary& lib) {
  const auto at = arrival_times(nl, lib);
  double cpd = 0.0;
  for (GateId id = 0; id < nl.size(); ++id) {
    const Gate g = nl.gate(id);
    if (g.kind == GateKind::kOutput) {
      cpd = std::max(cpd, at[id]);
    } else if (g.kind == GateKind::kDff) {
      // Path ends at the D pin: arrival of the driver plus the DFF setup
      // (modelled inside the DFF delay).
      for (GateId f : g.fanin) cpd = std::max(cpd, at[f]);
    }
  }
  // Pure combinational designs: also consider dangling gates.
  for (GateId id = 0; id < nl.size(); ++id) cpd = std::max(cpd, at[id]);
  return cpd;
}

std::vector<GateId> cone_roots(const Netlist& nl,
                               std::span<const GateId> order) {
  // A combinational gate merges into its consumer's cone iff it has exactly
  // one fanout and that fanout is a combinational gate.  Otherwise it is a
  // cone root.  Union-find towards the root.
  std::vector<GateId> root(nl.size(), kNullGate);
  // Process in reverse topological order so consumers resolve first.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const GateId id = *it;
    if (!is_combinational(nl.kind(id))) continue;
    const std::span<const GateId> fanout = nl.fanout(id);
    if (fanout.size() == 1 && is_combinational(nl.kind(fanout[0]))) {
      root[id] = root[fanout[0]];
      if (root[id] == kNullGate) root[id] = fanout[0];
    } else {
      root[id] = id;
    }
  }
  return root;
}

std::vector<Cone> fanout_free_cones(const Netlist& nl) {
  const std::vector<GateId> root = cone_roots(nl, topological_order(nl));
  std::vector<std::vector<GateId>> members(nl.size());
  for (GateId id = 0; id < nl.size(); ++id) {
    if (root[id] != kNullGate) members[root[id]].push_back(id);
  }
  std::vector<Cone> cones;
  for (GateId id = 0; id < nl.size(); ++id) {
    if (!members[id].empty()) {
      Cone c;
      c.root = id;
      c.members = std::move(members[id]);
      cones.push_back(std::move(c));
    }
  }
  return cones;
}

int state_driver_cones(const Netlist& nl, std::span<const GateId> cone_root) {
  std::vector<GateId> clusters;  // deduplicated below via sort+unique
  auto driver_cluster = [&](GateId state_gate) {
    const std::span<const GateId> fanin = nl.fanin(state_gate);
    if (fanin.empty()) return;
    const GateId d = fanin[0];
    clusters.push_back(cone_root[d] != kNullGate ? cone_root[d] : d);
  };
  for (GateId ff : nl.dffs()) driver_cluster(ff);
  for (GateId out : nl.outputs()) driver_cluster(out);
  std::sort(clusters.begin(), clusters.end());
  clusters.erase(std::unique(clusters.begin(), clusters.end()),
                 clusters.end());
  return static_cast<int>(clusters.size());
}

NetlistStats analyze(const Netlist& nl, const CellLibrary& lib) {
  NetlistStats s;
  s.gates = nl.logic_gate_count();
  s.inputs = nl.inputs().size();
  s.outputs = nl.outputs().size();
  s.dffs = nl.dffs().size();
  s.depth = depth(nl);
  s.critical_path = critical_path_delay(nl, lib);
  for (GateId id = 0; id < nl.size(); ++id) {
    const GateKind kind = nl.kind(id);
    if (is_logic(kind)) {
      s.total_area += lib.area(kind, static_cast<int>(nl.fanin(id).size()));
    }
  }
  return s;
}

}  // namespace diac
