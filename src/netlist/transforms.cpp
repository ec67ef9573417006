#include "netlist/transforms.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <vector>

namespace diac {

namespace {

// The transforms below build their result without sealing it, so that
// cleanup() chains them and validates once; `nl` need not be sealed
// except for propagate(), which walks fanouts.

// Rebuilds a netlist keeping only gates where keep[id], remapping fanins
// through `redirect` (applied transitively) first.  `redirect[id]` points
// a consumed gate at its replacement (kNullGate = keep as is).
Netlist rebuild(const Netlist& nl, const std::vector<char>& keep,
                const std::vector<GateId>& redirect) {
  auto resolve = [&](GateId id) {
    GateId cur = id;
    // Redirections can chain (buffer of a buffer); they cannot cycle
    // because each step strictly moves to an earlier-created driver.
    while (redirect[cur] != kNullGate) cur = redirect[cur];
    return cur;
  };

  Netlist out(nl.name());
  std::vector<GateId> new_id(nl.size(), kNullGate);
  // Two passes: create kept gates (empty fanin), then wire them.  DFF
  // feedback makes a single topological pass impossible in general.
  for (GateId id = 0; id < nl.size(); ++id) {
    if (!keep[id]) continue;
    new_id[id] = out.add(nl.kind(id), nl.gate_name(id));
  }
  std::vector<GateId> fanin;
  for (GateId id = 0; id < nl.size(); ++id) {
    if (!keep[id]) continue;
    fanin.clear();
    for (GateId f : nl.fanin(id)) {
      const GateId src = resolve(f);
      if (new_id[src] == kNullGate) {
        throw std::logic_error("transforms: kept gate reads a swept gate ('" +
                               std::string(nl.gate_name(id)) + "' reads '" +
                               std::string(nl.gate_name(src)) + "')");
      }
      fanin.push_back(new_id[src]);
    }
    out.set_fanin(new_id[id], fanin);
  }
  return out;
}

std::vector<GateId> no_redirect(const Netlist& nl) {
  return std::vector<GateId>(nl.size(), kNullGate);
}

Netlist sealed(Netlist nl) {
  nl.seal();
  return nl;
}

Netlist sweep(const Netlist& nl, TransformStats* stats) {
  // Mark everything reachable *backwards* from outputs and DFFs.
  std::vector<char> live(nl.size(), 0);
  std::vector<GateId> work;
  for (GateId id = 0; id < nl.size(); ++id) {
    const GateKind k = nl.kind(id);
    if (k == GateKind::kOutput || k == GateKind::kDff ||
        k == GateKind::kInput) {
      live[id] = 1;
      work.push_back(id);
    }
  }
  while (!work.empty()) {
    const GateId id = work.back();
    work.pop_back();
    for (GateId f : nl.fanin(id)) {
      if (!live[f]) {
        live[f] = 1;
        work.push_back(f);
      }
    }
  }
  std::size_t removed = 0;
  for (GateId id = 0; id < nl.size(); ++id) {
    if (!live[id] && is_logic(nl.kind(id))) ++removed;
  }
  if (stats) stats->removed_dead += removed;
  return rebuild(nl, live, no_redirect(nl));
}

Netlist propagate(const Netlist& nl, TransformStats* stats) {
  // Constant value per gate: nullopt = not constant.  Constants are
  // computed first, then materialized into a fresh netlist where constant
  // logic gates become kConst0/kConst1.
  std::vector<std::optional<bool>> value(nl.size());
  bool changed = true;
  const auto order = [&] {
    std::vector<GateId> topo;
    topo.reserve(nl.size());
    // Kahn over combinational edges (DFFs are sources).
    std::vector<int> pending(nl.size(), 0);
    for (GateId id = 0; id < nl.size(); ++id) {
      const Gate g = nl.gate(id);
      pending[id] = g.kind == GateKind::kDff ? 0 : g.fanin_count();
      if (pending[id] == 0) topo.push_back(id);
    }
    for (std::size_t head = 0; head < topo.size(); ++head) {
      for (GateId c : nl.fanout(topo[head])) {
        if (nl.kind(c) == GateKind::kDff) continue;
        if (--pending[c] == 0) topo.push_back(c);
      }
    }
    return topo;
  }();

  // Fixpoint over the topological order (one pass suffices for
  // combinational logic; DFF chains of constants need iteration).
  while (changed) {
    changed = false;
    for (GateId id : order) {
      const Gate g = nl.gate(id);
      if (value[id].has_value()) continue;
      std::optional<bool> v;
      switch (g.kind) {
        case GateKind::kConst0: v = false; break;
        case GateKind::kConst1: v = true; break;
        case GateKind::kBuf:
        case GateKind::kOutput:
          v = value[g.fanin[0]];
          break;
        case GateKind::kNot:
          if (value[g.fanin[0]]) v = !*value[g.fanin[0]];
          break;
        case GateKind::kDff:
          break;  // state: never constant-folded (init value unknown)
        case GateKind::kAnd:
        case GateKind::kNand: {
          bool any_zero = false, all_one = true;
          for (GateId f : g.fanin) {
            if (value[f] == std::optional<bool>(false)) any_zero = true;
            if (value[f] != std::optional<bool>(true)) all_one = false;
          }
          if (any_zero) v = g.kind == GateKind::kNand;
          else if (all_one) v = g.kind == GateKind::kAnd;
          break;
        }
        case GateKind::kOr:
        case GateKind::kNor: {
          bool any_one = false, all_zero = true;
          for (GateId f : g.fanin) {
            if (value[f] == std::optional<bool>(true)) any_one = true;
            if (value[f] != std::optional<bool>(false)) all_zero = false;
          }
          if (any_one) v = g.kind == GateKind::kOr;
          else if (all_zero) v = g.kind == GateKind::kNor;
          break;
        }
        case GateKind::kXor:
        case GateKind::kXnor: {
          bool parity = g.kind == GateKind::kXnor;
          bool all_const = true;
          for (GateId f : g.fanin) {
            if (!value[f]) {
              all_const = false;
              break;
            }
            parity ^= *value[f];
          }
          if (all_const) v = parity;
          break;
        }
        case GateKind::kMux: {
          const auto sel = value[g.fanin[0]];
          if (sel) v = value[g.fanin[*sel ? 2 : 1]];
          else if (value[g.fanin[1]] && value[g.fanin[1]] == value[g.fanin[2]])
            v = value[g.fanin[1]];
          break;
        }
        case GateKind::kInput:
          break;
      }
      if (v.has_value()) {
        value[id] = v;
        changed = true;
      }
    }
  }

  // Materialize: constant logic gates become kConst gates; other gates
  // are copied as-is (their constant fanins now point to const gates).
  Netlist out(nl.name());
  std::vector<GateId> new_id(nl.size(), kNullGate);
  std::size_t folded = 0;
  for (GateId id = 0; id < nl.size(); ++id) {
    const Gate g = nl.gate(id);
    GateKind kind = g.kind;
    if (is_logic(kind) && kind != GateKind::kDff && value[id].has_value()) {
      kind = *value[id] ? GateKind::kConst1 : GateKind::kConst0;
      if (g.kind != GateKind::kConst0 && g.kind != GateKind::kConst1) {
        ++folded;
      }
    }
    new_id[id] = out.add(kind, g.name);
  }
  std::vector<GateId> fanin;
  for (GateId id = 0; id < nl.size(); ++id) {
    const Gate g = nl.gate(id);
    if (out.kind(new_id[id]) == GateKind::kConst0 ||
        out.kind(new_id[id]) == GateKind::kConst1) {
      continue;  // constants have no fanin
    }
    fanin.clear();
    for (GateId f : g.fanin) fanin.push_back(new_id[f]);
    out.set_fanin(new_id[id], fanin);
  }
  if (stats) stats->folded_constants += folded;
  return out;
}

Netlist elide(const Netlist& nl, TransformStats* stats) {
  std::vector<char> keep(nl.size(), 1);
  std::vector<GateId> redirect(nl.size(), kNullGate);
  std::size_t elided = 0;
  for (GateId id = 0; id < nl.size(); ++id) {
    if (nl.kind(id) != GateKind::kBuf) continue;
    keep[id] = 0;
    redirect[id] = nl.fanin(id)[0];
    ++elided;
  }
  if (stats) stats->elided_buffers += elided;
  return rebuild(nl, keep, redirect);
}

}  // namespace

Netlist sweep_dead_gates(const Netlist& nl, TransformStats* stats) {
  return sealed(sweep(nl, stats));
}

Netlist propagate_constants(const Netlist& nl, TransformStats* stats) {
  return sealed(propagate(nl, stats));
}

Netlist elide_buffers(const Netlist& nl, TransformStats* stats) {
  return sealed(elide(nl, stats));
}

Netlist cleanup(const Netlist& nl, TransformStats* stats) {
  return sealed(sweep(elide(propagate(nl, stats), stats), stats));
}

}  // namespace diac
