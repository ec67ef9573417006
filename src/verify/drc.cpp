#include "verify/drc.hpp"

#include <algorithm>
#include <ostream>

#include "netlist/verilog_format.hpp"

namespace diac::verify {
namespace {

// The gate's kind, name and fanin.  DRC also runs on netlists that are
// not sealed (seal() validates through it), so the view has no fanout.
Gate view(const Netlist& nl, GateId id) {
  return Gate{nl.kind(id), nl.gate_name(id), nl.fanin(id), {}};
}

// Quotes a gate for a message: 'name' (kind).
std::string describe(const Netlist& nl, GateId id) {
  return "'" + std::string(nl.gate_name(id)) + "' (" + to_string(nl.kind(id)) +
         ")";
}

void emit(std::vector<DrcFinding>& out, DrcRule rule, DrcSeverity severity,
          GateId gate, const Netlist& nl, std::string message) {
  DrcFinding f;
  f.rule = rule;
  f.severity = severity;
  f.gate = gate;
  if (gate != kNullGate) f.gate_name = nl.gate_name(gate);
  f.message = std::move(message);
  out.push_back(std::move(f));
}

// N1: every fanin id in range and no OUTPUT used as a driver.  (Fanout
// is derived from the fanins at seal(), so the two cannot disagree.)
void check_links(const Netlist& nl, std::vector<DrcFinding>& out) {
  const std::size_t n = nl.size();
  for (GateId id = 0; id < n; ++id) {
    for (GateId f : nl.fanin(id)) {
      if (f >= n) {
        emit(out, DrcRule::kLinks, DrcSeverity::kError, id, nl,
             "gate '" + std::string(nl.gate_name(id)) +
                 "' has out-of-range fanin id " + std::to_string(f));
      } else if (nl.kind(f) == GateKind::kOutput) {
        emit(out, DrcRule::kLinks, DrcSeverity::kError, id, nl,
             "OUTPUT '" + std::string(nl.gate_name(f)) + "' drives gate '" +
                 std::string(nl.gate_name(id)) + "'");
      }
    }
  }
}

// N2: fan-in count within the GateKind's arity bounds.
void check_arity(const Netlist& nl, std::vector<DrcFinding>& out) {
  for (GateId id = 0; id < nl.size(); ++id) {
    const Gate g = view(nl, id);
    const auto [lo, hi] = arity(g.kind);
    const int fi = g.fanin_count();
    if (fi < lo || (hi >= 0 && fi > hi)) {
      emit(out, DrcRule::kArity, DrcSeverity::kError, id, nl,
           "gate " + describe(nl, id) + " has fan-in " + std::to_string(fi));
    }
  }
}

// N3: combinational cycles (DFF fanins are cut edges), each reported
// with its full path.  Iterative coloured DFS; every back edge yields
// one finding and the walk continues, so multiple independent cycles
// are all collected.
void check_cycles(const Netlist& nl, std::vector<DrcFinding>& out) {
  const std::size_t n = nl.size();
  enum class Mark : std::uint8_t { kWhite, kGrey, kBlack };
  std::vector<Mark> mark(n, Mark::kWhite);
  std::vector<std::pair<GateId, std::size_t>> stack;
  for (GateId root = 0; root < n; ++root) {
    if (mark[root] != Mark::kWhite) continue;
    stack.clear();
    stack.emplace_back(root, 0);
    mark[root] = Mark::kGrey;
    while (!stack.empty()) {
      auto& [id, next] = stack.back();
      const Gate g = view(nl, id);
      const bool traverse = g.kind != GateKind::kDff;
      if (traverse && next < g.fanin.size()) {
        const GateId child = g.fanin[next++];
        if (child >= n) continue;  // N1's finding; nothing to traverse
        if (mark[child] == Mark::kGrey) {
          // Reconstruct the cycle: child -> ... -> id -> child, reading
          // the grey stack from child's frame to the top.
          std::size_t start = 0;
          while (start < stack.size() && stack[start].first != child) ++start;
          std::string path = "combinational cycle:";
          for (std::size_t s = start; s < stack.size(); ++s) {
            path += " '" + std::string(nl.gate_name(stack[s].first)) + "' ->";
          }
          path += " '" + std::string(nl.gate_name(child)) + "'";
          emit(out, DrcRule::kCycle, DrcSeverity::kError, child, nl, path);
          continue;
        }
        if (mark[child] == Mark::kWhite) {
          mark[child] = Mark::kGrey;
          stack.emplace_back(child, 0);
        }
      } else {
        mark[id] = Mark::kBlack;
        stack.pop_back();
      }
    }
  }
}

// N4: gates with no path to any output port (reverse reachability over
// fanin edges, traversing through DFFs).
void check_floating(const Netlist& nl, std::vector<DrcFinding>& out) {
  const std::size_t n = nl.size();
  if (nl.outputs().empty()) {
    emit(out, DrcRule::kFloating, DrcSeverity::kWarning, kNullGate, nl,
         "netlist has no output ports; every gate is unobservable");
    return;
  }
  std::vector<char> reached(n, 0);
  std::vector<GateId> work(nl.outputs().begin(), nl.outputs().end());
  for (GateId id : work) reached[id] = 1;
  while (!work.empty()) {
    const GateId id = work.back();
    work.pop_back();
    for (GateId f : view(nl, id).fanin) {
      if (f >= n || reached[f]) continue;
      reached[f] = 1;
      work.push_back(f);
    }
  }
  for (GateId id = 0; id < n; ++id) {
    if (reached[id]) continue;
    const Gate g = view(nl, id);
    if (g.kind == GateKind::kInput) {
      emit(out, DrcRule::kFloating, DrcSeverity::kWarning, id, nl,
           "input '" + std::string(g.name) + "' reaches no output port");
    } else {
      emit(out, DrcRule::kFloating, DrcSeverity::kWarning, id, nl,
           "unreachable gate " + describe(nl, id) +
               ": no path to any output port");
    }
  }
}

// N5: names codegen cannot emit verbatim.  Codegen writes gate `g` as the
// wire "w_<g>" through append_verilog_identifier; a name that fails the
// identifier rule is rewritten (a warning), and two gates spelled alike
// would merge distinct wires (an error).  Empty names are errors outright.
void check_names(const Netlist& nl, std::vector<DrcFinding>& out) {
  // ("w_<spelling>", gate) for each rewritten name and for a gate already
  // named so: a spelling's lowest id keeps it, any other collides.
  std::vector<std::pair<std::string, GateId>> spelled;
  for (GateId id = 0; id < nl.size(); ++id) {
    const std::string_view name = nl.gate_name(id);
    if (name.empty()) {
      emit(out, DrcRule::kNames, DrcSeverity::kError, id, nl,
           "gate " + std::to_string(id) + " has an empty name");
      continue;
    }
    if (is_verilog_identifier(name, "w_")) continue;
    std::string clean;
    append_verilog_identifier(clean, name, "w_");
    emit(out, DrcRule::kNames, DrcSeverity::kWarning, id, nl,
         "name '" + std::string(name) + "' needs sanitization for codegen ('" +
             clean + "')");
    const GateId named = nl.find(std::string_view(clean).substr(2));
    if (named != kNullGate) spelled.emplace_back(clean, named);
    spelled.emplace_back(std::move(clean), id);
  }
  std::sort(spelled.begin(), spelled.end());
  spelled.erase(std::unique(spelled.begin(), spelled.end()), spelled.end());
  for (std::size_t i = 1, first = 0; i < spelled.size(); ++i) {
    const auto& [clean, id] = spelled[i];
    if (clean != spelled[first].first) {
      first = i;
      continue;
    }
    emit(out, DrcRule::kNames, DrcSeverity::kError, id, nl,
         "sanitized name '" + clean + "' of '" +
             std::string(nl.gate_name(id)) + "' collides with gate '" +
             std::string(nl.gate_name(spelled[first].second)) + "'");
  }
}

// N6: degeneracies — structurally valid shapes that are almost always
// synthesis or generator bugs.
void check_degenerate(const Netlist& nl, std::vector<DrcFinding>& out) {
  const std::size_t n = nl.size();
  const auto is_const = [&](GateId f) {
    return f < n && (view(nl, f).kind == GateKind::kConst0 ||
                     view(nl, f).kind == GateKind::kConst1);
  };
  for (GateId id = 0; id < n; ++id) {
    const Gate g = view(nl, id);
    if (g.fanin.empty()) continue;
    const bool fanins_valid = std::all_of(
        g.fanin.begin(), g.fanin.end(), [&](GateId f) { return f < n; });
    if (!fanins_valid) continue;  // N1 already fired
    const bool all_const =
        std::all_of(g.fanin.begin(), g.fanin.end(), is_const);
    switch (g.kind) {
      case GateKind::kDff: {
        const Gate d = view(nl, g.fanin[0]);
        if (d.kind == GateKind::kDff) {
          emit(out, DrcRule::kDegenerate, DrcSeverity::kWarning, id, nl,
               "DFF '" + std::string(g.name) + "' captures DFF '" +
                   std::string(d.name) +
                   "' directly (no combinational logic between stages)");
        } else if (is_const(g.fanin[0])) {
          emit(out, DrcRule::kDegenerate, DrcSeverity::kWarning, id, nl,
               "DFF '" + std::string(g.name) + "' captures constant '" +
                   std::string(d.name) + "'");
        }
        break;
      }
      case GateKind::kOutput:
        if (is_const(g.fanin[0])) {
          emit(out, DrcRule::kDegenerate, DrcSeverity::kWarning, id, nl,
               "output port '" + std::string(g.name) +
                   "' is driven by constant '" +
                   std::string(nl.gate_name(g.fanin[0])) + "'");
        }
        break;
      case GateKind::kMux:
        if (all_const) {
          emit(out, DrcRule::kDegenerate, DrcSeverity::kWarning, id, nl,
               "gate " + describe(nl, id) +
                   " computes a constant (all fanins constant)");
        } else if (is_const(g.fanin[0])) {
          emit(out, DrcRule::kDegenerate, DrcSeverity::kWarning, id, nl,
               "MUX '" + std::string(g.name) + "' has a constant select '" +
                   std::string(nl.gate_name(g.fanin[0])) + "'");
        }
        break;
      case GateKind::kAnd:
      case GateKind::kNand:
      case GateKind::kOr:
      case GateKind::kNor:
      case GateKind::kXor:
      case GateKind::kXnor:
      case GateKind::kBuf:
      case GateKind::kNot: {
        if (all_const) {
          emit(out, DrcRule::kDegenerate, DrcSeverity::kWarning, id, nl,
               "gate " + describe(nl, id) +
                   " computes a constant (all fanins constant)");
          break;
        }
        const bool and_like =
            g.kind == GateKind::kAnd || g.kind == GateKind::kNand;
        const bool or_like =
            g.kind == GateKind::kOr || g.kind == GateKind::kNor;
        if (!and_like && !or_like) break;
        for (GateId f : g.fanin) {
          const GateKind fk = view(nl, f).kind;
          if ((and_like && fk == GateKind::kConst0) ||
              (or_like && fk == GateKind::kConst1)) {
            emit(out, DrcRule::kDegenerate, DrcSeverity::kWarning, id, nl,
                 "gate " + describe(nl, id) +
                     " is forced constant by dominating fanin '" +
                     std::string(nl.gate_name(f)) + "'");
            break;
          }
        }
        break;
      }
      case GateKind::kInput:
      case GateKind::kConst0:
      case GateKind::kConst1:
        break;  // no fanins by arity; nothing degenerate to flag
    }
  }
}

}  // namespace

const char* to_string(DrcRule rule) {
  switch (rule) {
    case DrcRule::kLinks: return "N1";
    case DrcRule::kArity: return "N2";
    case DrcRule::kCycle: return "N3";
    case DrcRule::kFloating: return "N4";
    case DrcRule::kNames: return "N5";
    case DrcRule::kDegenerate: return "N6";
  }
  return "N?";
}

const char* rule_summary(DrcRule rule) {
  switch (rule) {
    case DrcRule::kLinks:
      return "fanin ids in range, no OUTPUT drivers";
    case DrcRule::kArity:
      return "fan-in count within the GateKind's arity bounds";
    case DrcRule::kCycle:
      return "no combinational cycles (cycles through DFFs are fine)";
    case DrcRule::kFloating:
      return "every gate has a path to an output port";
    case DrcRule::kNames:
      return "gate names are Verilog identifiers or sanitize without "
             "collisions";
    case DrcRule::kDegenerate:
      return "no DFF-of-DFF or constant-determined degeneracies";
  }
  return "";
}

const char* to_string(DrcSeverity severity) {
  return severity == DrcSeverity::kError ? "error" : "warning";
}

DrcOptions DrcOptions::structural() {
  DrcOptions o;
  o.floating = false;
  o.names = false;
  o.degenerate = false;
  return o;
}

const DrcFinding* DrcReport::first_error() const {
  for (const DrcFinding& f : findings) {
    if (f.severity == DrcSeverity::kError) return &f;
  }
  return nullptr;
}

std::size_t DrcReport::count(DrcRule rule) const {
  std::size_t n = 0;
  for (const DrcFinding& f : findings) {
    if (f.rule == rule) ++n;
  }
  return n;
}

DrcReport run_drc(const Netlist& nl, const DrcOptions& options) {
  DrcReport report;
  std::vector<DrcFinding>& out = report.findings;
  if (options.links) check_links(nl, out);
  if (options.arity) check_arity(nl, out);
  if (options.cycles) check_cycles(nl, out);
  if (options.floating) check_floating(nl, out);
  if (options.names) check_names(nl, out);
  if (options.degenerate) check_degenerate(nl, out);
  // One deterministic report order regardless of rule evaluation order:
  // ascending gate id (netlist-level findings last), then rule, then
  // message text.
  std::stable_sort(out.begin(), out.end(),
                   [](const DrcFinding& a, const DrcFinding& b) {
                     if (a.gate != b.gate) return a.gate < b.gate;
                     if (a.rule != b.rule) return a.rule < b.rule;
                     return a.message < b.message;
                   });
  for (const DrcFinding& f : out) {
    if (f.severity == DrcSeverity::kError) {
      ++report.errors;
    } else {
      ++report.warnings;
    }
  }
  return report;
}

void write_drc_report(std::ostream& out, const DrcReport& report,
                      const std::string& netlist_name) {
  for (const DrcFinding& f : report.findings) {
    out << netlist_name;
    if (f.gate != kNullGate) out << ":" << f.gate_name;
    out << ": " << to_string(f.severity) << ": [" << to_string(f.rule)
        << "] " << f.message << "\n";
  }
  out << netlist_name << ": drc: " << report.errors << " error(s), "
      << report.warnings << " warning(s)\n";
}

}  // namespace diac::verify
