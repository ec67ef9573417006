#include "diac/codegen.hpp"

#include <algorithm>
#include <type_traits>

#include "netlist/verilog_format.hpp"
#include "util/units.hpp"

namespace diac {

std::string generate_verilog(const IntermittentDesign& design) {
  const Netlist& nl = design.tree.netlist();
  std::string v;
  v.reserve(96 * nl.size());  // ~75 bytes per gate on s38417
  // Appends each part: text as it is, a GateId as its wire "w_<name>".
  const auto put = [&](const auto&... parts) {
    const auto one = [&](const auto& part) {
      if constexpr (std::is_same_v<std::decay_t<decltype(part)>, GateId>) {
        append_verilog_identifier(v, nl.gate_name(part), "w_");
      } else {
        v += part;
      }
    };
    (one(parts), ...);
  };
  // `a OP b OP ...` over the gate's fanins, as `~(...)` when `negate`.
  const auto chain = [&](const Gate& g, std::string_view op, bool negate) {
    if (negate) v += "~(";
    for (std::size_t i = 0; i < g.fanin.size(); ++i) {
      put(i ? op : "", g.fanin[i]);
    }
    if (negate) v += ')';
  };

  put("// Generated by DIAC — scheme ", to_string(design.scheme), ", NVM ",
      to_string(design.technology), "\n// Tasks: ",
      std::to_string(design.tree.size()), ", NVM commit points: ",
      std::to_string(design.tree.nvm_points().size()), "\nmodule ");
  append_verilog_identifier(v, nl.name());
  v += " (\n  input wire clk,\n  input wire backup_en,\n";
  for (GateId id : nl.inputs()) put("  input wire ", id, ",\n");
  for (GateId id : nl.outputs()) put("  output wire ", id, ",\n");
  v.erase(v.size() - 2, 1);  // the last port's ','
  v += ");\n\n";

  // Wires.
  for (GateId id : nl.all_ids()) {
    const GateKind k = nl.kind(id);
    if (k == GateKind::kInput || k == GateKind::kOutput) continue;
    put(k == GateKind::kDff ? "  reg " : "  wire ", id, ";\n");
  }
  v += '\n';

  const auto emit_gate = [&](GateId id) {
    const Gate g = nl.gate(id);
    const bool dff = g.kind == GateKind::kDff;
    put(dff ? "  always @(posedge clk) " : "  assign ", id,
        dff ? " <= " : " = ");
    switch (g.kind) {
      case GateKind::kConst0: v += "1'b0"; break;
      case GateKind::kConst1: v += "1'b1"; break;
      case GateKind::kInput: break;  // neither a task member nor last
      case GateKind::kNot: v += '~'; [[fallthrough]];
      case GateKind::kOutput:
      case GateKind::kBuf:
      case GateKind::kDff: put(g.fanin[0]); break;
      case GateKind::kAnd: chain(g, " & ", false); break;
      case GateKind::kNand: chain(g, " & ", true); break;
      case GateKind::kOr: chain(g, " | ", false); break;
      case GateKind::kNor: chain(g, " | ", true); break;
      case GateKind::kXor: chain(g, " ^ ", false); break;
      case GateKind::kXnor: chain(g, " ^ ", true); break;
      case GateKind::kMux:  // sel ? b : a
        put(g.fanin[0], " ? ", g.fanin[2], " : ", g.fanin[1]);
        break;
    }
    v += ";\n";
  };

  // Gates, grouped by task with a boundary comment each.
  const auto& part = design.tree.partition();
  for (TaskId t : design.tree.schedule()) {
    const TaskNode& node = design.tree.node(t);
    const bool commit = design.tree.annotation(t).has_nvm;
    put("  // --- task ", node.label, " (level ",
        std::to_string(node.dict.level), ", ",
        std::to_string(node.gates.size()),
        commit ? " gates, NVM commit point) ---\n" : " gates) ---\n");
    for (GateId g : node.gates) emit_gate(g);
    if (!commit) continue;
    // Shadow NVM registers for every boundary signal of the commit.
    int bit = 0;
    for (GateId g : node.gates) {
      const auto fanout = nl.fanout(g);
      if (std::none_of(fanout.begin(), fanout.end(),
                       [&](GateId c) { return part[c] != part[g]; })) {
        continue;
      }
      v += "  diac_nvreg ";
      append_verilog_identifier(v, node.label, "nv_");
      put('_', std::to_string(bit++), " (.clk(clk), .en(backup_en), .d(", g,
          "));\n");
    }
  }
  // Port and constant gates are never task members (TaskTree rejects
  // them); emit their drivers last so every referenced wire is assigned.
  for (GateId id : nl.all_ids()) {
    const GateKind k = nl.kind(id);
    if (k == GateKind::kOutput || k == GateKind::kConst0 ||
        k == GateKind::kConst1) {
      emit_gate(id);
    }
  }

  v += "endmodule\n";
  return v;
}

ValidationReport validate_design(const IntermittentDesign& design,
                                 double clock_period, double energy_budget) {
  ValidationReport report;
  for (std::size_t i = 0; i < design.tree.size(); ++i) {
    const TaskId id = static_cast<TaskId>(i);
    const TaskNode& node = design.tree.node(id);
    if (node.dict.delay > clock_period) {
      report.violations.push_back(
          {Violation::Kind::kTiming, id,
           std::string(node.label) + ": CDP " +
               std::to_string(units::as_ns(node.dict.delay)) +
               " ns exceeds clock " +
               std::to_string(units::as_ns(clock_period)) + " ns"});
    }
    const double scaled = design.scale * node.dict.energy();
    if (scaled > energy_budget) {
      report.violations.push_back(
          {Violation::Kind::kPowerBudget, id,
           std::string(node.label) + ": task energy " +
               std::to_string(units::as_mJ(scaled)) +
               " mJ exceeds budget " +
               std::to_string(units::as_mJ(energy_budget)) + " mJ"});
    }
  }
  return report;
}

}  // namespace diac
