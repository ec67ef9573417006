#include "diac/codegen.hpp"

#include <sstream>

#include "util/units.hpp"

namespace diac {

namespace {

// Verilog-safe identifier: replace characters outside [A-Za-z0-9_].
std::string vname(std::string_view raw) {
  std::string out = "w_";
  for (char c : raw) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

std::string operand_list(const Netlist& nl, const Gate& g, const char* sep) {
  std::string out;
  for (std::size_t i = 0; i < g.fanin.size(); ++i) {
    if (i) out += sep;
    out += vname(nl.gate(g.fanin[i]).name);
  }
  return out;
}

}  // namespace

std::string generate_verilog(const IntermittentDesign& design,
                             const CodegenOptions& options) {
  const Netlist& nl = design.tree.netlist();
  const std::string mod =
      options.module_name.empty() ? nl.name() : options.module_name;

  std::ostringstream os;
  os << "// Generated by DIAC — scheme " << to_string(design.scheme) << ", NVM "
     << to_string(design.technology) << "\n";
  os << "// Tasks: " << design.tree.size() << ", NVM commit points: "
     << design.tree.nvm_points().size() << "\n";
  os << "module " << mod << " (\n  input wire clk,\n  input wire backup_en,\n";
  for (GateId id : nl.inputs()) {
    os << "  input wire " << vname(nl.gate(id).name) << ",\n";
  }
  const auto outs = nl.outputs();
  for (std::size_t i = 0; i < outs.size(); ++i) {
    os << "  output wire " << vname(nl.gate(outs[i]).name)
       << (i + 1 < outs.size() ? ",\n" : "\n");
  }
  os << ");\n\n";

  // Wires.
  for (GateId id : nl.all_ids()) {
    const Gate g = nl.gate(id);
    if (g.kind == GateKind::kInput || g.kind == GateKind::kOutput) continue;
    os << (g.kind == GateKind::kDff ? "  reg " : "  wire ") << vname(g.name)
       << ";\n";
  }
  os << '\n';

  // Gates, grouped by task for annotation.
  const auto& part = design.tree.partition();
  auto emit_gate = [&](GateId id) {
    const Gate g = nl.gate(id);
    const std::string lhs = vname(g.name);
    switch (g.kind) {
      case GateKind::kInput:
        break;
      case GateKind::kOutput:
        os << "  assign " << lhs << " = " << vname(nl.gate(g.fanin[0]).name)
           << ";\n";
        break;
      case GateKind::kConst0: os << "  assign " << lhs << " = 1'b0;\n"; break;
      case GateKind::kConst1: os << "  assign " << lhs << " = 1'b1;\n"; break;
      case GateKind::kBuf:
        os << "  assign " << lhs << " = " << operand_list(nl, g, "") << ";\n";
        break;
      case GateKind::kNot:
        os << "  assign " << lhs << " = ~" << operand_list(nl, g, "") << ";\n";
        break;
      case GateKind::kAnd:
        os << "  assign " << lhs << " = " << operand_list(nl, g, " & ") << ";\n";
        break;
      case GateKind::kNand:
        os << "  assign " << lhs << " = ~(" << operand_list(nl, g, " & ") << ");\n";
        break;
      case GateKind::kOr:
        os << "  assign " << lhs << " = " << operand_list(nl, g, " | ") << ";\n";
        break;
      case GateKind::kNor:
        os << "  assign " << lhs << " = ~(" << operand_list(nl, g, " | ") << ");\n";
        break;
      case GateKind::kXor:
        os << "  assign " << lhs << " = " << operand_list(nl, g, " ^ ") << ";\n";
        break;
      case GateKind::kXnor:
        os << "  assign " << lhs << " = ~(" << operand_list(nl, g, " ^ ") << ");\n";
        break;
      case GateKind::kMux:
        os << "  assign " << lhs << " = " << vname(nl.gate(g.fanin[0]).name)
           << " ? " << vname(nl.gate(g.fanin[2]).name) << " : "
           << vname(nl.gate(g.fanin[1]).name) << ";\n";
        break;
      case GateKind::kDff:
        os << "  always @(posedge clk) " << lhs << " <= "
           << vname(nl.gate(g.fanin[0]).name) << ";\n";
        break;
    }
  };

  if (options.annotate_tasks) {
    for (TaskId t : design.tree.schedule()) {
      const TaskNode& node = design.tree.node(t);
      const bool commit = design.tree.annotation(t).has_nvm;
      os << "  // --- task " << node.label << " (level " << node.dict.level
         << ", " << node.gates.size() << " gates"
         << (commit ? ", NVM commit point" : "") << ") ---\n";
      for (GateId g : node.gates) emit_gate(g);
      if (commit) {
        // Shadow NVM registers for every boundary signal of the commit.
        int bit = 0;
        for (GateId g : node.gates) {
          bool external = false;
          for (GateId c : nl.gate(g).fanout) {
            if (part[c] != part[g]) { external = true; break; }
          }
          if (!external) continue;
          os << "  diac_nvreg nv_" << node.label << "_" << bit++ << " (.clk(clk), "
             << ".en(backup_en), .d(" << vname(nl.gate(g).name) << "));\n";
        }
      }
    }
    // Port and constant gates are never task members (TaskTree rejects
    // them); emit their drivers last so every referenced wire is assigned.
    for (GateId id : nl.all_ids()) {
      const GateKind k = nl.gate(id).kind;
      if (k == GateKind::kOutput || k == GateKind::kConst0 ||
          k == GateKind::kConst1) {
        emit_gate(id);
      }
    }
  } else {
    for (GateId id : nl.all_ids()) emit_gate(id);
  }

  os << "endmodule\n";
  return os.str();
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
           node.label + ": CDP " + std::to_string(units::as_ns(node.dict.delay)) +
               " ns exceeds clock " +
               std::to_string(units::as_ns(clock_period)) + " ns"});
    }
    const double scaled = design.scale * node.dict.energy();
    if (scaled > energy_budget) {
      report.violations.push_back(
          {Violation::Kind::kPowerBudget, id,
           node.label + ": task energy " + std::to_string(units::as_mJ(scaled)) +
               " mJ exceeds budget " +
               std::to_string(units::as_mJ(energy_budget)) + " mJ"});
    }
  }
  return report;
}

}  // namespace diac
