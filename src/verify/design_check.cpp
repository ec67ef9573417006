#include "verify/design_check.hpp"

#include "diac/codegen.hpp"
#include "netlist/verilog_format.hpp"

namespace diac::verify {

DrcReport run_design_drc(const IntermittentDesign& design,
                         const DrcOptions& options) {
  DrcReport report = run_drc(design.tree.netlist(), options);
  append_design_findings(design, report, options);
  return report;
}

void append_design_findings(const IntermittentDesign& design,
                            DrcReport& report, const DrcOptions& options) {
  if (!options.degenerate) return;
  // Design-level degeneracy: a commit point the replacement engine
  // inserted that persists nothing wastes a whole NVM write event.
  for (TaskId id : design.tree.nvm_points()) {
    if (design.boundary_bits(id) > 0) continue;
    DrcFinding f;
    f.rule = DrcRule::kDegenerate;
    f.severity = DrcSeverity::kWarning;
    f.gate = kNullGate;
    f.message = "NVM commit point at task '" + design.tree.node(id).label +
                "' persists zero bits";
    report.findings.push_back(std::move(f));
    ++report.warnings;
  }
}

RoundTripResult check_codegen_roundtrip(const IntermittentDesign& design,
                                        EquivalenceOptions options) {
  RoundTripResult rt;
  rt.verilog = generate_verilog(design);
  const VerilogModule module = parse_structural_verilog_string(rt.verilog);
  rt.gates_reimported = module.netlist.size();
  rt.nvreg_instances = module.instances.size();
  // The backend renames every signal, so names cannot match; both the
  // emitter and the parser preserve port declaration order.
  options.match_ports_by_order = true;
  rt.equivalence =
      check_equivalence(design.tree.netlist(), module.netlist, options);
  return rt;
}

}  // namespace diac::verify
