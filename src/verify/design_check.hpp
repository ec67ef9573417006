/// Design-level verification: post-synthesis DRC and the codegen
/// round-trip check.
///
/// `run_design_drc` applies the full netlist DRC (rules N1-N6, see
/// drc.hpp) to a synthesized `IntermittentDesign` and adds design-level
/// degeneracy findings (an NVM commit point that persists zero bits is
/// a planning bug the netlist rules cannot see).
///
/// `check_codegen_roundtrip` closes the emission loop: it emits the
/// design's Verilog with `generate_verilog`, re-imports the text with
/// `parse_structural_verilog_string`, and proves the re-imported
/// netlist functionally equivalent to the source netlist with
/// `check_equivalence`.  Ports are matched positionally because the
/// backend renames every signal (`w_` prefix + sanitization); port
/// *order* is preserved by both the emitter and the parser.  This is
/// the differential-test harness the multi-backend emission roadmap
/// item calls for — any future backend plugs into the same check.
// diac-lint: api-header
#pragma once

#include <cstddef>
#include <string>

#include "diac/design.hpp"
#include "verify/drc.hpp"
#include "verify/equivalence.hpp"

namespace diac::verify {

/// Full DRC over `design.tree.netlist()` plus design-level findings
/// (zero-bit commit points, reported as N6 warnings with no gate):
/// run_drc followed by append_design_findings.
DrcReport run_design_drc(const IntermittentDesign& design,
                         const DrcOptions& options = {});

/// Appends the design-level findings alone to `report`: one N6 warning
/// per zero-bit commit point, when `options.degenerate` is set.  A
/// caller that already holds run_drc's report of the design's netlist
/// completes it to run_design_drc's without a second netlist pass.
void append_design_findings(const IntermittentDesign& design,
                            DrcReport& report,
                            const DrcOptions& options = {});

/// Outcome of one emit -> re-import -> equivalence round trip.
struct RoundTripResult {
  std::string verilog;              ///< the emitted module text
  std::size_t gates_reimported = 0; ///< gate count of the parsed netlist
  std::size_t nvreg_instances = 0;  ///< diac_nvreg shadow cells seen
  EquivalenceResult equivalence;    ///< source vs re-imported verdict

  /// True iff the re-imported netlist is equivalent to the source.
  bool ok() const { return equivalence.equivalent(); }
};

/// Emits the design's Verilog, parses it back, and checks equivalence
/// against the source netlist (positional port matching is forced).
/// Throws only if emission or parsing itself fails — that is a codegen
/// bug, not a property to report.
RoundTripResult check_codegen_roundtrip(const IntermittentDesign& design,
                                        EquivalenceOptions options = {});

}  // namespace diac::verify
