/// Netlist design-rule checking (DRC).
///
/// `run_drc` is the collect-all counterpart of `Netlist::validate()`: it
/// scans a netlist once and returns every violation as a typed finding
/// (rule id N1..N6, severity, offending gate, deterministic message)
/// instead of throwing on the first one.  `validate()` itself delegates
/// to this engine (structural rules only) so the two cannot drift.
///
/// Severities follow the same split diac-lint uses for code: *errors*
/// are structural facts that break downstream consumers (the compiled
/// kernel, codegen, equivalence checking) — invalid links (N1),
/// arity violations (N2), combinational cycles (N3), and post-sanitize
/// name collisions that would merge two Verilog wires (N5) — while
/// *warnings* flag suspicious-but-simulable shapes: unreachable logic
/// (N4), names codegen must rewrite (N5: `w_<name>` is not a Verilog
/// identifier), and constant-driven or DFF-of-DFF degeneracies (N6).  `DrcReport::clean()` and the
/// `diac check` exit code key on errors only.
///
/// Everything here is bit-deterministic: findings are emitted in
/// ascending (gate id, rule) order from ordered traversals only, so the
/// same netlist always produces the byte-identical report.
// diac-lint: api-header
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace diac::verify {

/// DRC rule identifiers (stable, printed as "N1".."N6").
enum class DrcRule : std::uint8_t {
  kLinks = 0,       ///< N1: out-of-range fanin id or an OUTPUT driving a gate
  kArity = 1,       ///< N2: fan-in count outside the GateKind's arity
  kCycle = 2,       ///< N3: combinational cycle (path through no DFF)
  kFloating = 3,    ///< N4: gate with no path to any output / unused input
  kNames = 4,       ///< N5: non-identifier or post-sanitize-colliding name
  kDegenerate = 5,  ///< N6: DFF-of-DFF / constant-input degeneracies
};

/// Number of DRC rules (for per-rule tallies).
inline constexpr int kDrcRuleCount = 6;

/// Stable rule id string ("N1".."N6").
const char* to_string(DrcRule rule);

/// One-line rule summary (the `--list-rules`-style description).
const char* rule_summary(DrcRule rule);

/// Finding severity: errors break downstream consumers, warnings flag
/// suspicious-but-simulable structure.
enum class DrcSeverity : std::uint8_t { kWarning = 0, kError = 1 };

/// "warning" / "error".
const char* to_string(DrcSeverity severity);

/// One violation: rule, severity, primary gate (kNullGate for
/// netlist-level findings) and a deterministic human-readable message.
struct DrcFinding {
  DrcRule rule = DrcRule::kLinks;               ///< which rule fired
  DrcSeverity severity = DrcSeverity::kError;   ///< error or warning
  GateId gate = kNullGate;                      ///< primary offending gate
  std::string gate_name;                        ///< its name ("" if none)
  std::string message;                          ///< what is wrong, exactly
};

/// Selects which rules `run_drc` evaluates (all by default).
/// `Netlist::validate()` runs only the structural subset (N1-N3).
struct DrcOptions {
  bool links = true;       ///< N1
  bool arity = true;       ///< N2
  bool cycles = true;      ///< N3
  bool floating = true;    ///< N4
  bool names = true;       ///< N5
  bool degenerate = true;  ///< N6

  /// The structural subset validate() throws on (N1-N3 only).
  static DrcOptions structural();
};

/// The collected findings of one DRC run, in ascending (gate, rule)
/// emission order (netlist-level findings last).
struct DrcReport {
  std::vector<DrcFinding> findings;  ///< all findings, deterministic order
  std::size_t errors = 0;            ///< count of kError findings
  std::size_t warnings = 0;          ///< count of kWarning findings

  /// True when no *error*-severity finding exists (warnings allowed).
  bool clean() const { return errors == 0; }

  /// First error-severity finding, or nullptr when clean().
  const DrcFinding* first_error() const;

  /// Number of findings (any severity) for `rule`.
  std::size_t count(DrcRule rule) const;
};

/// Runs the selected DRC rules over `nl` and collects every violation.
/// Never throws on netlist content (only on allocation failure); a
/// malformed netlist yields findings, not exceptions.  Reads only kinds,
/// names and fanins, so `nl` need not be sealed (seal() validates
/// through it).
DrcReport run_drc(const Netlist& nl, const DrcOptions& options = {});

/// Writes the report in the diac-lint style, one line per finding
/// (`<netlist>:<gate>: <severity>: [Nk] <message>`) plus a summary
/// line.  Byte-deterministic for a given netlist.
void write_drc_report(std::ostream& out, const DrcReport& report,
                      const std::string& netlist_name);

}  // namespace diac::verify
