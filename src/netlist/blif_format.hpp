// Berkeley Logic Interchange Format (BLIF) reader/writer.
//
// BLIF is the interchange format of the MCNC benchmark distributions and
// of most academic synthesis tools (SIS, ABC, VTR), so supporting it lets
// users run DIAC on circuits straight out of those flows.  Supported
// subset (which covers the benchmark corpora):
//
//   .model <name>
//   .inputs a b c
//   .outputs x y
//   .names <in...> <out>      followed by single-output cover rows
//   .latch <in> <out> [<type> <ctrl>] [<init>]
//   .end
//
// '#' starts a comment and a '\' at the end of a line joins it with the
// next.  Cover rows use the PLA conventions: '1'/'0'/'-' input columns
// with a '1' (on-set) or '0' (off-set) output column; one cover uses one
// polarity, as the BLIF spec requires.  Covers are synthesized
// structurally: each on-set row becomes an AND of literals, rows are
// OR-ed; off-set covers get a final inverter.  Multi-model files read
// only the first model.  `.exdc`, `.subckt` and timing constructs are
// rejected with a clear error.  `read_netlist_file`
// (netlist/netlist_file.hpp) reads `.blif` files.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "netlist/netlist.hpp"

namespace diac {

// Parses BLIF text; throws std::runtime_error "blif parse error at line
// N: ..." on malformed input, unknown or undriven signals, or unsupported
// constructs.  The netlist is named after `.model`.
Netlist parse_blif(std::string_view text);

// Writes the netlist as BLIF (gates become .names covers; DFFs become
// .latch lines).  Round-trips with parse_blif modulo gate decomposition.
void write_blif(std::ostream& out, const Netlist& nl);
std::string to_blif_string(const Netlist& nl);

}  // namespace diac
