// ISCAS-89 `.bench` format reader/writer.
//
// Grammar, one statement per line ('#' starts a comment; keywords and
// function names are case-insensitive; a name is any run of characters
// other than blanks and `( ) = , #`):
//   INPUT(a)
//   OUTPUT(z)
//   g1 = NAND(a, b)
//   q  = DFF(d)
// Supported functions: BUF/BUFF, NOT/INV, AND, NAND, OR, NOR, XOR, XNOR,
// MUX (3 operands: sel, a, b), DFF, plus CONST0/CONST1 (vdd/gnd aliases).
// Anything else on a line is an error: an unknown keyword (`INPUTX(a)`),
// trailing text, a blank inside a name, an empty port or operand.
//
// This lets users drop in the real ISCAS-89 / ITC-99 (bench-converted)
// circuit files; the repository's own experiments use the structural
// generators in `netlist/generators.hpp` sized to the paper's gate counts.
// `read_netlist_file` (netlist/netlist_file.hpp) reads `.bench` files.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "netlist/netlist.hpp"

namespace diac {

// Parses `.bench` text; throws std::runtime_error "bench parse error at
// line N: ..." on any syntax error, undefined signal, duplicate definition
// or undriven OUTPUT.
Netlist parse_bench(std::string_view text, const std::string& name = "top");

// Writes `.bench` text.  Round-trips with parse_bench (modulo formatting).
void write_bench(std::ostream& out, const Netlist& nl);
std::string to_bench_string(const Netlist& nl);

}  // namespace diac
