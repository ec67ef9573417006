// Netlist files: the one place that picks a reader by file extension.
#pragma once

#include <optional>
#include <string>

#include "netlist/netlist.hpp"

namespace diac {

// Reads the netlist file at `path`:
//   .bench  parse_bench, named after the file's basename, then cleanup;
//   .blif   parse_blif, named after its .model, then cleanup;
//   .v      parse_structural_verilog, as emitted (buffers kept); a module
//           named `top` takes `path` as its name.
// Returns std::nullopt for any other extension.  Throws std::runtime_error
// "cannot open <format> file: <path>" or "<format> parse error at line
// N: ...".
std::optional<Netlist> read_netlist_file(const std::string& path);

}  // namespace diac
