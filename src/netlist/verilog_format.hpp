// Structural Verilog reader for the subset the DIAC code generator emits.
//
// Closing the loop: `generate_verilog` emits an NV-enhanced netlist; this
// parser reads it back so tests can prove the emitted HDL is functionally
// identical to the source netlist (gate-level simulation on both sides).
// Supported constructs ('//' starts a comment):
//
//   module <name> ( input wire a, output wire y, ... );
//   wire w;            reg q, r;
//   assign w = <expr>; // expr: 1'b0/1'b1, x, ~x, a OP b OP c,
//                      //       ~(a OP b...), s ? x : y   (OP in & | ^,
//                      //       one OP per chain)
//   always @(posedge clk) q <= d;
//   <cell> <inst> (.pin(sig), ...);   // e.g. diac_nvreg — recorded, not
//                                     // modelled (shadow NVM elements)
//   endmodule
//
// A port's name is the last word of its declaration.  `clk` and
// `backup_en` ports are control inputs of the generated wrapper and are
// dropped from the netlist's primary inputs.  Text after `endmodule` is
// ignored.  `read_netlist_file` (netlist/netlist_file.hpp) reads `.v`
// files.
#pragma once

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/netlist.hpp"

namespace diac {

// The Verilog-2001 reserved words (IEEE 1364-2001, Annex B), sorted.
inline constexpr std::string_view kVerilogKeywords[] = {
    "always", "and", "assign", "automatic", "begin", "buf", "bufif0",
    "bufif1", "case", "casex", "casez", "cell", "cmos", "config", "deassign",
    "default", "defparam", "design", "disable", "edge", "else", "end",
    "endcase", "endconfig", "endfunction", "endgenerate", "endmodule",
    "endprimitive", "endspecify", "endtable", "endtask", "event", "for",
    "force", "forever", "fork", "function", "generate", "genvar", "highz0",
    "highz1", "if", "ifnone", "incdir", "include", "initial", "inout",
    "input", "instance", "integer", "join", "large", "liblist", "library",
    "localparam", "macromodule", "medium", "module", "nand", "negedge",
    "nmos", "nor", "noshowcancelled", "not", "notif0", "notif1", "or",
    "output", "parameter", "pmos", "posedge", "primitive", "pull0", "pull1",
    "pulldown", "pullup", "pulsestyle_ondetect", "pulsestyle_onevent",
    "rcmos", "real", "realtime", "reg", "release", "repeat", "rnmos",
    "rpmos", "rtran", "rtranif0", "rtranif1", "scalared", "showcancelled",
    "signed", "small", "specify", "specparam", "strong0", "strong1",
    "supply0", "supply1", "table", "task", "time", "tran", "tranif0",
    "tranif1", "tri", "tri0", "tri1", "triand", "trior", "trireg",
    "unsigned", "use", "vectored", "wait", "wand", "weak0", "weak1", "while",
    "wire", "wor", "xnor", "xor"};
static_assert(std::ranges::is_sorted(kVerilogKeywords));

// True when `prefix` + `name` spells a reserved word.  Every reserved word
// is 2 to 19 characters of [a-z0-9_], so most names fail fast.
constexpr bool is_verilog_keyword(std::string_view name,
                                  std::string_view prefix = {}) {
  constexpr std::size_t kLongest = 19;  // "pulsestyle_ondetect"
  const std::size_t n = prefix.size() + name.size();
  if (n < 2 || n > kLongest) return false;
  const auto lower = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
  };
  if (!std::ranges::all_of(prefix, lower) || !std::ranges::all_of(name, lower)) {
    return false;
  }
  char buf[kLongest];
  std::ranges::copy(name, std::ranges::copy(prefix, buf).out);
  return std::ranges::binary_search(kVerilogKeywords,
                                    std::string_view(buf, n));
}

// The Verilog-2001 simple identifier [A-Za-z_][A-Za-z0-9_$]*, other than a
// reserved word: every name this reader accepts, the code generator
// (diac/codegen) writes and DRC rule N5 checks.  A name behind a `prefix`
// (codegen's "w_") may start with a digit or '$'.
constexpr bool is_identifier_char(char c, bool first) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         (!first && ((c >= '0' && c <= '9') || c == '$'));
}

constexpr bool is_verilog_identifier(std::string_view name,
                                     std::string_view prefix = {}) {
  for (std::size_t i = 0; i < name.size(); ++i) {
    if (!is_identifier_char(name[i], i == 0 && prefix.empty())) return false;
  }
  return !(name.empty() && prefix.empty()) &&
         !is_verilog_keyword(name, prefix);
}

// Appends `prefix` + `name` to `out` as an identifier: a legal name passes
// through unchanged, any other character becomes '_' (an empty one "_"),
// and a reserved word gains a trailing '_' ("wire" -> "wire_").
inline void append_verilog_identifier(std::string& out, std::string_view name,
                                      std::string_view prefix = {}) {
  const std::size_t begin = out.size();
  const std::size_t at = (out += prefix).size();
  out += name.empty() && prefix.empty() ? "_" : name;
  for (std::size_t i = at; i < out.size(); ++i) {
    if (!is_identifier_char(out[i], i == at && prefix.empty())) out[i] = '_';
  }
  if (is_verilog_keyword(std::string_view(out).substr(begin))) out += '_';
}

struct VerilogModule {
  Netlist netlist;
  // Instantiated leaf cells that are not gates (e.g. diac_nvreg shadow
  // registers): (cell type, instance name, connected signal names).
  struct Instance {
    std::string cell;
    std::string name;
    std::vector<std::pair<std::string, std::string>> pins;
  };
  std::vector<Instance> instances;
};

// Throws std::runtime_error "verilog parse error at line N: ..." on
// anything outside the supported subset, a name outside the identifier
// rule, an unknown signal or an undriven output, each at its line, and on
// a combinational cycle at the `endmodule` line.
VerilogModule parse_structural_verilog(std::string_view text);

}  // namespace diac
