#include "netlist/verilog_format.hpp"

#include <stdexcept>
#include <tuple>

#include "util/lexer.hpp"

namespace diac {

namespace {

constexpr LexSpec kVerilog{"verilog parse error at line ", "//",
                           "(),;=~&|^?:@.<", /*newlines=*/false,
                           /*continuation=*/false};

// `lhs` driven by `kind` over operands[first, last): kDff for
// `always ... lhs <= d`, kBuf for a plain copy `assign lhs = x`, kConst0/1
// for `1'b0`/`1'b1`, any other kind for the gate the expression makes.
struct PendingAssign {
  std::string_view lhs;
  GateKind kind;
  std::size_t first, last;
  int line;
};

// Fails at `line` unless `name`, read at a name position, is an
// identifier.
void check_identifier(const Lexer& lex, int line, std::string_view name) {
  if (is_verilog_identifier(name)) return;
  lex.fail(line, "'" + std::string(name) + "' is " +
                     (is_verilog_keyword(name)
                          ? "a reserved word, not an identifier"
                          : "not a Verilog identifier"));
}

// A name position: the next word, which must be an identifier.
std::string_view identifier(Lexer& lex, std::string_view what) {
  const int line = lex.line();
  const std::string_view name = lex.word(what);
  check_identifier(lex, line, name);
  return name;
}

// `a OP b OP ...` after its first operand: appends the operands and
// returns the chain's gate kind, or its inverse when `negate` (a lone
// operand is a copy, kBuf, or kNot).
GateKind parse_chain(Lexer& lex, std::vector<std::string_view>& operands,
                     bool negate) {
  static constexpr std::tuple<std::string_view, GateKind, GateKind> kOps[] = {
      {"&", GateKind::kAnd, GateKind::kNand},
      {"|", GateKind::kOr, GateKind::kNor},
      {"^", GateKind::kXor, GateKind::kXnor}};
  for (const auto& [op, kind, inverse] : kOps) {
    if (!lex.at(op)) continue;
    while (lex.accept(op)) operands.push_back(identifier(lex, "an operand"));
    if (lex.at("&") || lex.at("|") || lex.at("^")) {
      lex.fail("mixed operators in one expression");
    }
    return negate ? inverse : kind;
  }
  return negate ? GateKind::kNot : GateKind::kBuf;
}

// The right-hand side of `assign lhs = ...;`, up to and including the ';'.
GateKind parse_expression(Lexer& lex,
                          std::vector<std::string_view>& operands) {
  GateKind kind;
  if (lex.accept("~")) {  // ~x or ~(chain)
    const bool group = lex.accept("(");
    operands.push_back(identifier(lex, "an operand"));
    kind = group ? parse_chain(lex, operands, true) : GateKind::kNot;
    if (group) lex.expect(")");
  } else if (lex.at("1'b0") || lex.at("1'b1")) {
    kind = lex.next().text == "1'b1" ? GateKind::kConst1 : GateKind::kConst0;
  } else {
    const std::string_view first = identifier(lex, "an expression");
    if (lex.accept("?")) {
      // sel ? x : y  ->  MUX(sel, y, x).
      const std::string_view when1 = identifier(lex, "an operand");
      lex.expect(":");
      const std::string_view when0 = identifier(lex, "an operand");
      operands.insert(operands.end(), {first, when0, when1});
      kind = GateKind::kMux;
    } else {
      operands.push_back(first);
      kind = parse_chain(lex, operands, false);
    }
  }
  lex.expect(";");
  return kind;
}

}  // namespace

VerilogModule parse_structural_verilog(std::string_view text) {
  Lexer lex(text, kVerilog);
  VerilogModule result;
  Netlist& nl = result.netlist;

  // Header: module <name> ( <direction> ... <name>, ... );
  lex.expect("module");
  nl.set_name(std::string(identifier(lex, "a module name")));
  lex.expect("(");
  std::vector<Token> outputs;
  if (!lex.at(")")) do {
    const int line = lex.line();
    const std::string_view dir = lex.word("a port direction");
    if (dir != "input" && dir != "output") {
      lex.fail(line, "bad port direction '" + std::string(dir) + "'");
    }
    // Type words (`wire`, `reg`) may come before the name, which is last.
    int name_line = lex.line();
    std::string_view name = lex.word("a port name");
    while (lex.at_word()) {
      if (!is_verilog_keyword(name)) check_identifier(lex, name_line, name);
      name_line = lex.line();
      name = lex.word("a port name");
    }
    check_identifier(lex, name_line, name);
    if (dir == "output") {
      outputs.push_back({name, line});
    } else if (name != "clk" && name != "backup_en") {  // control pins
      if (nl.contains(name)) {
        lex.fail(line, "duplicate port '" + std::string(name) + "'");
      }
      nl.add(GateKind::kInput, name);
    }
  } while (lex.accept(","));
  lex.expect(")");
  lex.expect(";");

  std::vector<PendingAssign> assigns;
  std::vector<std::string_view> operands;
  int end_line = lex.line();  // where the module as a whole fails
  while (!lex.accept("endmodule")) {
    const int line = lex.line();
    const std::string_view head = lex.word("a statement or 'endmodule'");
    if (head == "wire" || head == "reg") {
      do identifier(lex, "a signal name"); while (lex.accept(","));
      lex.expect(";");
    } else if (head == "assign") {
      const std::string_view lhs = identifier(lex, "a signal name");
      lex.expect("=");
      const std::size_t first = operands.size();
      const GateKind kind = parse_expression(lex, operands);
      assigns.push_back({lhs, kind, first, operands.size(), line});
    } else if (head == "always") {  // always @(posedge clk) q <= d;
      for (const char* t : {"@", "(", "posedge"}) lex.expect(t);
      identifier(lex, "a clock");
      lex.expect(")");
      const std::string_view lhs = identifier(lex, "a register name");
      lex.expect("<");
      lex.expect("=");
      operands.push_back(identifier(lex, "an operand"));
      lex.expect(";");
      assigns.push_back(
          {lhs, GateKind::kDff, operands.size() - 1, operands.size(), line});
    } else {
      // Cell instance: <cell> <inst> (.pin(sig), ...);
      check_identifier(lex, line, head);
      VerilogModule::Instance inst;
      inst.cell = head;
      inst.name = identifier(lex, "an instance name");
      lex.expect("(");
      if (!lex.at(")")) do {
        lex.expect(".");
        const std::string_view pin = identifier(lex, "a pin name");
        lex.expect("(");
        inst.pins.emplace_back(pin, identifier(lex, "a signal name"));
        lex.expect(")");
      } while (lex.accept(","));
      lex.expect(")");
      lex.expect(";");
      result.instances.push_back(std::move(inst));
    }
    end_line = lex.line();  // `endmodule`'s, once the loop ends
  }

  // Declare all assigned signals as gates (kind fixed up when wiring).
  for (const auto& a : assigns) {
    if (nl.contains(a.lhs)) {
      lex.fail(a.line, "duplicate driver for '" + std::string(a.lhs) + "'");
    }
    nl.add(a.kind == GateKind::kDff ? GateKind::kDff : GateKind::kBuf,
           a.lhs);
  }

  // Wire the expressions: a DFF's D pin or a copy drives `lhs` directly;
  // anything else adds its gate and `lhs` buffers it.
  std::vector<GateId> fanin;
  for (const auto& a : assigns) {
    fanin.clear();
    for (std::size_t i = a.first; i < a.last; ++i) {
      const GateId id = nl.find(operands[i]);
      if (id == kNullGate) {
        lex.fail(a.line,
                 "undefined signal '" + std::string(operands[i]) + "'");
      }
      fanin.push_back(id);
    }
    const GateId lhs = nl.find(a.lhs);
    if (a.kind == GateKind::kDff || a.kind == GateKind::kBuf) {
      nl.set_fanin(lhs, fanin);
    } else {
      nl.set_fanin(lhs, {nl.add(a.kind, fanin)});
    }
  }

  for (const Token& out : outputs) {
    const std::string name(out.text);
    const GateId src = nl.find(name);
    if (src == kNullGate || nl.contains(name + "$port")) {
      lex.fail(out.line, "output '" + name + "' " +
                             (src == kNullGate ? "has no driver" : "repeated"));
    }
    nl.add(GateKind::kOutput, name + "$port", {src});
  }
  try {
    nl.seal();  // the one check left: no combinational cycle
  } catch (const std::runtime_error& e) {
    lex.fail(end_line, e.what());
  }
  return result;
}

}  // namespace diac
