#include "netlist/bench_format.hpp"

#include <algorithm>
#include <cctype>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/lexer.hpp"

namespace diac {

namespace {

constexpr LexSpec kBench{"bench parse error at line ", "#", "()=,",
                         /*newlines=*/true, /*continuation=*/false};

// `word` equals the upper-case keyword `key`, ignoring case.
bool is_keyword(std::string_view word, std::string_view key) {
  const auto eq = [](unsigned char w, char k) { return std::toupper(w) == k; };
  return std::equal(word.begin(), word.end(), key.begin(), key.end(), eq);
}

GateKind function_kind(const Lexer& lex, std::string_view fn, int line) {
  static constexpr std::pair<std::string_view, GateKind> kFunctions[] = {
      {"BUF", GateKind::kBuf},       {"BUFF", GateKind::kBuf},
      {"NOT", GateKind::kNot},       {"INV", GateKind::kNot},
      {"AND", GateKind::kAnd},       {"NAND", GateKind::kNand},
      {"OR", GateKind::kOr},         {"NOR", GateKind::kNor},
      {"XOR", GateKind::kXor},       {"XNOR", GateKind::kXnor},
      {"MUX", GateKind::kMux},       {"DFF", GateKind::kDff},
      {"CONST0", GateKind::kConst0}, {"GND", GateKind::kConst0},
      {"CONST1", GateKind::kConst1}, {"VDD", GateKind::kConst1}};
  for (const auto& [name, kind] : kFunctions) {
    if (is_keyword(fn, name)) return kind;
  }
  lex.fail(line, "unknown function '" + std::string(fn) + "'");
}

// `name = KIND(operands[first, last))`, or a port: kind kInput, no operands.
struct Statement {
  std::string_view name;
  GateKind kind;
  std::size_t first, last;
  int line;
};

}  // namespace

Netlist parse_bench(std::string_view text, const std::string& name) {
  Lexer lex(text, kBench);
  std::vector<Statement> inputs, outputs, defs;
  std::vector<std::string_view> operands;
  int last_line = 1;  // of the last statement
  while (!lex.at_end()) {
    if (lex.accept("\n")) continue;
    const int line = last_line = lex.line();
    const std::string_view head = lex.word("a signal name or INPUT/OUTPUT");
    if (lex.accept("(")) {
      const bool input = is_keyword(head, "INPUT");
      if (!input && !is_keyword(head, "OUTPUT")) {
        lex.fail(line, "unknown declaration '" + std::string(head) + "'");
      }
      (input ? inputs : outputs)
          .push_back({lex.word("a port name"), GateKind::kInput, 0, 0, line});
      lex.expect(")");
    } else {
      lex.expect("=");
      const GateKind kind = function_kind(lex, lex.word("a function"), line);
      const std::size_t first = operands.size();
      lex.expect("(");
      if (!lex.accept(")")) {
        do operands.push_back(lex.word("an operand")); while (lex.accept(","));
        lex.expect(")");
      }
      defs.push_back({head, kind, first, operands.size(), line});
    }
    lex.end_line();
  }

  Netlist nl(name);
  // Signal name -> driver gate.  OUTPUT() ports become kOutput gates named
  // "<signal>$out" so the signal name itself stays bound to the driver.
  for (const auto* group : {&inputs, &defs}) {
    for (const auto& s : *group) {
      if (nl.contains(s.name)) {
        lex.fail(s.line,
                 "duplicate definition of '" + std::string(s.name) + "'");
      }
      nl.add(s.kind, s.name);
    }
  }
  std::vector<GateId> fanin;
  for (const auto& s : defs) {
    fanin.clear();
    for (std::size_t i = s.first; i < s.last; ++i) {
      fanin.push_back(nl.find(operands[i]));
      if (fanin.back() == kNullGate) {
        lex.fail(s.line,
                 "undefined signal '" + std::string(operands[i]) + "'");
      }
    }
    const auto [lo, hi] = arity(s.kind);
    const int n = static_cast<int>(fanin.size());
    if (n < lo || (hi >= 0 && n > hi)) {
      lex.fail(s.line,
               "wrong operand count for '" + std::string(s.name) + "'");
    }
    nl.set_fanin(nl.find(s.name), fanin);
  }
  for (const auto& s : outputs) {
    const std::string signal(s.name);
    const GateId src = nl.find(signal);
    if (src == kNullGate) {
      lex.fail(s.line, "OUTPUT(" + signal + ") has no driver");
    }
    if (nl.contains(signal + "$out")) {
      lex.fail(s.line, "duplicate OUTPUT(" + signal + ")");
    }
    nl.add(GateKind::kOutput, signal + "$out", {src});
  }
  try {
    nl.seal();  // the one check left: no combinational cycle
  } catch (const std::runtime_error& e) {
    lex.fail(last_line, e.what());
  }
  return nl;
}

void write_bench(std::ostream& out, const Netlist& nl) {
  out << "# " << nl.name() << " — written by diac\n";
  for (GateId id : nl.inputs()) out << "INPUT(" << nl.gate(id).name << ")\n";
  // Name the driver, not the "$out" port gate, so files round-trip.
  for (GateId id : nl.outputs()) {
    out << "OUTPUT(" << nl.gate_name(nl.fanin(id)[0]) << ")\n";
  }
  out << '\n';
  for (GateId id : nl.all_ids()) {
    const Gate g = nl.gate(id);
    if (g.kind == GateKind::kInput || g.kind == GateKind::kOutput) continue;
    out << g.name << " = ";
    switch (g.kind) {
      case GateKind::kConst0: out << "CONST0()"; break;
      case GateKind::kConst1: out << "CONST1()"; break;
      default: {
        out << to_string(g.kind) << '(';
        for (std::size_t i = 0; i < g.fanin.size(); ++i) {
          if (i) out << ", ";
          out << nl.gate(g.fanin[i]).name;
        }
        out << ')';
      }
    }
    out << '\n';
  }
}

std::string to_bench_string(const Netlist& nl) {
  std::ostringstream os;
  write_bench(os, nl);
  return os.str();
}

}  // namespace diac
