#include "netlist/verilog_format.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <sstream>
#include <stdexcept>

namespace diac {

namespace {

[[noreturn]] void fail(int line, const std::string& what) {
  throw std::runtime_error("verilog parse error at line " +
                           std::to_string(line) + ": " + what);
}

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return {};
  std::size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '$';
}

// Splits "a & b & c" on a single-character operator at paren depth 0.
std::vector<std::string> split_top(const std::string& expr, char op) {
  std::vector<std::string> parts;
  int depth = 0;
  std::string cur;
  for (char c : expr) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (c == op && depth == 0) {
      parts.push_back(trim(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  parts.push_back(trim(cur));
  return parts;
}

struct PendingAssign {
  std::string lhs;
  std::string expr;
  bool is_dff = false;
  int line = 0;
};

}  // namespace

VerilogModule parse_structural_verilog(std::istream& in) {
  // Read everything, strip // comments, then split into ';'-terminated
  // statements (module header handled separately).
  std::string text;
  {
    std::string raw;
    while (std::getline(in, raw)) {
      if (auto sl = raw.find("//"); sl != std::string::npos) raw.resize(sl);
      text += raw;
      text += '\n';
    }
  }

  auto line_of = [&text](std::size_t pos) {
    return 1 + static_cast<int>(std::count(text.begin(),
                                           text.begin() +
                                               static_cast<std::ptrdiff_t>(pos),
                                           '\n'));
  };

  const auto mod_pos = text.find("module");
  if (mod_pos == std::string::npos) fail(1, "no module");
  const auto open = text.find('(', mod_pos);
  const auto close = text.find(");", open);
  if (open == std::string::npos || close == std::string::npos) {
    fail(line_of(mod_pos), "malformed module header");
  }
  std::string mod_name =
      trim(text.substr(mod_pos + 6, open - mod_pos - 6));

  VerilogModule result;
  Netlist& nl = result.netlist;
  nl.set_name(mod_name);

  // Ports.
  std::vector<std::string> output_ports;
  {
    std::stringstream ports(text.substr(open + 1, close - open - 1));
    std::string port;
    while (std::getline(ports, port, ',')) {
      port = trim(port);
      const bool is_input = port.rfind("input", 0) == 0;
      const bool is_output = port.rfind("output", 0) == 0;
      if (!is_input && !is_output) fail(line_of(open), "bad port '" + port + "'");
      // Last identifier is the name.
      std::size_t e = port.size();
      while (e > 0 && !ident_char(port[e - 1])) --e;
      std::size_t b = e;
      while (b > 0 && ident_char(port[b - 1])) --b;
      const std::string name = port.substr(b, e - b);
      if (is_input) {
        if (name == "clk" || name == "backup_en") continue;  // control pins
        nl.add(GateKind::kInput, name);
      } else {
        output_ports.push_back(name);
      }
    }
  }

  // Statements after the header.
  std::string body = text.substr(close + 2);
  if (auto endm = body.rfind("endmodule"); endm != std::string::npos) {
    body.resize(endm);
  }
  const int body_line_base = line_of(close);

  std::vector<PendingAssign> assigns;
  std::vector<std::pair<std::string, int>> wires;  // (name, line)
  std::vector<std::pair<std::string, int>> regs;

  std::stringstream stmts(body);
  std::string stmt;
  int approx_line = body_line_base;
  while (std::getline(stmts, stmt, ';')) {
    approx_line += static_cast<int>(std::count(stmt.begin(), stmt.end(), '\n'));
    const std::string s = trim(stmt);
    if (s.empty()) continue;
    if (s.rfind("wire", 0) == 0) {
      wires.emplace_back(trim(s.substr(4)), approx_line);
    } else if (s.rfind("reg", 0) == 0) {
      regs.emplace_back(trim(s.substr(3)), approx_line);
    } else if (s.rfind("assign", 0) == 0) {
      const auto eq = s.find('=');
      if (eq == std::string::npos) fail(approx_line, "assign without '='");
      assigns.push_back({trim(s.substr(6, eq - 6)), trim(s.substr(eq + 1)),
                         false, approx_line});
    } else if (s.rfind("always", 0) == 0) {
      // always @(posedge clk) q <= d
      const auto arrow = s.find("<=");
      const auto paren = s.find(')');
      if (arrow == std::string::npos || paren == std::string::npos) {
        fail(approx_line, "unsupported always block");
      }
      assigns.push_back({trim(s.substr(paren + 1, arrow - paren - 1)),
                         trim(s.substr(arrow + 2)), true, approx_line});
    } else if (ident_char(s[0])) {
      // Cell instance: <cell> <inst> (.pin(sig), ...)
      VerilogModule::Instance inst;
      std::istringstream is(s);
      is >> inst.cell >> inst.name;
      std::size_t pos = 0;
      const std::string rest = s;
      while ((pos = rest.find(".", pos)) != std::string::npos) {
        const auto po = rest.find('(', pos);
        const auto pc = rest.find(')', po);
        if (po == std::string::npos || pc == std::string::npos) break;
        inst.pins.emplace_back(trim(rest.substr(pos + 1, po - pos - 1)),
                               trim(rest.substr(po + 1, pc - po - 1)));
        pos = pc;
      }
      // Strip the trailing " (" from the instance name if glued.
      if (auto p = inst.name.find('('); p != std::string::npos) {
        inst.name.resize(p);
      }
      result.instances.push_back(std::move(inst));
    } else {
      fail(approx_line, "unsupported statement '" + s.substr(0, 32) + "'");
    }
  }

  // Declare all assigned signals as gates (kind fixed up when wiring).
  for (const auto& a : assigns) {
    if (nl.contains(a.lhs)) fail(a.line, "duplicate driver for '" + a.lhs + "'");
    nl.add(a.is_dff ? GateKind::kDff : GateKind::kBuf, a.lhs);
  }

  auto resolve = [&](const std::string& name, int line) {
    const GateId id = nl.find(name);
    if (id == kNullGate) fail(line, "undefined signal '" + name + "'");
    return id;
  };

  // Wire the expressions.  The expression grammar is tiny: the generator
  // only emits flat operator chains, one optional leading ~, or a ternary.
  for (const auto& a : assigns) {
    const GateId lhs = nl.find(a.lhs);
    std::string e = a.expr;

    if (a.is_dff) {
      nl.set_fanin(lhs, {resolve(e, a.line)});
      continue;
    }
    // Constants.
    if (e == "1'b0" || e == "1'b1") {
      const GateId k = nl.add(e == "1'b1" ? GateKind::kConst1 : GateKind::kConst0);
      // Re-type the placeholder as BUF of the constant.
      nl.set_fanin(lhs, {k});
      continue;
    }
    // Ternary: sel ? x : y  ->  MUX(sel, y, x) (emit order: when1/when0).
    if (const auto q = e.find('?'); q != std::string::npos) {
      const auto c = e.find(':', q);
      if (c == std::string::npos) fail(a.line, "malformed ternary");
      const GateId sel = resolve(trim(e.substr(0, q)), a.line);
      const GateId when1 = resolve(trim(e.substr(q + 1, c - q - 1)), a.line);
      const GateId when0 = resolve(trim(e.substr(c + 1)), a.line);
      const GateId m = nl.add(GateKind::kMux, {sel, when0, when1});
      nl.set_fanin(lhs, {m});
      continue;
    }
    // Optional leading negation of a parenthesized chain.
    bool negated = false;
    if (!e.empty() && e[0] == '~' && e.size() > 1 && e[1] == '(') {
      negated = true;
      e = trim(e.substr(2, e.rfind(')') - 2));
    }
    GateKind pos_kind = GateKind::kBuf, neg_kind = GateKind::kNot;
    std::vector<std::string> parts;
    for (const auto& [op, pk, nk] :
         {std::tuple{'&', GateKind::kAnd, GateKind::kNand},
          std::tuple{'|', GateKind::kOr, GateKind::kNor},
          std::tuple{'^', GateKind::kXor, GateKind::kXnor}}) {
      auto split = split_top(e, op);
      if (split.size() > 1) {
        parts = std::move(split);
        pos_kind = pk;
        neg_kind = nk;
        break;
      }
    }
    if (parts.empty()) {
      // Single operand: x or ~x.
      if (!e.empty() && e[0] == '~') {
        const GateId n = nl.add(GateKind::kNot, {resolve(trim(e.substr(1)), a.line)});
        nl.set_fanin(lhs, {n});
      } else {
        nl.set_fanin(lhs, {resolve(e, a.line)});
      }
      continue;
    }
    std::vector<GateId> fanin;
    for (const auto& p : parts) fanin.push_back(resolve(p, a.line));
    const GateId g = nl.add(negated ? neg_kind : pos_kind, std::move(fanin));
    nl.set_fanin(lhs, {g});
  }

  // Output ports.
  for (const auto& name : output_ports) {
    const GateId src = nl.find(name);
    if (src == kNullGate) {
      throw std::runtime_error("verilog parse error: output '" + name +
                               "' has no driver");
    }
    nl.add(GateKind::kOutput, name + "$port", {src});
  }
  nl.seal();
  return result;
}

VerilogModule parse_structural_verilog_string(const std::string& text) {
  std::istringstream is(text);
  return parse_structural_verilog(is);
}

}  // namespace diac
