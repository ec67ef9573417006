#include "netlist/bench_format.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace diac {

namespace {

std::string upper(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  return s;
}

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return {};
  std::size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

[[noreturn]] void fail(int line, const std::string& what) {
  throw std::runtime_error("bench parse error at line " + std::to_string(line) +
                           ": " + what);
}

GateKind function_kind(const std::string& fn, int line) {
  const std::string f = upper(fn);
  if (f == "BUF" || f == "BUFF") return GateKind::kBuf;
  if (f == "NOT" || f == "INV") return GateKind::kNot;
  if (f == "AND") return GateKind::kAnd;
  if (f == "NAND") return GateKind::kNand;
  if (f == "OR") return GateKind::kOr;
  if (f == "NOR") return GateKind::kNor;
  if (f == "XOR") return GateKind::kXor;
  if (f == "XNOR") return GateKind::kXnor;
  if (f == "MUX") return GateKind::kMux;
  if (f == "DFF") return GateKind::kDff;
  if (f == "CONST0" || f == "GND") return GateKind::kConst0;
  if (f == "CONST1" || f == "VDD") return GateKind::kConst1;
  fail(line, "unknown function '" + fn + "'");
}

// A port declaration: signal name and the line it was declared on.
struct Port {
  std::string name;
  int line;
};

struct PendingGate {
  std::string name;
  GateKind kind;
  std::vector<std::string> operands;
  int line;
};

}  // namespace

Netlist parse_bench(std::istream& in, const std::string& name) {
  std::vector<Port> input_names;
  std::vector<Port> output_names;
  std::vector<PendingGate> defs;

  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    std::string line = raw;
    if (auto hash = line.find('#'); hash != std::string::npos) line.resize(hash);
    line = trim(line);
    if (line.empty()) continue;

    const std::string u = upper(line);
    auto parse_port = [&](std::size_t keyword_len) {
      const auto open = line.find('(', keyword_len);
      const auto close = line.rfind(')');
      if (open == std::string::npos || close == std::string::npos || close <= open) {
        fail(line_no, "malformed port declaration");
      }
      return trim(line.substr(open + 1, close - open - 1));
    };

    if (u.rfind("INPUT", 0) == 0 && line.find('=') == std::string::npos) {
      input_names.push_back({parse_port(5), line_no});
      continue;
    }
    if (u.rfind("OUTPUT", 0) == 0 && line.find('=') == std::string::npos) {
      output_names.push_back({parse_port(6), line_no});
      continue;
    }

    const auto eq = line.find('=');
    if (eq == std::string::npos) fail(line_no, "expected '=' in '" + raw + "'");
    const std::string lhs = trim(line.substr(0, eq));
    if (lhs.empty()) fail(line_no, "empty signal name");
    const std::string rhs = trim(line.substr(eq + 1));
    const auto open = rhs.find('(');
    const auto close = rhs.rfind(')');
    if (open == std::string::npos || close == std::string::npos || close < open) {
      fail(line_no, "malformed function application '" + rhs + "'");
    }
    PendingGate pg;
    pg.name = lhs;
    pg.kind = function_kind(trim(rhs.substr(0, open)), line_no);
    pg.line = line_no;
    std::string ops = rhs.substr(open + 1, close - open - 1);
    std::stringstream ss(ops);
    std::string op;
    while (std::getline(ss, op, ',')) {
      op = trim(op);
      if (!op.empty()) pg.operands.push_back(op);
    }
    defs.push_back(std::move(pg));
  }

  Netlist nl(name);
  // Signal name -> driver gate.  OUTPUT() ports become kOutput gates named
  // "<signal>$out" so the signal name itself stays bound to the driver.
  for (const auto& port : input_names) {
    if (nl.contains(port.name)) {
      fail(port.line, "duplicate definition of '" + port.name + "'");
    }
    nl.add(GateKind::kInput, port.name);
  }
  for (const auto& def : defs) {
    if (nl.contains(def.name)) fail(def.line, "duplicate definition of '" + def.name + "'");
    nl.add(def.kind, def.name);
  }
  // Resolve operands.
  for (const auto& def : defs) {
    std::vector<GateId> fanin;
    fanin.reserve(def.operands.size());
    for (const auto& op : def.operands) {
      const GateId src = nl.find(op);
      if (src == kNullGate) fail(def.line, "undefined signal '" + op + "'");
      fanin.push_back(src);
    }
    const auto [lo, hi] = arity(def.kind);
    const int n = static_cast<int>(fanin.size());
    if (n < lo || (hi >= 0 && n > hi)) {
      fail(def.line, "wrong operand count for '" + def.name + "'");
    }
    nl.set_fanin(nl.find(def.name), std::move(fanin));
  }
  for (const auto& out : output_names) {
    const GateId src = nl.find(out.name);
    if (src == kNullGate) {
      throw std::runtime_error("bench parse error: OUTPUT(" + out.name +
                               ") has no driver");
    }
    const std::string port = out.name + "$out";
    if (nl.contains(port)) {
      fail(out.line, "duplicate OUTPUT(" + out.name + ")");
    }
    nl.add(GateKind::kOutput, port, {src});
  }
  nl.seal();
  return nl;
}

Netlist parse_bench_string(const std::string& text, const std::string& name) {
  std::istringstream is(text);
  return parse_bench(is, name);
}

Netlist parse_bench_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open bench file: " + path);
  std::string name = path;
  if (auto slash = name.find_last_of('/'); slash != std::string::npos) {
    name = name.substr(slash + 1);
  }
  if (auto dot = name.find_last_of('.'); dot != std::string::npos) {
    name = name.substr(0, dot);
  }
  return parse_bench(f, name);
}

void write_bench(std::ostream& out, const Netlist& nl) {
  out << "# " << nl.name() << " — written by diac\n";
  for (GateId id : nl.inputs()) out << "INPUT(" << nl.gate(id).name << ")\n";
  for (GateId id : nl.outputs()) {
    const Gate g = nl.gate(id);
    // Strip the "$out" suffix the parser appends so files round-trip.
    const std::string_view sig = nl.gate_name(g.fanin[0]);
    out << "OUTPUT(" << sig << ")\n";
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
