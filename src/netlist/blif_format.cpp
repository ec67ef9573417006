#include "netlist/blif_format.hpp"

#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace diac {

namespace {

[[noreturn]] void fail(int line, const std::string& what) {
  throw std::runtime_error("blif parse error at line " + std::to_string(line) +
                           ": " + what);
}

std::vector<std::string> tokens(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream ss(line);
  std::string tok;
  while (ss >> tok) out.push_back(tok);
  return out;
}

struct Cover {
  std::vector<std::string> signals;  // inputs..., output last
  std::vector<std::string> rows;     // "<mask> <val>" as raw tokens joined
  int line = 0;
};

// A port signal and the line that declared it.
struct Port {
  std::string name;
  int line = 0;
};

struct Latch {
  std::string input;
  std::string output;
  int line = 0;
};

}  // namespace

Netlist parse_blif(std::istream& in) {
  std::string model = "top";
  std::vector<Port> inputs;
  std::vector<Port> outputs;
  std::vector<Cover> covers;
  std::vector<Latch> latches;

  // --- tokenize into logical lines (handle '\' continuations, comments) ---
  std::string raw;
  int line_no = 0;
  Cover* open_cover = nullptr;
  bool in_model = false;
  bool done = false;

  while (!done && std::getline(in, raw)) {
    ++line_no;
    std::string line = raw;
    if (auto hash = line.find('#'); hash != std::string::npos) line.resize(hash);
    // Continuations.
    while (!line.empty() && line.back() == '\\') {
      line.pop_back();
      std::string next;
      if (!std::getline(in, next)) break;
      ++line_no;
      if (auto hash = next.find('#'); hash != std::string::npos) next.resize(hash);
      line += next;
    }
    const auto toks = tokens(line);
    if (toks.empty()) continue;

    const std::string& head = toks[0];
    if (head[0] == '.') open_cover = nullptr;

    if (head == ".model") {
      if (in_model) {
        done = true;  // only the first model
        continue;
      }
      in_model = true;
      if (toks.size() > 1) model = toks[1];
    } else if (head == ".inputs") {
      for (auto t = toks.begin() + 1; t != toks.end(); ++t) {
        inputs.push_back({*t, line_no});
      }
    } else if (head == ".outputs") {
      for (auto t = toks.begin() + 1; t != toks.end(); ++t) {
        outputs.push_back({*t, line_no});
      }
    } else if (head == ".names") {
      if (toks.size() < 2) fail(line_no, ".names needs at least an output");
      covers.push_back({{toks.begin() + 1, toks.end()}, {}, line_no});
      open_cover = &covers.back();
    } else if (head == ".latch") {
      if (toks.size() < 3) fail(line_no, ".latch needs input and output");
      latches.push_back({toks[1], toks[2], line_no});
    } else if (head == ".end") {
      done = true;
    } else if (head == ".exdc" || head == ".subckt" || head == ".gate" ||
               head == ".mlatch" || head == ".clock") {
      fail(line_no, "unsupported BLIF construct '" + head + "'");
    } else if (head[0] == '.') {
      // Ignore benign annotations (.default_input_arrival etc.).
      continue;
    } else {
      // Cover row.
      if (open_cover == nullptr) fail(line_no, "cover row outside .names");
      if (open_cover->signals.size() == 1) {
        // Constant: single token '1' or '0'.
        if (toks.size() != 1 || (toks[0] != "1" && toks[0] != "0")) {
          fail(line_no, "constant cover must be a single 0/1");
        }
        open_cover->rows.push_back(toks[0]);
      } else {
        if (toks.size() != 2) fail(line_no, "cover row must be <mask> <value>");
        if (toks[0].size() != open_cover->signals.size() - 1) {
          fail(line_no, "cover mask width mismatch");
        }
        open_cover->rows.push_back(toks[0] + " " + toks[1]);
      }
    }
  }

  // --- build the netlist ---------------------------------------------------
  Netlist nl(model);
  const auto declare = [&nl](GateKind kind, const std::string& name, int line) {
    if (nl.contains(name)) fail(line, "duplicate definition of '" + name + "'");
    nl.add(kind, name);
  };
  for (const auto& port : inputs) {
    declare(GateKind::kInput, port.name, port.line);
  }
  // Declare latch outputs first (they may be used before definition).
  for (const auto& l : latches) declare(GateKind::kDff, l.output, l.line);
  // Declare cover outputs (kBuf placeholders whose kind is finalized
  // during synthesis below, via set_fanin on a replacement gate).  To keep
  // ids stable we synthesize cover bodies after all outputs exist, using
  // auxiliary gates and a final BUF from body to the named signal.
  for (const auto& c : covers) {
    declare(GateKind::kBuf, c.signals.back(), c.line);
  }

  auto resolve = [&](const std::string& name, int line) {
    const GateId id = nl.find(name);
    if (id == kNullGate) fail(line, "undefined signal '" + name + "'");
    return id;
  };

  for (const auto& c : covers) {
    const GateId out = nl.find(c.signals.back());
    if (c.signals.size() == 1) {
      // Constant cover.
      const bool one = !c.rows.empty() && c.rows[0] == "1";
      const GateId k = nl.add(one ? GateKind::kConst1 : GateKind::kConst0);
      nl.set_fanin(out, {k});
      continue;
    }
    if (c.rows.empty()) {
      // Empty cover = constant 0 per BLIF semantics.
      const GateId k = nl.add(GateKind::kConst0);
      nl.set_fanin(out, {k});
      continue;
    }
    std::vector<GateId> ins;
    for (std::size_t i = 0; i + 1 < c.signals.size(); ++i) {
      ins.push_back(resolve(c.signals[i], c.line));
    }
    // Rows: AND of literals each; OR them; invert for off-set covers.
    bool off_set = false;
    std::vector<GateId> terms;
    for (const auto& row : c.rows) {
      const auto sp = row.find(' ');
      const std::string mask = row.substr(0, sp);
      const std::string val = row.substr(sp + 1);
      off_set = val == "0";
      std::vector<GateId> literals;
      for (std::size_t i = 0; i < mask.size(); ++i) {
        if (mask[i] == '1') {
          literals.push_back(ins[i]);
        } else if (mask[i] == '0') {
          literals.push_back(nl.add(GateKind::kNot, {ins[i]}));
        } else if (mask[i] != '-') {
          fail(c.line, "bad cover character '" + std::string(1, mask[i]) + "'");
        }
      }
      GateId term;
      if (literals.empty()) {
        term = nl.add(GateKind::kConst1);
      } else if (literals.size() == 1) {
        term = literals[0];
      } else {
        term = nl.add(GateKind::kAnd, std::move(literals));
      }
      terms.push_back(term);
    }
    GateId body = terms.size() == 1 ? terms[0]
                                    : nl.add(GateKind::kOr, std::move(terms));
    if (off_set) body = nl.add(GateKind::kNot, {body});
    nl.set_fanin(out, {body});
  }

  for (const auto& l : latches) {
    nl.set_fanin(resolve(l.output, l.line), {resolve(l.input, l.line)});
  }
  for (const auto& out : outputs) {
    const GateId src = nl.find(out.name);
    if (src == kNullGate) {
      throw std::runtime_error("blif parse error: .outputs signal '" +
                               out.name + "' has no driver");
    }
    const std::string port = out.name + "$out";
    if (nl.contains(port)) {
      fail(out.line, "duplicate .outputs signal '" + out.name + "'");
    }
    nl.add(GateKind::kOutput, port, {src});
  }
  nl.seal();
  return nl;
}

Netlist parse_blif_string(const std::string& text) {
  std::istringstream is(text);
  return parse_blif(is);
}

Netlist parse_blif_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open blif file: " + path);
  return parse_blif(f);
}

namespace {

// Emits one gate as a .names cover.
void write_cover(std::ostream& out, const Netlist& nl, const Gate& g) {
  auto sig = [&](GateId id) { return nl.gate(id).name; };
  const int n = g.fanin_count();
  out << ".names";
  for (GateId f : g.fanin) out << ' ' << sig(f);
  out << ' ' << g.name << '\n';
  auto all = [&](char c, char v) {
    out << std::string(static_cast<std::size_t>(n), c) << ' ' << v << '\n';
  };
  switch (g.kind) {
    case GateKind::kConst0: break;  // empty on-set == constant 0
    case GateKind::kConst1: out << "1\n"; break;
    case GateKind::kBuf: out << "1 1\n"; break;
    case GateKind::kNot: out << "0 1\n"; break;
    case GateKind::kAnd: all('1', '1'); break;
    case GateKind::kNand: all('1', '0'); break;
    case GateKind::kOr:
    case GateKind::kNor: {
      // One row per input with that input = 1.
      for (int i = 0; i < n; ++i) {
        std::string mask(static_cast<std::size_t>(n), '-');
        mask[static_cast<std::size_t>(i)] = '1';
        out << mask << ' ' << (g.kind == GateKind::kOr ? '1' : '0') << '\n';
      }
      break;
    }
    case GateKind::kXor:
    case GateKind::kXnor: {
      // Enumerate odd-parity rows (fan-in is small in practice).
      const int combos = 1 << n;
      for (int v = 0; v < combos; ++v) {
        int ones = 0;
        std::string mask;
        for (int i = 0; i < n; ++i) {
          const bool bit = (v >> i) & 1;
          ones += bit;
          mask += bit ? '1' : '0';
        }
        if (ones % 2 == 1) {
          out << mask << ' ' << (g.kind == GateKind::kXor ? '1' : '0') << '\n';
        }
      }
      break;
    }
    case GateKind::kMux:
      // fanin = {sel, a, b}: out = sel ? b : a.
      out << "01- 1\n";
      out << "1-1 1\n";
      break;
    default:
      throw std::logic_error("write_cover: unsupported kind");
  }
}

}  // namespace

void write_blif(std::ostream& out, const Netlist& nl) {
  out << ".model " << nl.name() << '\n';
  out << ".inputs";
  for (GateId id : nl.inputs()) out << ' ' << nl.gate(id).name;
  out << '\n';
  out << ".outputs";
  for (GateId id : nl.outputs()) {
    out << ' ' << nl.gate_name(nl.fanin(id)[0]);
  }
  out << '\n';
  for (GateId id : nl.dffs()) {
    const Gate g = nl.gate(id);
    out << ".latch " << nl.gate_name(g.fanin[0]) << ' ' << g.name
        << " 0\n";
  }
  for (GateId id : nl.all_ids()) {
    const Gate g = nl.gate(id);
    if (!is_combinational(g.kind) && g.kind != GateKind::kConst0 &&
        g.kind != GateKind::kConst1) {
      continue;
    }
    if (g.kind == GateKind::kConst0 || g.kind == GateKind::kConst1 ||
        is_combinational(g.kind)) {
      write_cover(out, nl, g);
    }
  }
  out << ".end\n";
}

std::string to_blif_string(const Netlist& nl) {
  std::ostringstream os;
  write_blif(os, nl);
  return os.str();
}

}  // namespace diac
