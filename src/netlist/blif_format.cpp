#include "netlist/blif_format.hpp"

#include <array>
#include <bit>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/lexer.hpp"

namespace diac {

namespace {

constexpr LexSpec kBlif{"blif parse error at line ", "#", "",
                        /*newlines=*/true, /*continuation=*/true};

// `.names` signals (inputs..., output last) and its rows' masks; a
// constant cover (output only) counts its rows and keeps no masks.
struct Cover {
  std::vector<Token> signals;
  std::vector<std::string_view> masks;
  std::size_t rows = 0;
  bool off_set = false;
};

// Adds cover row `row`: "<mask> <0|1>", or "<0|1>" for a constant.
void add_row(const Lexer& lex, Cover& c, std::span<const Token> row) {
  const int line = row[0].line;
  const std::size_t width = c.signals.size() - 1;
  if (row.size() != (width == 0 ? 1u : 2u)) {
    lex.fail(line, width == 0 ? "constant cover must be a single 0/1"
                              : "cover row must be <mask> <value>");
  }
  const std::string_view mask = width == 0 ? "" : row[0].text;
  const std::string_view value = row.back().text;
  if (mask.size() != width) lex.fail(line, "cover mask width mismatch");
  for (const char m : mask) {
    if (m != '0' && m != '1' && m != '-') {
      lex.fail(line, "bad cover character '" + std::string(1, m) + "'");
    }
  }
  if (value != "0" && value != "1") {
    lex.fail(line, "cover output must be 0 or 1, found '" +
                       std::string(value) + "'");
  }
  if (c.rows++ > 0 && (value == "0") != c.off_set) {
    lex.fail(line, "cover mixes on-set (1) and off-set (0) rows");
  }
  c.off_set = value == "0";
  if (width > 0) c.masks.push_back(mask);
}

}  // namespace

Netlist parse_blif(std::string_view text) {
  Lexer lex(text, kBlif);
  std::string_view model = "top";
  std::vector<Token> inputs, outputs, toks;
  std::vector<Cover> covers;
  std::vector<std::array<Token, 2>> latches;  // input, output
  bool cover_open = false, in_model = false;
  int end_line = 1;  // of the statement that ends the model
  while (!lex.at_end()) {
    toks.clear();
    while (!lex.at_eol()) toks.push_back(lex.next());
    lex.end_line();
    if (toks.empty()) continue;
    const std::string_view head = toks[0].text;
    const int line = end_line = toks[0].line;
    const std::span<const Token> args = std::span(toks).subspan(1);
    if (head[0] == '.') cover_open = false;

    if (head == ".model") {
      if (in_model) break;  // only the first model
      in_model = true;
      if (!args.empty()) model = args[0].text;
    } else if (head == ".inputs" || head == ".outputs") {
      auto& ports = head == ".inputs" ? inputs : outputs;
      ports.insert(ports.end(), args.begin(), args.end());
    } else if (head == ".names") {
      if (args.empty()) lex.fail(line, ".names needs at least an output");
      covers.push_back({{args.begin(), args.end()}, {}});
      cover_open = true;
    } else if (head == ".latch") {
      if (args.size() < 2) lex.fail(line, ".latch needs input and output");
      latches.push_back({args[0], args[1]});
    } else if (head == ".end") {
      break;
    } else if (head == ".exdc" || head == ".subckt" || head == ".gate" ||
               head == ".mlatch" || head == ".clock") {
      lex.fail(line, "unsupported BLIF construct '" + std::string(head) + "'");
    } else if (head[0] != '.') {  // other directives are annotations
      if (!cover_open) lex.fail(line, "cover row outside .names");
      add_row(lex, covers.back(), toks);
    }
  }

  Netlist nl{std::string(model)};
  const auto declare = [&](GateKind kind, std::string_view name, int line) {
    if (nl.contains(name)) {
      lex.fail(line, "duplicate definition of '" + std::string(name) + "'");
    }
    nl.add(kind, name);
  };
  const auto resolve = [&](std::string_view name, int line) {
    const GateId id = nl.find(name);
    if (id == kNullGate) {
      lex.fail(line, "undefined signal '" + std::string(name) + "'");
    }
    return id;
  };
  for (const Token& in : inputs) declare(GateKind::kInput, in.text, in.line);
  // Latch outputs, then cover outputs (kBuf placeholders, each wired to
  // its synthesized body below), so a signal may be used before its
  // definition.
  for (const auto& [in, q] : latches) declare(GateKind::kDff, q.text, q.line);
  for (const auto& c : covers) {
    declare(GateKind::kBuf, c.signals.back().text, c.signals.back().line);
  }

  // A constant or empty (= constant 0) cover drives a constant; otherwise
  // each row is an AND of literals, rows are OR-ed, and an off-set cover
  // is inverted.
  std::vector<GateId> ins, terms, literals;
  for (const auto& c : covers) {
    const GateId out = nl.find(c.signals.back().text);
    if (c.masks.empty()) {
      const bool one = c.rows > 0 && !c.off_set;
      nl.set_fanin(out, {nl.add(one ? GateKind::kConst1 : GateKind::kConst0)});
      continue;
    }
    ins.clear();
    for (std::size_t i = 0; i + 1 < c.signals.size(); ++i) {
      ins.push_back(resolve(c.signals[i].text, c.signals[i].line));
    }
    terms.clear();
    for (const std::string_view mask : c.masks) {
      literals.clear();
      for (std::size_t i = 0; i < mask.size(); ++i) {
        if (mask[i] == '1') literals.push_back(ins[i]);
        if (mask[i] == '0') {
          literals.push_back(nl.add(GateKind::kNot, {ins[i]}));
        }
      }
      if (literals.size() > 1) literals = {nl.add(GateKind::kAnd, literals)};
      terms.push_back(literals.empty() ? nl.add(GateKind::kConst1)
                                       : literals[0]);
    }
    GateId body = terms.size() == 1 ? terms[0] : nl.add(GateKind::kOr, terms);
    if (c.off_set) body = nl.add(GateKind::kNot, {body});
    nl.set_fanin(out, {body});
  }

  for (const auto& [in, q] : latches) {
    nl.set_fanin(resolve(q.text, q.line), {resolve(in.text, in.line)});
  }
  for (const Token& out : outputs) {
    const std::string signal(out.text);
    const GateId src = nl.find(signal);
    if (src == kNullGate) {
      lex.fail(out.line, ".outputs signal '" + signal + "' has no driver");
    }
    if (nl.contains(signal + "$out")) {
      lex.fail(out.line, "duplicate .outputs signal '" + signal + "'");
    }
    nl.add(GateKind::kOutput, signal + "$out", {src});
  }
  try {
    nl.seal();  // the one check left: no combinational cycle
  } catch (const std::runtime_error& e) {
    lex.fail(end_line, e.what());
  }
  return nl;
}

namespace {

// Emits one gate as a .names cover.
void write_cover(std::ostream& out, const Netlist& nl, const Gate& g) {
  const int n = g.fanin_count();
  out << ".names";
  for (GateId f : g.fanin) out << ' ' << nl.gate_name(f);
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
      for (unsigned v = 0; v < (1u << n); ++v) {
        if (std::popcount(v) % 2 == 0) continue;
        std::string mask;
        for (int i = 0; i < n; ++i) mask += (v >> i) & 1 ? '1' : '0';
        out << mask << ' ' << (g.kind == GateKind::kXor ? '1' : '0') << '\n';
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
  out << ".model " << nl.name() << "\n.inputs";
  for (GateId id : nl.inputs()) out << ' ' << nl.gate_name(id);
  out << "\n.outputs";
  for (GateId id : nl.outputs()) out << ' ' << nl.gate_name(nl.fanin(id)[0]);
  out << '\n';
  for (GateId id : nl.dffs()) {
    out << ".latch " << nl.gate_name(nl.fanin(id)[0]) << ' '
        << nl.gate_name(id) << " 0\n";
  }
  for (GateId id : nl.all_ids()) {
    const Gate g = nl.gate(id);
    if (is_combinational(g.kind) || g.kind == GateKind::kConst0 ||
        g.kind == GateKind::kConst1) {
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
