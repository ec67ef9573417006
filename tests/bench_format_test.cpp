#include <gtest/gtest.h>

#include <regex>
#include <string>

#include "netlist/bench_format.hpp"
#include "netlist/netlist_file.hpp"
#include "netlist/suite.hpp"
#include "seeded_mutants.hpp"

namespace diac {
namespace {

constexpr const char* kS27Like = R"(
# A small ISCAS-89-style circuit.
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)

G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
G17 = NOT(G11)
)";

TEST(BenchFormat, ParsesS27LikeCircuit) {
  const Netlist nl = parse_bench(kS27Like, "s27ish");
  EXPECT_EQ(nl.inputs().size(), 4u);
  EXPECT_EQ(nl.outputs().size(), 1u);
  EXPECT_EQ(nl.dffs().size(), 3u);
  EXPECT_EQ(nl.logic_gate_count(), 13u);  // 10 comb + 3 DFF
  EXPECT_NO_THROW(nl.validate());
}

TEST(BenchFormat, SupportsAllFunctions) {
  const Netlist nl = parse_bench(R"(
INPUT(a)
INPUT(b)
INPUT(s)
OUTPUT(z)
w1 = BUF(a)
w2 = NOT(a)
w3 = AND(a, b)
w4 = NAND(a, b)
w5 = OR(a, b)
w6 = NOR(a, b)
w7 = XOR(a, b)
w8 = XNOR(a, b)
w9 = MUX(s, w3, w5)
w10 = DFF(w9)
z = XOR(w10, w7)
)");
  EXPECT_EQ(nl.logic_gate_count(), 11u);
  EXPECT_NO_THROW(nl.validate());
}

TEST(BenchFormat, CaseInsensitiveKeywords) {
  const Netlist nl = parse_bench(
      "input(a)\ninput(b)\noutput(y)\ny = nand(a, b)\n");
  EXPECT_EQ(nl.logic_gate_count(), 1u);
}

TEST(BenchFormat, CommentsAndBlankLinesIgnored) {
  const Netlist nl = parse_bench(
      "# header\n\nINPUT(a)  # port\nOUTPUT(y)\n\ny = NOT(a) # invert\n");
  EXPECT_EQ(nl.logic_gate_count(), 1u);
}

TEST(BenchFormat, UndefinedSignalRejected) {
  EXPECT_THROW(parse_bench("INPUT(a)\ny = AND(a, ghost)\n"),
               std::runtime_error);
}

TEST(BenchFormat, DuplicateDefinitionRejected) {
  EXPECT_THROW(
      parse_bench("INPUT(a)\nx = NOT(a)\nx = BUF(a)\n"),
      std::runtime_error);
}

TEST(BenchFormat, UnknownFunctionRejected) {
  EXPECT_THROW(parse_bench("INPUT(a)\ny = FROB(a)\n"),
               std::runtime_error);
}

TEST(BenchFormat, UndrivenOutputRejected) {
  EXPECT_THROW(parse_bench("INPUT(a)\nOUTPUT(nothing)\n"),
               std::runtime_error);
}

TEST(BenchFormat, WrongOperandCountRejected) {
  EXPECT_THROW(parse_bench("INPUT(a)\ny = NOT(a, a)\n"),
               std::runtime_error);
}

TEST(BenchFormat, ErrorsCarryLineNumbers) {
  try {
    parse_bench("INPUT(a)\n\ny = FROB(a)\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

// The message a parse of `text` throws ("" when it parses).
std::string parse_error(const std::string& text) {
  try {
    parse_bench(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(BenchFormat, CycleFailsAtTheLastStatement) {
  const std::string want =
      "bench parse error at line 5: Netlist::validate: combinational cycle";
  EXPECT_EQ(parse_error("INPUT(a)\nOUTPUT(z)\np = NOT(q)\nq = AND(a, p)\n"
                        "z = BUF(q)\n\n")
                .substr(0, want.size()),
            want);
}

TEST(BenchFormat, DuplicateNamesCarryLineNumbers) {
  EXPECT_EQ(parse_error("INPUT(a)\nINPUT(a)\nOUTPUT(z)\nz = NOT(a)\n"),
            "bench parse error at line 2: duplicate definition of 'a'");
  EXPECT_EQ(parse_error("INPUT(a)\nOUTPUT(z)\n\nOUTPUT(z)\nz = NOT(a)\n"),
            "bench parse error at line 4: duplicate OUTPUT(z)");
  EXPECT_EQ(parse_error("INPUT(a)\nx = NOT(a)\nx = BUF(a)\n"),
            "bench parse error at line 3: duplicate definition of 'x'");
  EXPECT_EQ(parse_error("INPUT(a)\na = NOT(a)\n"),
            "bench parse error at line 2: duplicate definition of 'a'");
}

TEST(BenchFormat, MalformedLinesFailAtTheirLine) {
  // Each line here was once read without complaint (INPUTX as INPUT, the
  // trailing text dropped, "a b" one name, empty operands skipped).
  const struct {
    const char* text;
    int line;
  } kCases[] = {
      {"INPUT(a)\nINPUTX(b)\n", 2},
      {"INPUT(a) junk\n", 1},
      {"INPUT(a)\nOUTPUT(z)\nz = NOT(a) trailing\n", 3},
      {"INPUT(a b)\n", 1},
      {"INPUT(a)\nOUTPUT(z)\nz y = NOT(a)\n", 3},
      {"INPUT(a)\nINPUT(b)\n\nz = NOT(a b)\n", 4},
      {"INPUT(a)\n# note\nz = NOT(a,,)\n", 3},
      {"INPUT(a)\nz = AND(a,)\n", 2},
      {"INPUT()\n", 1},
  };
  for (const auto& c : kCases) {
    const std::string prefix =
        "bench parse error at line " + std::to_string(c.line) + ": ";
    EXPECT_EQ(parse_error(c.text).rfind(prefix, 0), 0u)
        << c.text << "-> " << parse_error(c.text);
  }
  EXPECT_EQ(parse_error("INPUT(a)\nINPUTX(b)\n"),
            "bench parse error at line 2: unknown declaration 'INPUTX'");
  EXPECT_EQ(parse_error("INPUT(a b)\n"),
            "bench parse error at line 1: expected ')', found 'b'");
}

TEST(BenchFormat, UndrivenOutputNamesItsLine) {
  EXPECT_EQ(parse_error("INPUT(a)\n\nOUTPUT(q)\nz = NOT(a)\n"),
            "bench parse error at line 3: OUTPUT(q) has no driver");
}

TEST(BenchFormat, RoundTripPreservesStructure) {
  const Netlist original = parse_bench(kS27Like, "rt");
  const std::string text = to_bench_string(original);
  const Netlist reparsed = parse_bench(text, "rt2");
  EXPECT_EQ(reparsed.inputs().size(), original.inputs().size());
  EXPECT_EQ(reparsed.outputs().size(), original.outputs().size());
  EXPECT_EQ(reparsed.dffs().size(), original.dffs().size());
  EXPECT_EQ(reparsed.logic_gate_count(), original.logic_gate_count());
}

TEST(BenchFormat, ForwardReferencesAllowed) {
  // DFF feedback requires using a signal before its definition.
  const Netlist nl = parse_bench(
      "OUTPUT(q)\nq = DFF(d)\nd = NOT(q)\n");
  EXPECT_EQ(nl.dffs().size(), 1u);
  EXPECT_NO_THROW(nl.validate());
}

TEST(BenchFormat, ConstantsSupported) {
  const Netlist nl = parse_bench(
      "INPUT(a)\nOUTPUT(y)\none = VDD()\ny = AND(a, one)\n");
  EXPECT_NO_THROW(nl.validate());
  EXPECT_EQ(nl.logic_gate_count(), 1u);  // constants are pseudo-cells
}

TEST(BenchFormat, MissingFileThrows) {
  EXPECT_THROW(read_netlist_file("/nonexistent/path.bench"),
               std::runtime_error);
}

// Seeded mutants of written text: every one parses or fails at a line of
// the text, never with another error or a crash.
TEST(BenchFormat, SeededMutantsParseOrFailAtALine) {
  static const std::regex located("bench parse error at line ([0-9]+): .*");
  for (const char* circuit : {"s27", "s344"}) {
    const std::string text = to_bench_string(build_benchmark(circuit));
    const int parsed = parse_seeded_mutants(
        text, "(),=#", 0x5EED0000ULL + text.size(), 1000, located,
        [](const std::string& m) { parse_bench(m); });
    // Some mutants stay valid (a duplicated comment word); most must fail.
    EXPECT_GT(parsed, 0) << circuit;
    EXPECT_LT(parsed, 1000) << circuit;
  }
}

}  // namespace
}  // namespace diac
