#include <gtest/gtest.h>

#include <regex>
#include <string>

#include "netlist/blif_format.hpp"
#include "netlist/compiled_sim.hpp"
#include "netlist/generators.hpp"
#include "netlist/netlist_file.hpp"
#include "netlist/suite.hpp"
#include "seeded_mutants.hpp"

namespace diac {
namespace {

constexpr const char* kSmall = R"(
# small sequential BLIF
.model small
.inputs a b
.outputs y
.names a b w1
11 1
.names w1 q y
10 1
01 1
.latch w1 q 0
.end
)";

TEST(Blif, ParsesSmallModel) {
  const Netlist nl = parse_blif(kSmall);
  EXPECT_EQ(nl.name(), "small");
  EXPECT_EQ(nl.inputs().size(), 2u);
  EXPECT_EQ(nl.outputs().size(), 1u);
  EXPECT_EQ(nl.dffs().size(), 1u);
  EXPECT_NO_THROW(nl.validate());
}

TEST(Blif, CoverSemantics) {
  // y = a AND b through an on-set cover; functional check.
  const Netlist nl = parse_blif(
      ".model c\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n");
  CompiledSimulator sim(nl);
  sim.set_input(nl.find("a"), 0b1100);
  sim.set_input(nl.find("b"), 0b1010);
  sim.settle();
  const GateId y = nl.outputs()[0];
  EXPECT_EQ(sim.value(y) & 0xF, Word{0b1000});
}

TEST(Blif, DontCareColumns) {
  // y = a (b is don't-care).
  const Netlist nl = parse_blif(
      ".model c\n.inputs a b\n.outputs y\n.names a b y\n1- 1\n.end\n");
  CompiledSimulator sim(nl);
  sim.set_input(nl.find("a"), 0b10);
  sim.set_input(nl.find("b"), 0b01);
  sim.settle();
  EXPECT_EQ(sim.value(nl.outputs()[0]) & 0x3, Word{0b10});
}

TEST(Blif, OffSetCover) {
  // Cover rows with output 0: y = NOT(a AND b).
  const Netlist nl = parse_blif(
      ".model c\n.inputs a b\n.outputs y\n.names a b y\n11 0\n.end\n");
  CompiledSimulator sim(nl);
  sim.set_input(nl.find("a"), 0b11);
  sim.set_input(nl.find("b"), 0b01);
  sim.settle();
  EXPECT_EQ(sim.value(nl.outputs()[0]) & 0x3, Word{0b10});
}

TEST(Blif, ConstantCovers) {
  const Netlist nl = parse_blif(
      ".model c\n.inputs a\n.outputs x y\n.names x\n1\n.names y\n.end\n");
  CompiledSimulator sim(nl);
  sim.set_input(nl.find("a"), 0);
  sim.settle();
  EXPECT_EQ(sim.value(nl.find("x$out")), ~Word{0});
  EXPECT_EQ(sim.value(nl.find("y$out")), Word{0});
}

TEST(Blif, MultiRowOr) {
  // Two single-literal rows OR together: y = a | b.
  const Netlist nl = parse_blif(
      ".model c\n.inputs a b\n.outputs y\n.names a b y\n1- 1\n-1 1\n.end\n");
  CompiledSimulator sim(nl);
  sim.set_input(nl.find("a"), 0b0110);
  sim.set_input(nl.find("b"), 0b0011);
  sim.settle();
  EXPECT_EQ(sim.value(nl.outputs()[0]) & 0xF, Word{0b0111});
}

TEST(Blif, LatchFeedback) {
  // Toggle bit: q' = NOT q.
  const Netlist nl = parse_blif(
      ".model t\n.outputs q\n.names q d\n0 1\n.latch d q 0\n.end\n");
  CompiledSimulator sim(nl);
  sim.step();
  sim.settle();
  EXPECT_EQ(sim.value(nl.find("q")), ~Word{0});
}

TEST(Blif, LineContinuations) {
  const Netlist nl = parse_blif(
      ".model c\n.inputs a \\\nb\n.outputs y\n.names a b y\n11 1\n.end\n");
  EXPECT_EQ(nl.inputs().size(), 2u);
}

TEST(Blif, RejectsUnsupportedConstructs) {
  EXPECT_THROW(parse_blif(".model x\n.subckt foo a=b\n.end\n"),
               std::runtime_error);
  EXPECT_THROW(parse_blif(".model x\n.gate nand2 a=x\n.end\n"),
               std::runtime_error);
}

TEST(Blif, RejectsMalformedCovers) {
  EXPECT_THROW(
      parse_blif(".model x\n.inputs a\n.outputs y\n.names a y\n111 1\n.end\n"),
      std::runtime_error);  // mask wider than inputs
  EXPECT_THROW(parse_blif(".model x\n.inputs a\n11 1\n.end\n"),
               std::runtime_error);  // row outside .names
}

TEST(Blif, RejectsUndefinedAndDuplicate) {
  EXPECT_THROW(
      parse_blif(".model x\n.outputs y\n.names ghost y\n1 1\n.end\n"),
      std::runtime_error);
  EXPECT_THROW(parse_blif(".model x\n.inputs a\n.outputs y\n"
                                 ".names a y\n1 1\n.names a y\n0 1\n.end\n"),
               std::runtime_error);
}

TEST(Blif, ErrorsCarryLineNumbers) {
  try {
    parse_blif(".model x\n\n.subckt bad\n");
    FAIL();
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

// The message a parse of `text` throws ("" when it parses).
std::string parse_error(const std::string& text) {
  try {
    parse_blif(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Blif, CycleFailsAtTheEndOfTheModel) {
  const std::string want =
      "blif parse error at line 10: Netlist::validate: combinational cycle";
  EXPECT_EQ(parse_error(".model c\n.inputs a\n.outputs z\n.names q p\n0 1\n"
                        ".names a p q\n11 1\n.names q z\n1 1\n.end\n")
                .substr(0, want.size()),
            want);
}

TEST(Blif, DuplicateNamesCarryLineNumbers) {
  EXPECT_EQ(parse_error(".model d\n.inputs a\n.inputs a\n.outputs z\n"
                        ".names a z\n0 1\n.end\n"),
            "blif parse error at line 3: duplicate definition of 'a'");
  EXPECT_EQ(parse_error(".model d\n.inputs a b a\n.outputs z\n"
                        ".names a z\n0 1\n.end\n"),
            "blif parse error at line 2: duplicate definition of 'a'");
  EXPECT_EQ(parse_error(".model d\n.inputs a\n.outputs z\n.outputs z\n"
                        ".names a z\n0 1\n.end\n"),
            "blif parse error at line 4: duplicate .outputs signal 'z'");
  EXPECT_EQ(parse_error(".model d\n.inputs a\n.outputs q\n"
                        ".latch a q 0\n.latch a q 0\n.end\n"),
            "blif parse error at line 5: duplicate definition of 'q'");
  EXPECT_EQ(parse_error(".model d\n.inputs a\n.outputs a\n"
                        ".names a\n1\n.end\n"),
            "blif parse error at line 4: duplicate definition of 'a'");
}

TEST(Blif, CoverKeepsOnePolarity) {
  // "11 1" then "10 0" once built z = NOT(a) from the last row's polarity.
  EXPECT_EQ(parse_error(".model m\n.inputs a b\n.outputs z\n.names a b z\n"
                        "11 1\n10 0\n.end\n"),
            "blif parse error at line 6: cover mixes on-set (1) and off-set "
            "(0) rows");
  EXPECT_EQ(parse_error(".model m\n.outputs k\n.names k\n1\n0\n.end\n"),
            "blif parse error at line 5: cover mixes on-set (1) and off-set "
            "(0) rows");
}

TEST(Blif, CoverOutputIsZeroOrOne) {
  // "11 2" was once read as an on-set row.
  EXPECT_EQ(parse_error(".model m\n.inputs a b\n.outputs z\n.names a b z\n"
                        "11 2\n.end\n"),
            "blif parse error at line 5: cover output must be 0 or 1, "
            "found '2'");
  EXPECT_EQ(parse_error(".model m\n.inputs a b\n.outputs z\n.names a b z\n"
                        "1x 1\n.end\n"),
            "blif parse error at line 5: bad cover character 'x'");
}

TEST(Blif, UndrivenOutputNamesItsLine) {
  EXPECT_EQ(parse_error(".model m\n.inputs a\n.outputs z\n.end\n"),
            "blif parse error at line 3: .outputs signal 'z' has no driver");
}

TEST(Blif, WriterRoundTripsFunctionally) {
  // Emit a structurally rich circuit to BLIF, re-parse, and compare
  // behaviour on the logic simulator.
  const Netlist original = gen::alu_datapath("alu", 4, 3);
  const Netlist reparsed = parse_blif(to_blif_string(original));
  ASSERT_EQ(reparsed.inputs().size(), original.inputs().size());
  ASSERT_EQ(reparsed.outputs().size(), original.outputs().size());
  ASSERT_EQ(reparsed.dffs().size(), original.dffs().size());

  CompiledSimulator a(original), b(reparsed);
  SplitMix64 rng(77);
  for (int cycle = 0; cycle < 6; ++cycle) {
    for (std::size_t i = 0; i < original.inputs().size(); ++i) {
      const Word w = rng.next();
      a.set_input(original.inputs()[i], w);
      // Match by name (writer preserves input names).
      b.set_input(reparsed.find(original.gate(original.inputs()[i]).name), w);
    }
    a.step();
    b.step();
  }
  a.settle();
  b.settle();
  // Compare output values pairwise by driver name order.
  for (std::size_t i = 0; i < original.outputs().size(); ++i) {
    EXPECT_EQ(b.value(reparsed.outputs()[i]),
              a.value(original.outputs()[i]))
        << i;
  }
}

TEST(Blif, WriterRoundTripsBenchSuiteCircuit) {
  const Netlist original = gen::xor_cipher("ciph", 8, 2, 9);
  const Netlist reparsed = parse_blif(to_blif_string(original));
  CompiledSimulator a(original), b(reparsed);
  SplitMix64 rng(5);
  for (std::size_t i = 0; i < original.inputs().size(); ++i) {
    const Word w = rng.next();
    a.set_input(original.inputs()[i], w);
    b.set_input(reparsed.find(original.gate(original.inputs()[i]).name), w);
  }
  a.settle();
  b.settle();
  for (std::size_t i = 0; i < original.outputs().size(); ++i) {
    EXPECT_EQ(b.value(reparsed.outputs()[i]), a.value(original.outputs()[i]));
  }
}

TEST(Blif, MissingFileThrows) {
  EXPECT_THROW(read_netlist_file("/nonexistent.blif"), std::runtime_error);
}

// Seeded mutants of written text: every one parses or fails at a line of
// the text, never with another error or a crash.
TEST(Blif, SeededMutantsParseOrFailAtALine) {
  static const std::regex located("blif parse error at line ([0-9]+): .*");
  for (const char* circuit : {"s27", "s344"}) {
    const std::string text = to_blif_string(build_benchmark(circuit));
    const int parsed = parse_seeded_mutants(
        text, ".-01#\\", 0x5EED0000ULL + text.size(), 1000, located,
        [](const std::string& m) { parse_blif(m); });
    // Some mutants stay valid (a duplicated comment word); most must fail.
    EXPECT_GT(parsed, 0) << circuit;
    EXPECT_LT(parsed, 1000) << circuit;
  }
}

}  // namespace
}  // namespace diac
