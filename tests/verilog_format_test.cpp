#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <regex>
#include <string_view>
#include <vector>

#include "diac/codegen.hpp"
#include "diac/synthesizer.hpp"
#include "netlist/compiled_sim.hpp"
#include "netlist/suite.hpp"
#include "netlist/verilog_format.hpp"
#include "seeded_mutants.hpp"
#include "util/rng.hpp"

namespace diac {
namespace {

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::nominal_45nm();
  return l;
}

TEST(VerilogParse, MinimalModule) {
  const auto m = parse_structural_verilog(R"(
module tiny (
  input wire clk,
  input wire backup_en,
  input wire a,
  input wire b,
  output wire y
);
  wire w;
  assign w = a & b;
  assign y = ~w;
endmodule
)");
  EXPECT_EQ(m.netlist.name(), "tiny");
  EXPECT_EQ(m.netlist.inputs().size(), 2u);  // clk/backup_en dropped
  EXPECT_EQ(m.netlist.outputs().size(), 1u);
  CompiledSimulator sim(m.netlist);
  sim.set_input(m.netlist.find("a"), 0b11);
  sim.set_input(m.netlist.find("b"), 0b01);
  sim.settle();
  EXPECT_EQ(sim.value(m.netlist.outputs()[0]) & 0x3, Word{0b10});
}

TEST(VerilogParse, AllExpressionForms) {
  const auto m = parse_structural_verilog(R"(
module forms (
  input wire clk,
  input wire s,
  input wire a,
  input wire b,
  output wire y
);
  wire c0; wire c1; wire nb; wire andw; wire nandw; wire orw; wire norw;
  wire xorw; wire xnorw; wire muxw; reg q;
  assign c0 = 1'b0;
  assign c1 = 1'b1;
  assign nb = ~a;
  assign andw = a & b & c1;
  assign nandw = ~(a & b);
  assign orw = a | b | c0;
  assign norw = ~(a | b);
  assign xorw = a ^ b;
  assign xnorw = ~(a ^ b);
  assign muxw = s ? a : b;
  always @(posedge clk) q <= xorw;
  assign y = muxw ^ q;
endmodule
)");
  CompiledSimulator sim(m.netlist);
  // Truth spot-checks, lane-wise: s=0 selects b; s=1 selects a.
  sim.set_input(m.netlist.find("s"), 0b10);
  sim.set_input(m.netlist.find("a"), 0b11);
  sim.set_input(m.netlist.find("b"), 0b00);
  sim.settle();
  EXPECT_EQ(sim.value(m.netlist.find("muxw")) & 0x3, Word{0b10});
  EXPECT_EQ(sim.value(m.netlist.find("andw")) & 0x3, Word{0b00});   // a & b & 1
  EXPECT_EQ(sim.value(m.netlist.find("nandw")) & 0x3, Word{0b11});  // ~(a & b)
  EXPECT_EQ(sim.value(m.netlist.find("orw")) & 0x3, Word{0b11});    // a | b | 0
  EXPECT_EQ(sim.value(m.netlist.find("xnorw")) & 0x3, Word{0b00});  // ~(a ^ b), a=11 b=00
}

TEST(VerilogParse, RecordsInstances) {
  const auto m = parse_structural_verilog(R"(
module withnv (
  input wire clk,
  input wire backup_en,
  input wire a,
  output wire y
);
  wire w;
  assign w = ~a;
  diac_nvreg nv_0 (.clk(clk), .en(backup_en), .d(w));
  assign y = w;
endmodule
)");
  ASSERT_EQ(m.instances.size(), 1u);
  EXPECT_EQ(m.instances[0].cell, "diac_nvreg");
  ASSERT_EQ(m.instances[0].pins.size(), 3u);
  EXPECT_EQ(m.instances[0].pins[2].first, "d");
  EXPECT_EQ(m.instances[0].pins[2].second, "w");
}

TEST(VerilogParse, RejectsGarbage) {
  EXPECT_THROW(parse_structural_verilog("not verilog at all"),
               std::runtime_error);
  EXPECT_THROW(parse_structural_verilog(
                   "module m (input wire a, output wire y);\n"
                   "initial begin y = a; end\nendmodule\n"),
               std::runtime_error);
}

// The message a parse of `text` throws ("" when it parses).
std::string parse_error(const std::string& text) {
  try {
    parse_structural_verilog(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(VerilogParse, RejectsUnbalancedParentheses) {
  // `~(a & a` was once read as NAND(a, a).
  EXPECT_EQ(parse_error("module m (input wire a, output wire y);\n"
                        "  assign y = ~(a & a;\nendmodule\n"),
            "verilog parse error at line 2: expected ')', found ';'");
}

TEST(VerilogParse, ErrorsNameTheirExactLine) {
  EXPECT_EQ(parse_error("module m (\n  input wire a,\n  output wire y\n);\n"
                        "  // y is never assigned\nendmodule\n"),
            "verilog parse error at line 3: output 'y' has no driver");
  EXPECT_EQ(parse_error("module m (input wire a, output wire y);\n"
                        "  wire w;\n\n  assign w = a;\n"
                        "  assign y = w &\n    ghost;\nendmodule\n"),
            "verilog parse error at line 5: undefined signal 'ghost'");
  EXPECT_EQ(parse_error("module m (input wire a,\n  output wire y,\n"
                        "  output wire y);\n  assign y = a;\nendmodule\n"),
            "verilog parse error at line 3: output 'y' repeated");
  EXPECT_EQ(parse_error("module m (input wire a, output wire y);\n"
                        "  assign y = a & a | a;\nendmodule\n"),
            "verilog parse error at line 2: mixed operators in one "
            "expression");
  EXPECT_EQ(parse_error("module m (input wire a, output wire y);\n"
                        "  assign y = a;"),
            "verilog parse error at line 2: expected a statement or "
            "'endmodule', found end of file");
}

TEST(VerilogParse, RejectsNamesOutsideTheIdentifierRule) {
  const std::string head = "module m (input wire a, output wire y);\n";
  EXPECT_EQ(parse_error(head + "  assign y = a;\n"
                               "  diac_nvreg nv_F6.1_0 (.d(a));\nendmodule\n"),
            "verilog parse error at line 3: expected '(', found '.'");
  EXPECT_EQ(parse_error("// header\nmodule 9m (input wire a, output wire y);\n"
                        "  assign y = a;\nendmodule\n"),
            "verilog parse error at line 2: '9m' is not a Verilog identifier");
  EXPECT_EQ(parse_error(head + "  wire 1x;\n  assign y = a;\nendmodule\n"),
            "verilog parse error at line 2: '1x' is not a Verilog identifier");
  EXPECT_EQ(parse_error(head + "  assign y = a-b;\nendmodule\n"),
            "verilog parse error at line 2: 'a-b' is not a Verilog identifier");
  // '$' is legal after the first character, and a cycle fails at the
  // module's end.
  EXPECT_NO_THROW(parse_structural_verilog(
      "module m$1 (input wire a$, output wire y$out);\n"
      "  assign y$out = a$;\nendmodule\n"));
  EXPECT_EQ(parse_error(head + "  wire p, q;\n  assign p = ~q;\n"
                               "  assign q = a & p;\n  assign y = q;\n"
                               "endmodule\n")
                .substr(0, 63),
            "verilog parse error at line 6: Netlist::validate: combinational");
}

TEST(VerilogIdentifier, ReservedWordsAreNotIdentifiers) {
  for (std::string_view word : {"wire", "module", "and", "endmodule", "xor",
                                "pulsestyle_ondetect"}) {
    EXPECT_TRUE(is_verilog_keyword(word)) << word;
    EXPECT_FALSE(is_verilog_identifier(word)) << word;
    std::string out;
    append_verilog_identifier(out, word);
    EXPECT_EQ(out, std::string(word) + "_");
    EXPECT_TRUE(is_verilog_identifier(out)) << out;
  }
  // Case matters, and a prefix makes a new word.
  EXPECT_TRUE(is_verilog_identifier("Wire"));
  EXPECT_TRUE(is_verilog_identifier("wire", "w_"));
  EXPECT_FALSE(is_verilog_identifier("re", "wi"));
  std::string out = "x ";
  append_verilog_identifier(out, "re", "wi");
  EXPECT_EQ(out, "x wire_");
  out.clear();
  append_verilog_identifier(out, "wire", "w_");
  EXPECT_EQ(out, "w_wire");
}

TEST(VerilogParse, RejectsReservedWordsAtNamePositions) {
  const std::string head = "module m (input wire a, output wire y);\n";
  EXPECT_EQ(parse_error("module wire (input wire a, output wire y);\n"
                        "  assign y = a;\nendmodule\n"),
            "verilog parse error at line 1: 'wire' is a reserved word, not "
            "an identifier");
  EXPECT_EQ(parse_error("module m (\n  input wire a,\n  output wire or\n);\n"
                        "  assign y = a;\nendmodule\n"),
            "verilog parse error at line 3: 'or' is a reserved word, not an "
            "identifier");
  EXPECT_EQ(parse_error(head + "  wire reg;\n  assign y = a;\nendmodule\n"),
            "verilog parse error at line 2: 'reg' is a reserved word, not an "
            "identifier");
  EXPECT_EQ(parse_error(head + "  assign y = a & and;\nendmodule\n"),
            "verilog parse error at line 2: 'and' is a reserved word, not an "
            "identifier");
  EXPECT_EQ(parse_error(head + "  assign y = a;\n  initial y = a;\nendmodule\n"),
            "verilog parse error at line 3: 'initial' is a reserved word, not "
            "an identifier");
  EXPECT_EQ(parse_error(head + "  diac_nvreg begin (.d(a));\n"
                               "  assign y = a;\nendmodule\n"),
            "verilog parse error at line 2: 'begin' is a reserved word, not an "
            "identifier");
  // Type words before a port's name stay legal.
  EXPECT_NO_THROW(parse_structural_verilog(
      "module m (input wire a, output reg y);\n  assign y = a;\nendmodule\n"));
}

// Seeded mutants of emitted text: every one parses or fails at a line of
// the text, never with another error or a crash.
TEST(VerilogParse, SeededMutantsParseOrFailAtALine) {
  static const std::regex located("verilog parse error at line ([0-9]+): .*");
  for (const char* circuit : {"s27", "s344"}) {
    const Netlist nl = build_benchmark(circuit);
    const std::string text = generate_verilog(
        DiacSynthesizer(nl, lib()).synthesize_scheme(Scheme::kDiac).design);
    const int parsed = parse_seeded_mutants(
        text, "$.", 0x5EED0000ULL + text.size(), 1000, located,
        [](const std::string& m) { parse_structural_verilog(m); });
    // Some mutants stay valid (a duplicated comment word, a renamed
    // instance); most must fail.
    EXPECT_GT(parsed, 0) << circuit;
    EXPECT_LT(parsed, 1000) << circuit;
  }
}

// The integration property: generated Verilog is functionally identical
// to the source netlist.
class CodegenRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(CodegenRoundTrip, EmittedVerilogMatchesNetlist) {
  static std::list<Netlist> cache;
  cache.push_back(build_benchmark(GetParam()));
  const Netlist& original = cache.back();
  DiacSynthesizer synth(original, lib());
  const auto r = synth.synthesize();
  const auto m = parse_structural_verilog(generate_verilog(r.design));
  const Netlist& reparsed = m.netlist;

  ASSERT_EQ(reparsed.inputs().size(), original.inputs().size());
  ASSERT_EQ(reparsed.outputs().size(), original.outputs().size());
  ASSERT_EQ(reparsed.dffs().size(), original.dffs().size());
  // Commit points materialize as diac_nvreg shadow instances.
  EXPECT_FALSE(m.instances.empty());

  CompiledSimulator sa(original), sb(reparsed);
  SplitMix64 rng(0xC0DE);
  for (int cycle = 0; cycle < 6; ++cycle) {
    for (std::size_t i = 0; i < original.inputs().size(); ++i) {
      const Word w = rng.next();
      sa.set_input(original.inputs()[i], w);
      sb.set_input(reparsed.inputs()[i], w);  // port order preserved
    }
    sa.step();
    sb.step();
    sa.settle();
    sb.settle();
    for (std::size_t i = 0; i < original.outputs().size(); ++i) {
      ASSERT_EQ(sb.value(reparsed.outputs()[i]), sa.value(original.outputs()[i]))
          << GetParam() << " cycle " << cycle << " output " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Suite, CodegenRoundTrip,
                         ::testing::Values("s27", "s208", "s344", "s382",
                                           "b02", "b09", "b10", "sbc"),
                         [](const auto& inf) { return inf.param; });

}  // namespace
}  // namespace diac
