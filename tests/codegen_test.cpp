#include <gtest/gtest.h>

#include <list>

#include "diac/codegen.hpp"
#include "diac/synthesizer.hpp"
#include "netlist/suite.hpp"
#include "tree/tree_generator.hpp"

namespace diac {
namespace {

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::nominal_45nm();
  return l;
}

SynthesisResult synth(const std::string& name, Scheme scheme = Scheme::kDiac) {
  static std::list<Netlist> cache;
  cache.push_back(build_benchmark(name));
  return DiacSynthesizer(cache.back(), lib()).synthesize_scheme(scheme);
}

TEST(Codegen, EmitsModuleSkeleton) {
  const auto r = synth("s344");
  const std::string v = generate_verilog(r.design);
  EXPECT_NE(v.find("module s344"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
  EXPECT_NE(v.find("input wire clk"), std::string::npos);
  EXPECT_NE(v.find("input wire backup_en"), std::string::npos);
}

TEST(Codegen, DeclaresAllPorts) {
  const auto r = synth("s344");
  const Netlist& nl = r.design.tree.netlist();
  const std::string v = generate_verilog(r.design);
  for (GateId in : nl.inputs()) {
    EXPECT_NE(v.find("input wire w_" + std::string(nl.gate_name(in))), std::string::npos)
        << nl.gate(in).name;
  }
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(v.begin(), v.end(), '\n')) > nl.size(),
            true);
}

TEST(Codegen, EmitsNvRegsAtCommitPoints) {
  const auto r = synth("s1238");
  const std::string v = generate_verilog(r.design);
  EXPECT_NE(v.find("diac_nvreg"), std::string::npos);
  // The header records the commit-point count.
  EXPECT_NE(v.find("NVM commit points: " +
                   std::to_string(r.replacement.points.size())),
            std::string::npos);
}

TEST(Codegen, CheckpointSchemesHaveNoNvRegs) {
  const auto r = synth("s1238", Scheme::kNvBased);
  const std::string v = generate_verilog(r.design);
  EXPECT_EQ(v.find("diac_nvreg"), std::string::npos);
}

TEST(Codegen, TaskAnnotationsPresent) {
  const auto r = synth("s344");
  const std::string v = generate_verilog(r.design);
  EXPECT_NE(v.find("--- task F"), std::string::npos);
  CodegenOptions opt;
  opt.annotate_tasks = false;
  const std::string bare = generate_verilog(r.design, opt);
  EXPECT_EQ(bare.find("--- task F"), std::string::npos);
}

TEST(Codegen, ModuleNameOverride) {
  const auto r = synth("s344");
  CodegenOptions opt;
  opt.module_name = "custom_top";
  const std::string v = generate_verilog(r.design, opt);
  EXPECT_NE(v.find("module custom_top"), std::string::npos);
}

TEST(Codegen, SanitizesIdentifiers) {
  // Output ports carry a '$' suffix internally; Verilog identifiers must
  // not contain '$' after sanitization (we map to '_').
  const auto r = synth("s344");
  const std::string v = generate_verilog(r.design);
  EXPECT_EQ(v.find('$'), std::string::npos);
}

TEST(Codegen, DffsEmitAlwaysBlocks) {
  const auto r = synth("s208");
  const std::string v = generate_verilog(r.design);
  if (r.design.tree.netlist().dffs().empty()) GTEST_SKIP();
  EXPECT_NE(v.find("always @(posedge clk)"), std::string::npos);
}

// --- validation -------------------------------------------------------------

TEST(Validation, CleanDesignPasses) {
  const auto r = synth("s1238");
  const auto report = validate_design(r.design, 1.0 /* s: generous clock */,
                                      25.0e-3);
  EXPECT_TRUE(report.ok());
}

TEST(Validation, TimingViolationsDetected) {
  const auto r = synth("s1238");
  // An impossibly fast clock must flag every multi-gate task.
  const auto report = validate_design(r.design, 1.0e-12, 25.0e-3);
  EXPECT_FALSE(report.ok());
  bool has_timing = false;
  for (const auto& v : report.violations) {
    if (v.kind == Violation::Kind::kTiming) has_timing = true;
  }
  EXPECT_TRUE(has_timing);
}

TEST(Validation, PowerBudgetViolationsDetected) {
  const auto r = synth("s1238");
  // A budget below the smallest task energy flags everything.
  const auto report = validate_design(r.design, 1.0, 1.0e-9);
  EXPECT_FALSE(report.ok());
  bool has_power = false;
  for (const auto& v : report.violations) {
    if (v.kind == Violation::Kind::kPowerBudget) {
      has_power = true;
      EXPECT_NE(v.task, kNullTask);
      EXPECT_FALSE(v.message.empty());
    }
  }
  EXPECT_TRUE(has_power);
}

TEST(Validation, MessagesNameTheTask) {
  const auto r = synth("s344");
  const auto report = validate_design(r.design, 1.0e-12, 25.0e-3);
  ASSERT_FALSE(report.violations.empty());
  EXPECT_EQ(report.violations[0].message.find("F"), 0u);
}

}  // namespace
}  // namespace diac
