#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <list>
#include <regex>
#include <set>
#include <sstream>
#include <utility>

#include "diac/codegen.hpp"
#include "diac/synthesizer.hpp"
#include "netlist/bench_format.hpp"
#include "netlist/suite.hpp"
#include "tree/tree_generator.hpp"

#ifndef DIAC_CLI_PATH
#error "DIAC_CLI_PATH must point at the diac CLI binary"
#endif

namespace diac {
namespace {

namespace fs = std::filesystem;

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
}

TEST(Codegen, ModuleNameIsTheSanitizedNetlistName) {
  for (const auto& [name, module] :
       {std::pair<std::string, std::string>{"a.b", "module a_b ("},
        {"9m", "module _m ("},
        {"top$1", "module top$1 ("}}) {
    Netlist nl = build_benchmark("s27");
    nl.set_name(name);
    const auto r = DiacSynthesizer(nl, lib()).synthesize();
    EXPECT_NE(generate_verilog(r.design).find(module), std::string::npos)
        << name;
  }
}

// The distinct words of the emitted text outside comments, split as the
// reader's lexer splits them; `1'b0`/`1'b1` are the only words that are
// not names.
std::set<std::string> emitted_names(const std::string& v) {
  static constexpr std::string_view kDelims = " \n(),;=~&|^?:@.<";
  std::set<std::string> names;
  std::size_t i = 0;
  while ((i = v.find_first_not_of(kDelims, i)) != std::string::npos) {
    const std::size_t end = std::min(v.find_first_of(kDelims, i), v.size());
    const std::string word = v.substr(i, end - i);
    if (word.starts_with("//")) {
      i = v.find('\n', i);
      continue;
    }
    if (word != "1'b0" && word != "1'b1") names.insert(word);
    i = end;
  }
  return names;
}

TEST(Codegen, SanitizesIdentifiers) {
  // Gate names such as "<signal>$out" keep their legal '$'; task labels
  // such as "F6.1" lose their '.' in the nvreg instance names.  Every
  // name is a Verilog-2001 simple identifier and every instance name is
  // unique, across the suite and every scheme.
  static const std::regex identifier("[A-Za-z_][A-Za-z0-9_$]*");
  static constexpr std::string_view kCell = "  diac_nvreg ";
  for (const BenchmarkSpec& spec : benchmark_suite()) {
    const Netlist nl = build_benchmark(spec);
    const DiacSynthesizer synth(nl, lib());
    const TaskTree tree = synth.transformed_tree();
    for (int s = 0; s < kSchemeCount; ++s) {
      const Scheme scheme = static_cast<Scheme>(s);
      const std::string v =
          generate_verilog(synth.synthesize_scheme(scheme, tree).design);
      for (const std::string& name : emitted_names(v)) {
        ASSERT_TRUE(std::regex_match(name, identifier))
            << spec.name << " " << to_string(scheme) << ": '" << name << "'";
      }
      std::set<std::string> instances;
      for (std::size_t at = v.find(kCell); at != std::string::npos;
           at = v.find(kCell, at + 1)) {
        const std::size_t name = at + kCell.size();
        const std::string inst = v.substr(name, v.find(' ', name) - name);
        ASSERT_TRUE(instances.insert(inst).second)
            << spec.name << " " << to_string(scheme) << ": " << inst;
      }
      EXPECT_EQ(instances.empty(), !uses_commit_points(scheme)) << spec.name;
    }
  }
}

TEST(Codegen, DffsEmitAlwaysBlocks) {
  const auto r = synth("s208");
  const std::string v = generate_verilog(r.design);
  if (r.design.tree.netlist().dffs().empty()) GTEST_SKIP();
  EXPECT_NE(v.find("always @(posedge clk)"), std::string::npos);
}

// --- the CLI's artifacts (DIAC_CLI_PATH, injected by CMake) ------------------

struct CliRun {
  int exit_code = -1;
  std::string out;
  std::string err;
};

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

CliRun run_cli(const std::string& args, const std::string& tag) {
  const fs::path out = fs::path(::testing::TempDir()) / (tag + ".out");
  const fs::path err = fs::path(::testing::TempDir()) / (tag + ".err");
  const std::string cmd = std::string(DIAC_CLI_PATH) + " " + args + " > " +
                          out.string() + " 2> " + err.string();
  const int status = std::system(cmd.c_str());
  CliRun run;
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  run.out = slurp(out);
  run.err = slurp(err);
  return run;
}

TEST(CodegenCli, SynthFailsOnAnUnwritableOut) {
  const std::string prefix =
      (fs::path(::testing::TempDir()) / "no_such_dir" / "x").string();
  const CliRun run = run_cli("synth s27 --out " + prefix, "cgcli_unwritable");
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_EQ(run.out.find("wrote"), std::string::npos) << run.out;
  EXPECT_EQ(run.err, "error: cannot write " + prefix + "_diac.v\n");
}

TEST(CodegenCli, DottedFileNameRoundTripsThroughSynthAndCheck) {
  const fs::path dir = fs::path(::testing::TempDir()) / "cgcli_dotted";
  fs::create_directories(dir);
  std::ofstream(dir / "a.b.bench") << to_bench_string(build_benchmark("s27"));
  const std::string prefix = (dir / "ab").string();
  const CliRun synth = run_cli(
      "synth " + (dir / "a.b.bench").string() + " --out " + prefix,
      "cgcli_dotted_synth");
  ASSERT_EQ(synth.exit_code, 0) << synth.err;
  const std::string v = slurp(prefix + "_diac.v");
  EXPECT_NE(v.find("\nmodule a_b (\n"), std::string::npos) << v;
  const CliRun check = run_cli("check " + prefix + "_diac.v", "cgcli_dotted_check");
  EXPECT_EQ(check.exit_code, 0) << check.out << check.err;
}

TEST(CodegenCli, ReservedWordFileNameRoundTripsThroughSynthAndCheck) {
  // A file named after a reserved word gives the module "wire_", which
  // the reader takes back; the bare "wire" it rejects at its line.
  const fs::path dir = fs::path(::testing::TempDir()) / "cgcli_keyword";
  fs::create_directories(dir);
  std::ofstream(dir / "wire.bench") << to_bench_string(build_benchmark("s27"));
  const std::string prefix = (dir / "wire").string();
  const CliRun synth = run_cli(
      "synth " + (dir / "wire.bench").string() + " --out " + prefix,
      "cgcli_keyword_synth");
  ASSERT_EQ(synth.exit_code, 0) << synth.err;
  const std::string v = slurp(prefix + "_diac.v");
  EXPECT_NE(v.find("\nmodule wire_ (\n"), std::string::npos) << v;
  const CliRun check =
      run_cli("check " + prefix + "_diac.v", "cgcli_keyword_check");
  EXPECT_EQ(check.exit_code, 0) << check.out << check.err;
  EXPECT_EQ(run_cli("check " + (dir / "wire.bench").string(),
                    "cgcli_keyword_check_bench")
                .exit_code,
            0);

  std::string bare = v;
  bare.replace(bare.find("\nmodule wire_ ("), 15, "\nmodule wire (");
  std::ofstream(dir / "bare.v") << bare;
  const CliRun rejected =
      run_cli("check " + (dir / "bare.v").string(), "cgcli_keyword_bare");
  EXPECT_EQ(rejected.exit_code, 1);
  EXPECT_NE(rejected.err.find("'wire' is a reserved word"), std::string::npos)
      << rejected.err;
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
