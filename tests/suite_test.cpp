#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "netlist/compiled_sim.hpp"
#include "netlist/suite.hpp"

namespace diac {
namespace {

TEST(Suite, Has24Benchmarks) {
  EXPECT_EQ(benchmark_suite().size(), 24u);
}

TEST(Suite, GateCountsMatchPaperHeaderRow) {
  // The "# Gates" row of Fig. 5, in order.
  const std::vector<std::size_t> iscas = {10,  119, 161, 164,  218,  193,
                                          289, 446, 529, 657, 9772, 19253};
  const std::vector<std::size_t> itc = {22, 861, 129, 155, 437, 904, 266, 4444};
  const std::vector<std::size_t> mcnc = {2383, 5763, 744, 490};

  const auto in = [&](BenchmarkSuite s) {
    std::vector<std::size_t> out;
    for (const auto& spec : benchmarks_in(s)) out.push_back(spec.gate_count);
    return out;
  };
  EXPECT_EQ(in(BenchmarkSuite::kIscas89), iscas);
  EXPECT_EQ(in(BenchmarkSuite::kItc99), itc);
  EXPECT_EQ(in(BenchmarkSuite::kMcnc), mcnc);
}

TEST(Suite, NamesAreUnique) {
  std::set<std::string> names;
  for (const auto& spec : benchmark_suite()) names.insert(spec.name);
  EXPECT_EQ(names.size(), benchmark_suite().size());
}

TEST(Suite, SpecLookup) {
  const auto& spec = benchmark_spec("b14");
  EXPECT_EQ(spec.function_class, "Viper processor");
  EXPECT_EQ(spec.gate_count, 4444u);
  EXPECT_THROW(benchmark_spec("zzz"), std::invalid_argument);
}

TEST(Suite, FunctionClassesMatchPaper) {
  EXPECT_EQ(benchmark_spec("s27").function_class, "Logic");
  EXPECT_EQ(benchmark_spec("s344").function_class, "4-bit Multiplier");
  EXPECT_EQ(benchmark_spec("b02").function_class, "BCD FSM");
  EXPECT_EQ(benchmark_spec("b10").function_class, "Voting System");
  EXPECT_EQ(benchmark_spec("bigkey").function_class, "Key Encryption");
  EXPECT_EQ(benchmark_spec("sbc").function_class, "Bus Controller");
}

// Every benchmark builds at exactly the paper's gate count and validates.
class SuiteBuild : public ::testing::TestWithParam<std::string> {};

TEST_P(SuiteBuild, BuildsAtExactGateCount) {
  const auto& spec = benchmark_spec(GetParam());
  const Netlist nl = build_benchmark(spec);
  EXPECT_EQ(nl.logic_gate_count(), spec.gate_count);
  EXPECT_NO_THROW(nl.validate());
  EXPECT_GT(nl.inputs().size(), 0u);
  EXPECT_GT(nl.outputs().size(), 0u);
}

TEST_P(SuiteBuild, BuildIsDeterministic) {
  const auto& spec = benchmark_spec(GetParam());
  const Netlist a = build_benchmark(spec);
  const Netlist b = build_benchmark(spec);
  ASSERT_EQ(a.size(), b.size());
  for (GateId id = 0; id < a.size(); ++id) {
    ASSERT_EQ(a.gate(id).kind, b.gate(id).kind);
    ASSERT_TRUE(std::ranges::equal(a.fanin(id), b.fanin(id)));
  }
}

// Small/medium circuits (the large ones are covered once in
// BuildsAllLarge to keep test time bounded).
INSTANTIATE_TEST_SUITE_P(
    SmallAndMedium, SuiteBuild,
    ::testing::Values("s27", "s208", "s344", "s349", "s382", "s386", "s510",
                      "s820", "s953", "s1238", "b02", "b04", "b09", "b10",
                      "b11", "b12", "b13", "des_core", "sbc"),
    [](const auto& inf) { return inf.param; });

TEST(Suite, BuildsAllLarge) {
  for (const char* name : {"s13207", "s38417", "b14", "bigkey", "dsip"}) {
    const auto& spec = benchmark_spec(name);
    const Netlist nl = build_benchmark(spec);
    EXPECT_EQ(nl.logic_gate_count(), spec.gate_count) << name;
  }
}

TEST(Suite, BenchmarksAreSimulatable) {
  // Every circuit must run on the logic simulator (observability sanity).
  for (const char* name : {"s27", "s344", "b02", "b10", "sbc"}) {
    const Netlist nl = build_benchmark(name);
    CompiledSimulator sim(nl);
    for (GateId in : nl.inputs()) sim.set_input(in, 0x123456789ABCDEF0ULL);
    sim.run(3);
    sim.settle();
    SUCCEED();
  }
}

TEST(Suite, SuiteToString) {
  EXPECT_STREQ(to_string(BenchmarkSuite::kIscas89), "ISCAS-89");
  EXPECT_STREQ(to_string(BenchmarkSuite::kItc99), "ITC-99");
  EXPECT_STREQ(to_string(BenchmarkSuite::kMcnc), "MCNC");
}

}  // namespace
}  // namespace diac
