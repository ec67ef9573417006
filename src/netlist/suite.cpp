#include "netlist/suite.hpp"

#include <stdexcept>

#include "netlist/generators.hpp"

namespace diac {

const char* to_string(BenchmarkSuite suite) {
  switch (suite) {
    case BenchmarkSuite::kIscas89: return "ISCAS-89";
    case BenchmarkSuite::kItc99: return "ITC-99";
    case BenchmarkSuite::kMcnc: return "MCNC";
  }
  return "?";
}

const std::vector<BenchmarkSpec>& benchmark_suite() {
  static const std::vector<BenchmarkSpec> specs = {
      // --- ISCAS-89 (Fig. 5 columns 1-12) ---------------------------------
      {"s27", BenchmarkSuite::kIscas89, "Logic", 10, 0x1001},
      {"s208", BenchmarkSuite::kIscas89, "PLD", 119, 0x1002},
      {"s344", BenchmarkSuite::kIscas89, "4-bit Multiplier", 161, 0x1003},
      {"s349", BenchmarkSuite::kIscas89, "TLC", 164, 0x1004},
      {"s382", BenchmarkSuite::kIscas89, "Fractional Multiplier", 218, 0x1005},
      {"s386", BenchmarkSuite::kIscas89, "PLD", 193, 0x1006},
      {"s510", BenchmarkSuite::kIscas89, "Fractional Multiplier", 289, 0x1007},
      {"s820", BenchmarkSuite::kIscas89, "Logic", 446, 0x1008},
      {"s953", BenchmarkSuite::kIscas89, "Logic", 529, 0x1009},
      {"s1238", BenchmarkSuite::kIscas89, "Logic", 657, 0x100A},
      {"s13207", BenchmarkSuite::kIscas89, "Logic", 9772, 0x100B},
      {"s38417", BenchmarkSuite::kIscas89, "Logic", 19253, 0x100C},
      // --- ITC-99 (function classes match the b* documentation) ------------
      {"b02", BenchmarkSuite::kItc99, "BCD FSM", 22, 0x2001},
      {"b04", BenchmarkSuite::kItc99, "Elaborate CM", 861, 0x2002},
      {"b09", BenchmarkSuite::kItc99, "S-to-S Converter", 129, 0x2003},
      {"b10", BenchmarkSuite::kItc99, "Voting System", 155, 0x2004},
      {"b11", BenchmarkSuite::kItc99, "Scramble string", 437, 0x2005},
      {"b12", BenchmarkSuite::kItc99, "Guess a sequence", 904, 0x2006},
      {"b13", BenchmarkSuite::kItc99, "I/F to sensor", 266, 0x2007},
      {"b14", BenchmarkSuite::kItc99, "Viper processor", 4444, 0x2008},
      // --- MCNC -------------------------------------------------------------
      {"bigkey", BenchmarkSuite::kMcnc, "Key Encryption", 2383, 0x3001},
      {"dsip", BenchmarkSuite::kMcnc, "Bus Interface", 5763, 0x3002},
      {"des_core", BenchmarkSuite::kMcnc, "Encryption Circuit", 744, 0x3003},
      {"sbc", BenchmarkSuite::kMcnc, "Bus Controller", 490, 0x3004},
  };
  return specs;
}

std::vector<BenchmarkSpec> benchmarks_in(BenchmarkSuite suite) {
  std::vector<BenchmarkSpec> out;
  for (const auto& spec : benchmark_suite()) {
    if (spec.suite == suite) out.push_back(spec);
  }
  return out;
}

const BenchmarkSpec& benchmark_spec(const std::string& name) {
  for (const auto& spec : benchmark_suite()) {
    if (spec.name == name) return spec;
  }
  throw std::invalid_argument("benchmark_spec: unknown benchmark '" + name + "'");
}

namespace {

// Builds the function-class kernel sized comfortably below the target so
// grow_to can reach the exact count.
Netlist build_kernel(const BenchmarkSpec& spec, SplitMix64& rng) {
  using namespace gen;
  const std::size_t target = spec.gate_count;
  const std::string& cls = spec.function_class;

  if (cls == "Logic") {
    const int ins = target < 50 ? 4 : target < 1000 ? 16 : 48;
    const int outs = target < 50 ? 2 : target < 1000 ? 8 : 24;
    // random_logic grows to the target itself.
    return random_logic(spec.name, ins, outs, target, spec.seed);
  }
  if (cls == "PLD") {
    // Two-level planes sized to roughly half the target.
    const int ins = 10;
    const int terms = static_cast<int>(target / 8) + 2;
    const int outs = 6;
    return pld(spec.name, ins, terms, outs, spec.seed);
  }
  if (cls == "4-bit Multiplier") return array_multiplier(spec.name, 4);
  if (cls == "Fractional Multiplier") {
    // Fractional multipliers in the suite are slightly larger; a 4- or
    // 5-bit array kernel fits under both targets (218, 289).
    return array_multiplier(spec.name, target >= 280 ? 5 : 4);
  }
  if (cls == "TLC") return fsm_circuit(spec.name, 5, 4, 5, spec.seed);
  if (cls == "BCD FSM") return fsm_circuit(spec.name, 3, 2, 2, spec.seed);
  if (cls == "Guess a sequence") return fsm_circuit(spec.name, 10, 6, 6, spec.seed);
  if (cls == "I/F to sensor") return fsm_circuit(spec.name, 8, 6, 8, spec.seed);
  if (cls == "Elaborate CM") return comparator_tree(spec.name, 8, 4);
  if (cls == "S-to-S Converter") return serial_converter(spec.name, 8, spec.seed);
  if (cls == "Voting System") return majority_voter(spec.name, 9);
  if (cls == "Scramble string") return xor_cipher(spec.name, 16, 3, spec.seed);
  if (cls == "Key Encryption") return xor_cipher(spec.name, 32, 6, spec.seed);
  if (cls == "Encryption Circuit") return xor_cipher(spec.name, 16, 4, spec.seed);
  if (cls == "Viper processor") return alu_datapath(spec.name, 16, spec.seed);
  if (cls == "Bus Interface") return bus_controller(spec.name, 8, 32, spec.seed);
  if (cls == "Bus Controller") return bus_controller(spec.name, 4, 16, spec.seed);
  (void)rng;
  throw std::invalid_argument("build_kernel: unknown function class '" + cls + "'");
}

gen::GateMix mix_for(const std::string& cls) {
  using namespace gen;
  if (cls.find("Multiplier") != std::string::npos || cls == "Elaborate CM") {
    return mix_arithmetic();
  }
  if (cls.find("Encryption") != std::string::npos || cls == "Scramble string") {
    return mix_cipher();
  }
  if (cls == "Viper processor" || cls.find("Bus") != std::string::npos) {
    return mix_datapath();
  }
  if (cls.find("FSM") != std::string::npos || cls == "TLC" ||
      cls == "Guess a sequence" || cls == "I/F to sensor" ||
      cls == "Voting System" || cls == "S-to-S Converter") {
    return mix_control();
  }
  return mix_generic();
}

}  // namespace

Netlist build_benchmark(const BenchmarkSpec& spec) {
  SplitMix64 rng(spec.seed ^ 0xD1ACD1ACD1ACD1ACULL);
  Netlist nl = build_kernel(spec, rng);
  if (nl.logic_gate_count() != spec.gate_count) {
    gen::grow_to(nl, spec.gate_count, rng, mix_for(spec.function_class));
  }
  if (nl.logic_gate_count() != spec.gate_count) {
    throw std::logic_error("build_benchmark: '" + spec.name + "' has " +
                           std::to_string(nl.logic_gate_count()) +
                           " gates, expected " + std::to_string(spec.gate_count));
  }
  nl.seal();  // a no-op when the kernel or grow_to already sealed it
  return nl;
}

Netlist build_benchmark(const std::string& name) {
  return build_benchmark(benchmark_spec(name));
}

}  // namespace diac
