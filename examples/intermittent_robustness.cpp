// Example: functional robustness under power disruption (paper SIV.A,
// "First, we validate the robustness and functionalities of a DIAC-based
// design in the presence of power disruptions").
//
//   $ ./intermittent_robustness [benchmark] [failures]
//
// Runs a circuit on the gate-level logic simulator twice: once without
// interruptions (golden), once under randomly injected power failures with
// checkpoint/rollback recovery, and shows that the outputs agree bit for
// bit while reporting how much work was re-executed.
#include <chrono>
#include <cstdlib>
#include <iostream>

#include "netlist/compiled_sim.hpp"
#include "netlist/suite.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace diac;
  const std::string name = argc > 1 ? argv[1] : "s344";
  const int target_failures = argc > 2 ? std::atoi(argv[2]) : 12;

  const Netlist nl = build_benchmark(name);
  std::cout << "=== Intermittent robustness check: " << name << " ("
            << nl.logic_gate_count() << " gates, " << nl.dffs().size()
            << " DFFs) ===\n\n";

  const int cycles = 60;
  const int checkpoint_interval = 5;
  const std::uint64_t stimulus_seed = 0xD1AC;

  auto drive = [&](CompiledSimulator& sim, int cycle) {
    const auto inputs = nl.inputs();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      SplitMix64 rng(stimulus_seed ^ (i * 0x9E3779B97F4A7C15ULL) ^
                     static_cast<std::uint64_t>(cycle) * 0xBF58476D1CE4E5B9ULL);
      sim.set_input(inputs[i], rng.next());
    }
  };

  // Compile once, share across both simulators: the second construction
  // skips levelization/layout entirely and only allocates value buffers.
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  CompiledSimulator golden(nl);  // compiles privately
  const auto t1 = clock::now();
  CompiledSimulator intermittent(golden.compiled_ptr());  // shares the compile
  const auto t2 = clock::now();
  const auto us = [](auto d) {
    return std::chrono::duration_cast<std::chrono::microseconds>(d).count();
  };
  std::cout << "construction: compile+build " << us(t1 - t0)
            << " us, shared rebuild " << us(t2 - t1) << " us ("
            << Table::num(double(us(t1 - t0)) /
                              double(us(t2 - t1) > 0 ? us(t2 - t1) : 1),
                          1)
            << "x cheaper)\n\n";

  // Golden run.
  for (int c = 0; c < cycles; ++c) {
    drive(golden, c);
    golden.step();
  }
  drive(golden, cycles);
  golden.settle();

  // Intermittent run: inject failures; each rolls back to the last
  // checkpoint (cycle index + DFF state), exactly the runtime's recovery
  // semantics.
  SplitMix64 failures(0xFA11);
  int cycle = 0;
  int injected = 0;
  int reexecuted = 0;
  std::pair<int, std::vector<Word>> checkpoint{0, intermittent.state()};
  while (cycle < cycles) {
    if (injected < target_failures && failures.chance(0.18)) {
      ++injected;
      reexecuted += cycle - checkpoint.first;
      std::cout << "  power failure at cycle " << cycle
                << " -> rollback to checkpoint @" << checkpoint.first << "\n";
      intermittent.set_state(checkpoint.second);
      cycle = checkpoint.first;
      continue;
    }
    drive(intermittent, cycle);
    intermittent.step();
    ++cycle;
    if (cycle % checkpoint_interval == 0) {
      checkpoint = {cycle, intermittent.state()};
    }
  }
  drive(intermittent, cycles);
  intermittent.settle();

  const bool match = intermittent.fingerprint() == golden.fingerprint();
  std::cout << "\nfailures injected   : " << injected << "\n";
  std::cout << "cycles re-executed  : " << reexecuted << " (of " << cycles
            << " useful)\n";
  std::cout << "forward progress    : "
            << Table::num(double(cycles) / (cycles + reexecuted), 3) << "\n";
  std::cout << "outputs match golden: " << (match ? "YES" : "NO") << "\n";
  return match ? 0 : 1;
}
