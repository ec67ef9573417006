// Bit-parallel gate-level logic simulation.
//
// Evaluates 64 input patterns per step (one per bit lane).  Sequential
// circuits hold per-DFF state; `step()` performs one clock cycle
// (combinational settle, then DFF capture).  The intermittent-robustness
// property tests use this simulator as the golden functional reference: an
// execution interrupted by power failures and resumed from NVM backups must
// produce exactly the lanes a failure-free run produces.
//
// `LogicSimulator` is a thin wrapper over the compiled SoA kernel
// (netlist/compiled_sim.hpp) at batch 1; the compiled form can be shared
// across instances to pay levelization once.  The legacy AoS walker it is
// differentially tested against (`ReferenceSimulator`) lives with the
// tests, in tests/oracle/.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/compiled_sim.hpp"
#include "netlist/netlist.hpp"

namespace diac {

class LogicSimulator {
 public:
  // Compiles `nl` privately (equivalent to the classic constructor).
  explicit LogicSimulator(const Netlist& nl);

  // Shares an already-compiled form of `nl`; construction then only
  // allocates value/state buffers.  `compiled` must have been built from
  // `nl` (checked by size).
  LogicSimulator(const Netlist& nl,
                 std::shared_ptr<const CompiledNetlist> compiled);

  // Assigns an input pattern word (one bit per lane).
  void set_input(GateId input, Word value);
  void set_input(std::string_view name, Word value);

  // Combinational settle: recompute every gate value from inputs and the
  // current DFF state.
  void settle() { sim_.settle(); }

  // One clock edge: settle, then DFF state <- D values.
  void step() { sim_.step(); }

  // Runs `cycles` clock cycles.
  void run(int cycles) { sim_.run(cycles); }

  Word value(GateId gate) const { return sim_.value(gate); }
  Word value(std::string_view name) const;

  // Snapshot of the sequential state (one word per DFF, in dff order).
  std::vector<Word> state() const { return sim_.state(); }
  void set_state(const std::vector<Word>& state) { sim_.set_state(state); }

  // Output values in `outputs()` order; a compact functional fingerprint.
  std::vector<Word> output_values() const { return sim_.output_values(); }

  // Convenience: hash of the outputs (and state) for equality checks.
  std::uint64_t fingerprint() const { return sim_.fingerprint(); }

  const Netlist& netlist() const { return *nl_; }

  // The compiled form backing this simulator (shareable with further
  // instances over the same netlist).
  const std::shared_ptr<const CompiledNetlist>& compiled() const {
    return sim_.compiled_ptr();
  }

 private:
  const Netlist* nl_;
  CompiledSimulator sim_;  // batch of 1
};

}  // namespace diac
