// The scalar AoS logic simulator: the golden reference the compiled SoA
// kernel (netlist/compiled_sim.hpp) is
// differentially tested against.  Test-only; no production path uses it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/compiled_sim.hpp"
#include "netlist/netlist.hpp"

namespace diac {

// The legacy AoS implementation: walks `Gate` structs in topological order
// and dispatches every gate through the scalar `eval_gate`.  Slow but
// simple; it is the golden reference for differential tests of the
// compiled kernel and is not used on any production hot path.
class ReferenceSimulator {
 public:
  explicit ReferenceSimulator(const Netlist& nl);

  void set_input(GateId input, Word value);
  void set_input(const std::string& name, Word value);
  void settle();
  void step();
  void run(int cycles);
  Word value(GateId gate) const;
  Word value(const std::string& name) const;
  std::vector<Word> state() const;
  void set_state(const std::vector<Word>& state);
  std::vector<Word> output_values() const;
  std::uint64_t fingerprint() const;
  const Netlist& netlist() const { return *nl_; }

 private:
  const Netlist* nl_;
  std::vector<GateId> order_;
  std::vector<Word> value_;
  std::vector<Word> dff_state_;  // indexed parallel to nl_->dffs()
  std::vector<GateId> dff_d_;    // precomputed D pin per DFF (no per-cycle
                                 // Gate-struct chasing in step())
  // dff_index_[gate] is that DFF's slot in dff_state_ (kNoDff elsewhere);
  // a dense GateId-indexed table, so lookups are branch-free and the class
  // carries no hash-ordered state.
  static constexpr std::size_t kNoDff = static_cast<std::size_t>(-1);
  std::vector<std::size_t> dff_index_;
};

// Evaluates one gate function over word operands.  `operands` must satisfy
// the kind's arity (callers validate; the netlist layer already enforces
// it structurally), so the evaluation loop is bounds-check-free.
Word eval_gate(GateKind kind, const std::vector<Word>& operands);

}  // namespace diac
