/// Compiled structure-of-arrays logic-simulation kernel.
///
/// `CompiledNetlist` lowers a sealed `Netlist` once into flat,
/// cache-friendly arrays — a dense `GateKind` byte array, the netlist's
/// own CSR fanin connectivity (`uint32_t` offsets into one contiguous
/// `GateId` array, copied as is), a levelized
/// evaluation schedule of packed `SimNode` records, and precomputed DFF
/// D-pin / port index tables.  No strings and no per-gate heap blocks
/// appear anywhere on the evaluation path, and the whole object is
/// immutable after construction, so one instance is shareable `const`
/// across any number of simulators (and threads).
///
/// On top of that IR the compiler emits a uniform *lowered plan*: every
/// gate shape is specialized once, at compile time, into its minimal
/// AND-literal recipe (`AndStep`) — 1-input NOT/BUF become free edge
/// complements/aliases, the dominant 2-input AND/NAND/OR/NOR take one
/// step, XOR/XNOR/MUX take three, and N-input reducers chain N-1 — so
/// the evaluation loop is dispatch-free and branch-predictable even on
/// netlists thousands of levels deep.
///
/// `CompiledSimulator` evaluates the plan with multi-word pattern
/// batching: `B` words are evaluated per step, so one plan traversal
/// amortizes over `64 x B` independent patterns.  Results are
/// bit-identical to the scalar reference simulator (`ReferenceSimulator`,
/// a test-only oracle) for every word — see docs/ARCHITECTURE.md,
/// "The compiled simulation kernel".
// diac-lint: api-header
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace diac {

/// One machine word = 64 parallel simulation lanes (one pattern per bit).
using Word = std::uint64_t;

/// Shape-specialized evaluation opcode.  The dominant 1-input, 2-input and
/// 3-input (MUX) forms get dedicated kernels; `k*N` are the generic
/// reducer fallbacks for wider gates.  Constants and INPUT/DFF slots are
/// not scheduled (they are preset / copied from state), so no opcode
/// exists for them.
enum class SimOp : std::uint8_t {
  kBuf1,   ///< out = a            (BUF and OUTPUT ports)
  kNot1,   ///< out = ~a
  kAnd2,   ///< out = a & b
  kNand2,  ///< out = ~(a & b)
  kOr2,    ///< out = a | b
  kNor2,   ///< out = ~(a | b)
  kXor2,   ///< out = a ^ b
  kXnor2,  ///< out = ~(a ^ b)
  kMux3,   ///< out = sel ? b : a  (lane-wise; fanin = {sel, a, b})
  kAndN,   ///< out = &-reduce(fanins)
  kNandN,  ///< out = ~&-reduce(fanins)
  kOrN,    ///< out = |-reduce(fanins)
  kNorN,   ///< out = ~|-reduce(fanins)
  kXorN,   ///< out = ^-reduce(fanins)
  kXnorN,  ///< out = ~^-reduce(fanins)
};

/// One packed schedule entry: everything a kernel needs to evaluate one
/// gate (output slot, CSR fanin slice, opcode) in 12 bytes, so the
/// schedule streams through cache linearly.
struct SimNode {
  GateId out = 0;                 ///< gate id whose value slot is written
  std::uint32_t fanin_begin = 0;  ///< start index into CompiledNetlist fanins
  std::uint16_t fanin_count = 0;  ///< number of fanins (arity-checked)
  SimOp op = SimOp::kBuf1;        ///< specialized kernel selector
};

/// A maximal run of consecutive schedule entries sharing one opcode
/// (the schedule is sorted by (level, op) — see `schedule()`), exposed
/// for analysis and for future wavefront/run-dispatched evaluators.
struct SimOpRun {
  std::uint32_t begin = 0;  ///< first schedule index of the run
  std::uint32_t count = 0;  ///< number of consecutive same-op entries
  SimOp op = SimOp::kBuf1;  ///< the run's opcode
};

/// One uniform evaluation step of the lowered plan: an AND of two
/// *literals* (`2 * slot + complement`, AIGER-style).  Every gate shape
/// is compiled to its minimal AND-literal recipe (NOT/BUF are free edge
/// complements / aliases, 2-input gates take 1 step, XOR/XNOR/MUX take
/// 3, N-input reducers chain N-1), so the hot loop carries no per-gate
/// dispatch at all — on deep netlists that out-runs any switch-based
/// kernel by ~4x (branch misprediction dominates otherwise).
struct AndStep {
  std::uint32_t a = 0;  ///< left operand literal
  std::uint32_t b = 0;  ///< right operand literal
};

/// A `Netlist` compiled once into flat SoA form for fast repeated
/// evaluation.  Immutable after construction; share one `const` instance
/// across simulators to pay levelization/layout cost exactly once.
class CompiledNetlist {
 public:
  /// Compiles `nl`, which must be sealed (std::logic_error otherwise).
  /// Throws `std::runtime_error` on combinational cycles and
  /// `std::invalid_argument` on arity violations (the same conditions
  /// `Netlist::validate()` reports).  `nl` itself is not retained.
  explicit CompiledNetlist(const Netlist& nl);

  /// Convenience: compiles `nl` into a shareable immutable handle.
  static std::shared_ptr<const CompiledNetlist> compile(const Netlist& nl);

  /// Number of gates (value slots) in the compiled design.
  std::size_t size() const { return kind_.size(); }

  /// Dense per-gate kind byte (indexed by `GateId`).
  GateKind kind(GateId id) const { return kind_[id]; }

  /// Primary input gate ids, in `Netlist::inputs()` order.
  std::span<const GateId> inputs() const { return inputs_; }

  /// Output port gate ids, in `Netlist::outputs()` order.
  std::span<const GateId> outputs() const { return outputs_; }

  /// DFF gate ids, in `Netlist::dffs()` order (the state vector order).
  std::span<const GateId> dffs() const { return dffs_; }

  /// Precomputed D-pin driver of each DFF, parallel to `dffs()`.
  std::span<const GateId> dff_d() const { return dff_d_; }

  /// Constant-0 / constant-1 gate ids (preset once, never scheduled).
  std::span<const GateId> const_zeros() const { return const0_; }

  /// Constant-1 gate ids (lanes all-ones), preset once per simulator.
  std::span<const GateId> const_ones() const { return const1_; }

  /// The levelized evaluation schedule: every combinational gate and
  /// output port exactly once, in a valid dependency order — sorted by
  /// (logic level, output-port sub-level, opcode), ties keeping
  /// topological order.  Sorting by opcode within a level is
  /// dependency-safe (gates at one level are mutually independent; the
  /// only same-level edges run driver -> OUTPUT port, and ports sort
  /// into the later sub-level), and it is what makes `runs()` long.
  std::span<const SimNode> schedule() const { return schedule_; }

  /// Op-homogeneous runs covering `schedule()` in order.
  std::span<const SimOpRun> runs() const { return runs_; }

  /// The lowered uniform plan: AND-literal steps in dependency order.
  /// Step `k` writes value slot `node_base() + k`; operand literals index
  /// earlier slots (see `AndStep`).
  std::span<const AndStep> plan() const { return plan_; }

  /// Total value slots: slot 0 is constant zero, then inputs, then DFF
  /// outputs, then one slot per plan step.
  std::uint32_t slot_count() const { return slot_count_; }

  /// First plan-step slot (`1 + inputs + dffs`).
  std::uint32_t node_base() const { return node_base_; }

  /// Slot of DFF `i`'s Q output (`1 + inputs + i`).
  std::uint32_t dff_slot(std::size_t i) const {
    return 1 + static_cast<std::uint32_t>(inputs_.size()) +
           static_cast<std::uint32_t>(i);
  }

  /// Literal (`2 * slot + complement`) holding the settled value of any
  /// gate; defined for every gate id, including ports and constants.
  std::uint32_t literal(GateId id) const { return gate_lit_[id]; }

  /// Literal of DFF `i`'s D pin (what `step()` captures), parallel to
  /// `dffs()`.
  std::uint32_t dff_d_literal(std::size_t i) const { return dff_d_lit_[i]; }

  /// `level_begin()[l] .. level_begin()[l+1]` is the schedule slice at
  /// logic level `l`; size is `depth() + 2` entries (a wavefront
  /// interface for future parallel evaluation).
  std::span<const std::uint32_t> level_begin() const { return level_begin_; }

  /// Combinational depth (maximum logic level).
  int depth() const { return depth_; }

  /// CSR fanin slice of one gate.
  std::span<const GateId> fanin(GateId id) const {
    return {fanin_.data() + fanin_offset_[id],
            fanin_.data() + fanin_offset_[id + 1]};
  }

  /// Raw base pointer of the contiguous fanin array (kernel hot path;
  /// index with `SimNode::fanin_begin`).
  const GateId* fanin_data() const { return fanin_.data(); }

 private:
  std::vector<GateKind> kind_;
  std::vector<std::uint32_t> fanin_offset_;  // size() + 1 entries
  std::vector<GateId> fanin_;
  std::vector<SimNode> schedule_;
  std::vector<SimOpRun> runs_;
  std::vector<std::uint32_t> level_begin_;
  std::vector<AndStep> plan_;
  std::vector<std::uint32_t> gate_lit_;
  std::vector<std::uint32_t> dff_d_lit_;
  std::uint32_t node_base_ = 0;
  std::uint32_t slot_count_ = 0;
  std::vector<GateId> inputs_, outputs_, dffs_, dff_d_, const0_, const1_;
  int depth_ = 0;
};

/// Batched evaluator over a `CompiledNetlist`.
///
/// Holds `batch_words()` words per value slot (SoA, slot-major: word `w`
/// of slot `s` lives at `s * B + w`), so each plan step evaluates
/// `64 x B` independent patterns with one traversal.  Batch sizes 1, 2,
/// 4 and 8 run fully unrolled kernels; any other size >= 1 uses the
/// generic path.  Word 0 of a batch-1 simulator reproduces the scalar
/// reference simulator (tests/oracle/) bit for bit; look a gate up by
/// name with `Netlist::find`.
class CompiledSimulator {
 public:
  /// Shares an already-compiled netlist (the cheap constructor: only the
  /// value/state buffers are allocated).  Throws `std::invalid_argument`
  /// when `batch_words < 1` or `compiled` is null.
  explicit CompiledSimulator(std::shared_ptr<const CompiledNetlist> compiled,
                             int batch_words = 1);

  /// Compiles `nl` privately, then constructs as above.
  explicit CompiledSimulator(const Netlist& nl, int batch_words = 1);

  /// Number of words held per gate (`B`); each word is 64 lanes.
  int batch_words() const { return batch_; }

  /// The shared compiled netlist this simulator evaluates.
  const CompiledNetlist& compiled() const { return *cn_; }

  /// Shareable handle to the compiled netlist (pass to further
  /// simulators to skip recompilation).
  const std::shared_ptr<const CompiledNetlist>& compiled_ptr() const {
    return cn_;
  }

  /// Assigns input pattern word `word` of `input`.  Throws
  /// `std::invalid_argument` unless `input` is an INPUT gate and
  /// `word < batch_words()`.
  void set_input(GateId input, Word value, int word = 0);

  /// Combinational settle: recomputes every scheduled gate (all words)
  /// from the inputs and current DFF state.
  void settle();

  /// One clock edge: settle, then DFF state <- D values (all words).
  void step();

  /// Runs `cycles` clock cycles.
  void run(int cycles);

  /// Value word `word` of `gate` after the last settle.  Bounds-checked;
  /// throws `std::out_of_range` / `std::invalid_argument` on bad ids.
  Word value(GateId gate, int word = 0) const;

  /// Sequential state snapshot, DFF-major: word `w` of DFF `i` at
  /// `i * batch_words() + w` (batch 1 matches the classic layout).
  std::vector<Word> state() const { return dff_state_; }

  /// Restores a snapshot taken with `state()`; throws
  /// `std::invalid_argument` on size mismatch.
  void set_state(const std::vector<Word>& state);

  /// Output values (word `word`) in `outputs()` order.
  std::vector<Word> output_values(int word = 0) const;

  /// FNV-1a hash of outputs then DFF state for one word lane-group —
  /// bit-compatible with the reference simulator's at batch 1.
  std::uint64_t fingerprint(int word = 0) const;

 private:
  template <int B>
  void settle_fixed();
  void settle_generic();
  void capture_dffs();
  void check_word(int word) const;
  Word read_literal(std::uint32_t lit, int word) const;

  std::shared_ptr<const CompiledNetlist> cn_;
  int batch_ = 1;
  std::vector<Word> slots_;      // slot_count() * batch_ words, slot-major
  std::vector<Word> dff_state_;  // dffs().size() * batch_ words, DFF-major
};

}  // namespace diac
