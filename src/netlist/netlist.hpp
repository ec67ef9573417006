// Gate-level netlist data model.
//
// A `Netlist` is a named directed graph of gates.  Combinational logic must
// be acyclic; cycles are permitted only through DFFs (whose Q output is
// treated as a source for combinational analysis, exactly as in ISCAS-89
// benchmark semantics).
//
// The netlist is one flat store: a kind array, fanin slices into one
// pool, names as offsets into one arena with one open-addressing index
// over them, and a fanout CSR derived from the fanins by `seal()`.  There
// are no per-gate heap blocks.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cell/cell_library.hpp"

namespace diac {

using GateId = std::uint32_t;
inline constexpr GateId kNullGate = std::numeric_limits<GateId>::max();

// A read-only view of one gate of a sealed netlist.  The spans and the
// name point into the netlist and stay valid until it is next modified.
struct Gate {
  GateKind kind{GateKind::kBuf};
  std::string_view name;
  std::span<const GateId> fanin;   // driver gates; for kMux: {sel, a, b}
  std::span<const GateId> fanout;  // consumers, in link order (see seal())

  int fanin_count() const { return static_cast<int>(fanin.size()); }
  int fanout_count() const { return static_cast<int>(fanout.size()); }
};

// A gate-level netlist.
//
// Gates are created with `add` (fanins may be set later with
// `set_fanin`), identified by dense `GateId`s, and looked up by unique
// name.  Building ends with `seal()`, which validates the structure once
// and derives the fanout CSR; any later `add`/`set_fanin` unseals it.
// `kind`, `gate_name` and `fanin` read a netlist at any time; `gate` and
// `fanout` need it sealed and throw std::logic_error otherwise.
class Netlist {
 public:
  explicit Netlist(std::string name = "top");

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // --- construction -------------------------------------------------------
  // Adds a gate; throws std::invalid_argument on duplicate name or when a
  // fanin id is out of range.  (string_view rather than string so that the
  // unnamed overload below is never ambiguous with a braced fanin list.)
  GateId add(GateKind kind, std::string_view name,
             std::span<const GateId> fanin = {});
  GateId add(GateKind kind, std::string_view name,
             std::initializer_list<GateId> fanin) {
    return add(kind, name,
               std::span<const GateId>(fanin.begin(), fanin.size()));
  }
  // Convenience: adds with an auto-generated unique name ("<kind>_<id>").
  GateId add(GateKind kind, std::span<const GateId> fanin = {});
  GateId add(GateKind kind, std::initializer_list<GateId> fanin) {
    return add(kind, std::span<const GateId>(fanin.begin(), fanin.size()));
  }

  // Makes room for `gates` more gates that read `fanins` signals and are
  // named in `name_bytes` bytes in all, so a builder that knows its size
  // grows each array and pool once.
  void reserve(std::size_t gates, std::size_t fanins, std::size_t name_bytes);

  // Replaces the fanin list of `gate`.
  void set_fanin(GateId gate, std::span<const GateId> fanin);
  void set_fanin(GateId gate, std::initializer_list<GateId> fanin) {
    set_fanin(gate, std::span<const GateId>(fanin.begin(), fanin.size()));
  }

  // Validates the structure (see validate()) and derives the fanout CSR.
  // A no-op on a netlist that is already sealed.  Fanout lists keep link
  // order: the consumers of a gate appear in the order their fanin was
  // last set (by `add` or `set_fanin`), once per fanin occurrence, which
  // is ascending consumer id when no gate was re-linked.
  void seal();
  bool sealed() const { return sealed_; }

  // --- access ---------------------------------------------------------------
  std::size_t size() const { return kind_.size(); }
  GateKind kind(GateId id) const { return kind_[checked(id)]; }
  std::string_view gate_name(GateId id) const {
    checked(id);
    return {names_.data() + name_begin_[id],
            name_begin_[id + 1] - name_begin_[id]};
  }
  std::span<const GateId> fanin(GateId id) const {
    checked(id);
    return {fanin_pool_.data() + fanin_begin_[id], fanin_count_[id]};
  }
  std::span<const GateId> fanout(GateId id) const {  // sealed only
    checked(id);
    require_sealed("fanout");
    return {fanout_pool_.data() + fanout_begin_[id],
            fanout_begin_[id + 1] - fanout_begin_[id]};
  }
  Gate gate(GateId id) const;  // sealed only
  GateId find(std::string_view name) const;  // kNullGate when absent
  bool contains(std::string_view name) const { return find(name) != kNullGate; }

  // The sealed fanin CSR: gate i's fanins are
  // pool[offsets[i] .. offsets[i + 1]).  Sealed only.
  std::span<const std::uint32_t> fanin_offsets() const;
  std::span<const GateId> fanin_pool() const;

  std::span<const GateId> inputs() const { return inputs_; }
  std::span<const GateId> outputs() const { return outputs_; }
  std::span<const GateId> dffs() const { return dffs_; }

  // Number of logic gates (everything but ports/constants; DFFs counted).
  // This is the "# Gates" notion used by the paper's Fig. 5 header row.
  std::size_t logic_gate_count() const;
  std::size_t combinational_gate_count() const;

  // --- validation -----------------------------------------------------------
  // Checks structural invariants; throws std::runtime_error describing the
  // first violation found:
  //  - every fanin id is valid and no OUTPUT port drives a gate,
  //  - arity: NOT/BUF/DFF/OUTPUT have exactly 1 fanin, MUX exactly 3,
  //    AND/OR/... at least 2, INPUT/CONST none,
  //  - no combinational cycles (cycles through DFFs are fine).
  // seal() runs it; call it directly only to re-check.
  void validate() const;

  // Iteration over all ids.
  std::vector<GateId> all_ids() const;

 private:
  // One name-index slot: a gate id and the low 32 bits of its name hash.
  struct Slot {
    std::uint32_t hash = 0;
    GateId id = kNullGate;
  };

  // Inline range and seal checks on every accessor; only the throws are
  // out of line.
  GateId checked(GateId id) const {
    if (id >= size()) [[unlikely]] throw_bad_id();
    return id;
  }
  void require_sealed(const char* what) const {
    if (!sealed_) [[unlikely]] throw_unsealed(what);
  }
  [[noreturn]] static void throw_bad_id();
  [[noreturn]] void throw_unsealed(const char* what) const;
  // Index slot holding `name`, or the empty slot where it would go.
  std::size_t probe(std::string_view name, std::uint32_t hash) const;
  // Grows the index (doubling) until `gates` names fit at load <= 1/2.
  void reserve_index(std::size_t gates);
  // Appends a gate whose name is new: `hash` is its name hash and `slot`
  // the free index position probe() returned for it.
  GateId insert(GateKind kind, std::string_view name, std::uint32_t hash,
                std::size_t slot, std::span<const GateId> fanin);
  void store_fanin(GateId gate, std::span<const GateId> fanin);
  void compact_fanin();
  void build_fanout();

  std::string name_;
  std::vector<GateKind> kind_;
  // Fanin slice of gate i: fanin_pool_[fanin_begin_[i] ...] of
  // fanin_count_[i] ids.  seal() compacts the pool into id order, and
  // fanin_begin_ (one entry longer, ending at the pool size) becomes the
  // fanin CSR offsets.
  std::vector<std::uint32_t> fanin_begin_{0};
  std::vector<std::uint32_t> fanin_count_;
  std::vector<GateId> fanin_pool_;
  // When each gate's fanin was last set; orders the fanout CSR.
  std::vector<std::uint32_t> link_stamp_;
  std::uint32_t next_stamp_ = 0;
  // Name of gate i: names_[name_begin_[i] .. name_begin_[i + 1]).
  std::string names_;
  std::vector<std::uint32_t> name_begin_{0};
  std::vector<Slot> index_;  // open addressing, power-of-two size
  // Consumers of gate i: fanout_pool_[fanout_begin_[i] .. [i + 1]).
  std::vector<std::uint32_t> fanout_begin_;
  std::vector<GateId> fanout_pool_;
  bool sealed_ = false;
  std::vector<GateId> inputs_;
  std::vector<GateId> outputs_;
  std::vector<GateId> dffs_;
};

// Expected fan-in arity for `kind`: {min, max} (max = -1 means unbounded).
std::pair<int, int> arity(GateKind kind);

}  // namespace diac
