#include "netlist/netlist.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "obs/obs.hpp"

// validate() is a thin throw-on-first-error facade over the collect-all
// DRC engine so the two checkers cannot drift; this is the one audited
// downward->upward include in the layering (see docs/ARCHITECTURE.md).
// diac-lint: allow(D5) validate() delegates to the verify DRC engine; audited single back-edge of the layer DAG
#include "verify/drc.hpp"

namespace diac {

namespace {

std::uint32_t name_hash(std::string_view name) {
  return static_cast<std::uint32_t>(std::hash<std::string_view>{}(name));
}

bool aliases(std::span<const GateId> ids, const std::vector<GateId>& pool) {
  return !ids.empty() && ids.data() >= pool.data() &&
         ids.data() < pool.data() + pool.size();
}

}  // namespace

std::pair<int, int> arity(GateKind kind) {
  switch (kind) {
    case GateKind::kInput:
    case GateKind::kConst0:
    case GateKind::kConst1:
      return {0, 0};
    case GateKind::kOutput:
    case GateKind::kBuf:
    case GateKind::kNot:
    case GateKind::kDff:
      return {1, 1};
    case GateKind::kMux:
      return {3, 3};
    case GateKind::kAnd:
    case GateKind::kNand:
    case GateKind::kOr:
    case GateKind::kNor:
    case GateKind::kXor:
    case GateKind::kXnor:
      return {2, -1};
  }
  return {0, -1};
}

Netlist::Netlist(std::string name) : name_(std::move(name)) {}

void Netlist::throw_bad_id() {
  throw std::out_of_range("Netlist::gate: bad id");
}

void Netlist::throw_unsealed(const char* what) const {
  throw std::logic_error("Netlist '" + name_ + "': " + what +
                         " needs a sealed netlist (call seal() after "
                         "building)");
}

std::size_t Netlist::probe(std::string_view name, std::uint32_t hash) const {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t pos = hash & mask;; pos = (pos + 1) & mask) {
    const Slot& s = index_[pos];
    if (s.id == kNullGate) return pos;
    if (s.hash == hash && gate_name(s.id) == name) return pos;
  }
}

void Netlist::reserve_index(std::size_t gates) {
  if (2 * gates <= index_.size()) return;
  std::size_t slots = std::max<std::size_t>(64, index_.size());
  while (slots < 2 * gates) slots *= 2;
  std::vector<Slot> old = std::move(index_);
  index_.assign(slots, Slot{});
  const std::size_t mask = index_.size() - 1;
  for (const Slot& s : old) {
    if (s.id == kNullGate) continue;
    std::size_t pos = s.hash & mask;
    while (index_[pos].id != kNullGate) pos = (pos + 1) & mask;
    index_[pos] = s;
  }
}

void Netlist::reserve(std::size_t gates, std::size_t fanins,
                      std::size_t name_bytes) {
  gates += size();
  kind_.reserve(gates);
  fanin_begin_.reserve(gates + 1);
  fanin_count_.reserve(gates);
  link_stamp_.reserve(gates);
  name_begin_.reserve(gates + 1);
  fanin_pool_.reserve(fanin_pool_.size() + fanins);
  names_.reserve(names_.size() + name_bytes);
  reserve_index(gates);
}

GateId Netlist::add(GateKind kind, std::string_view name,
                    std::span<const GateId> fanin) {
  reserve_index(size() + 1);
  const std::uint32_t hash = name_hash(name);
  const std::size_t slot = probe(name, hash);
  if (index_[slot].id != kNullGate) {
    throw std::invalid_argument("Netlist: duplicate gate name '" +
                                std::string(name) + "'");
  }
  return insert(kind, name, hash, slot, fanin);
}

GateId Netlist::add(GateKind kind, std::span<const GateId> fanin) {
  reserve_index(size() + 1);
  std::string name = to_string(kind);
  name += '_';
  name += std::to_string(size());
  // Auto names can collide with user names; disambiguate.
  for (;;) {
    const std::uint32_t hash = name_hash(name);
    const std::size_t slot = probe(name, hash);
    if (index_[slot].id == kNullGate) {
      return insert(kind, name, hash, slot, fanin);
    }
    name += '_';
  }
}

GateId Netlist::insert(GateKind kind, std::string_view name,
                       std::uint32_t hash, std::size_t slot,
                       std::span<const GateId> fanin) {
  for (GateId f : fanin) {
    if (f >= size()) {
      throw std::invalid_argument("Netlist: fanin id out of range for '" +
                                  std::string(name) + "'");
    }
  }
  const auto id = static_cast<GateId>(size());
  index_[slot] = Slot{hash, id};
  // The arena may reallocate under a name that points into it.
  if (!name.empty() && name.data() >= names_.data() &&
      name.data() < names_.data() + names_.size()) {
    names_.append(std::string(name));
  } else {
    names_.append(name);
  }
  name_begin_.push_back(static_cast<std::uint32_t>(names_.size()));
  kind_.push_back(kind);
  fanin_count_.push_back(0);
  fanin_begin_.push_back(fanin_begin_.back());
  link_stamp_.push_back(next_stamp_++);
  store_fanin(id, fanin);
  sealed_ = false;
  switch (kind) {
    case GateKind::kInput: inputs_.push_back(id); break;
    case GateKind::kOutput: outputs_.push_back(id); break;
    case GateKind::kDff: dffs_.push_back(id); break;
    default: break;
  }
  return id;
}

void Netlist::set_fanin(GateId gate_id, std::span<const GateId> fanin) {
  if (gate_id >= size()) {
    throw std::invalid_argument("Netlist::set_fanin: gate id out of range");
  }
  for (GateId f : fanin) {
    if (f >= size()) {
      throw std::invalid_argument("Netlist::set_fanin: fanin id out of range");
    }
  }
  store_fanin(gate_id, fanin);
  link_stamp_[gate_id] = next_stamp_++;
  sealed_ = false;
}

void Netlist::store_fanin(GateId gate, std::span<const GateId> fanin) {
  if (aliases(fanin, fanin_pool_)) {
    const std::vector<GateId> copy(fanin.begin(), fanin.end());
    store_fanin(gate, copy);
    return;
  }
  // Overwrite in place when the new list fits, else append; seal()
  // compacts whatever slack this leaves.
  if (fanin.size() > fanin_count_[gate]) {
    fanin_begin_[gate] = static_cast<std::uint32_t>(fanin_pool_.size());
    fanin_pool_.insert(fanin_pool_.end(), fanin.begin(), fanin.end());
    fanin_begin_.back() = static_cast<std::uint32_t>(fanin_pool_.size());
  } else {
    std::copy(fanin.begin(), fanin.end(),
              fanin_pool_.begin() + fanin_begin_[gate]);
  }
  fanin_count_[gate] = static_cast<std::uint32_t>(fanin.size());
}

void Netlist::seal() {
  if (sealed_) return;
  DIAC_TRACE_SPAN("netlist.validate", "netlist");
  compact_fanin();
  validate();
  build_fanout();
  sealed_ = true;
}

void Netlist::compact_fanin() {
  const std::size_t n = size();
  std::uint32_t total = 0;
  bool in_order = true;
  for (std::size_t i = 0; i < n; ++i) {
    if (fanin_count_[i] != 0 && fanin_begin_[i] != total) in_order = false;
    total += fanin_count_[i];
  }
  if (!in_order || total != fanin_pool_.size()) {
    std::vector<GateId> pool;
    pool.reserve(total);
    for (std::size_t i = 0; i < n; ++i) {
      const auto first = fanin_pool_.begin() + fanin_begin_[i];
      pool.insert(pool.end(), first, first + fanin_count_[i]);
    }
    fanin_pool_ = std::move(pool);
  }
  total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    fanin_begin_[i] = total;
    total += fanin_count_[i];
  }
  fanin_begin_[n] = total;
}

void Netlist::build_fanout() {
  const std::size_t n = size();
  fanout_begin_.assign(n + 1, 0);
  for (GateId f : fanin_pool_) ++fanout_begin_[f + 1];
  for (std::size_t i = 1; i <= n; ++i) fanout_begin_[i] += fanout_begin_[i - 1];
  fanout_pool_.resize(fanin_pool_.size());
  std::vector<std::uint32_t> fill(fanout_begin_.begin(),
                                  fanout_begin_.end() - 1);
  const auto link = [&](GateId consumer) {
    for (std::uint32_t e = fanin_begin_[consumer];
         e < fanin_begin_[consumer + 1]; ++e) {
      fanout_pool_[fill[fanin_pool_[e]]++] = consumer;
    }
  };
  if (std::is_sorted(link_stamp_.begin(), link_stamp_.end())) {
    for (GateId id = 0; id < n; ++id) link(id);
    return;
  }
  std::vector<GateId> order = all_ids();
  std::sort(order.begin(), order.end(), [this](GateId a, GateId b) {
    return link_stamp_[a] < link_stamp_[b];
  });
  for (GateId id : order) link(id);
}

Gate Netlist::gate(GateId id) const {
  checked(id);
  require_sealed("gate");
  return Gate{kind(id), gate_name(id), fanin(id), fanout(id)};
}

std::span<const std::uint32_t> Netlist::fanin_offsets() const {
  require_sealed("fanin_offsets");
  return fanin_begin_;
}

std::span<const GateId> Netlist::fanin_pool() const {
  require_sealed("fanin_pool");
  return fanin_pool_;
}

GateId Netlist::find(std::string_view name) const {
  if (index_.empty()) return kNullGate;
  return index_[probe(name, name_hash(name))].id;
}

std::size_t Netlist::logic_gate_count() const {
  return static_cast<std::size_t>(
      std::count_if(kind_.begin(), kind_.end(), is_logic));
}

std::size_t Netlist::combinational_gate_count() const {
  return static_cast<std::size_t>(
      std::count_if(kind_.begin(), kind_.end(), is_combinational));
}

std::vector<GateId> Netlist::all_ids() const {
  std::vector<GateId> ids(size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<GateId>(i);
  return ids;
}

void Netlist::validate() const {
  // Delegate to the collect-all DRC engine (structural rules N1-N3:
  // links, arity, combinational cycles) and surface the first error the
  // way this API always has.  Advisory rules (N4-N6) are deliberately
  // excluded: validate() gates construction, not style.
  const verify::DrcReport report =
      verify::run_drc(*this, verify::DrcOptions::structural());
  if (const verify::DrcFinding* f = report.first_error()) {
    throw std::runtime_error("Netlist::validate: " + f->message);
  }
}

}  // namespace diac
