#include "netlist/compiled_sim.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "netlist/analysis.hpp"
#include "obs/obs.hpp"

namespace diac {

namespace {

// Maps a gate kind + arity to its specialized opcode; throws on kinds that
// are never scheduled (INPUT/DFF/constants are handled by the caller).
SimOp select_op(GateKind kind, std::size_t fanins) {
  switch (kind) {
    case GateKind::kBuf:
    case GateKind::kOutput:
      return SimOp::kBuf1;
    case GateKind::kNot:
      return SimOp::kNot1;
    case GateKind::kAnd:
      return fanins == 2 ? SimOp::kAnd2 : SimOp::kAndN;
    case GateKind::kNand:
      return fanins == 2 ? SimOp::kNand2 : SimOp::kNandN;
    case GateKind::kOr:
      return fanins == 2 ? SimOp::kOr2 : SimOp::kOrN;
    case GateKind::kNor:
      return fanins == 2 ? SimOp::kNor2 : SimOp::kNorN;
    case GateKind::kXor:
      return fanins == 2 ? SimOp::kXor2 : SimOp::kXorN;
    case GateKind::kXnor:
      return fanins == 2 ? SimOp::kXnor2 : SimOp::kXnorN;
    case GateKind::kMux:
      return SimOp::kMux3;
    default:
      throw std::logic_error("CompiledNetlist: unschedulable kind");
  }
}

}  // namespace

CompiledNetlist::CompiledNetlist(const Netlist& nl) {
  const std::size_t n = nl.size();
  kind_.resize(n);
  for (GateId id = 0; id < n; ++id) kind_[id] = nl.kind(id);
  // The sealed netlist already holds its fanins as a CSR.
  const std::span<const std::uint32_t> offsets = nl.fanin_offsets();
  fanin_offset_.assign(offsets.begin(), offsets.end());
  fanin_.assign(nl.fanin_pool().begin(), nl.fanin_pool().end());

  inputs_.assign(nl.inputs().begin(), nl.inputs().end());
  outputs_.assign(nl.outputs().begin(), nl.outputs().end());
  dffs_.assign(nl.dffs().begin(), nl.dffs().end());
  dff_d_.reserve(dffs_.size());
  for (GateId ff : dffs_) {
    const std::span<const GateId> d = fanin(ff);
    if (d.size() != 1) {
      throw std::invalid_argument("CompiledNetlist: DFF '" +
                                  std::string(nl.gate_name(ff)) +
                                  "' must have exactly 1 fanin");
    }
    dff_d_.push_back(d[0]);
  }

  // Levelized schedule: a topological order of the evaluable gates,
  // stably bucketed by logic level.  Stable sort preserves dependency
  // order within a level (only pseudo ports share a level with their
  // driver), so the result is still a valid evaluation order.
  const std::vector<GateId> topo = topological_order(nl);
  const std::vector<int> level = levelize(nl);
  depth_ = 0;
  for (int l : level) depth_ = std::max(depth_, l);

  std::vector<GateId> sched_ids;
  sched_ids.reserve(n);
  for (GateId id : topo) {
    switch (kind_[id]) {
      case GateKind::kInput:
      case GateKind::kDff:
        break;  // externally assigned / copied from state
      case GateKind::kConst0:
        const0_.push_back(id);
        break;
      case GateKind::kConst1:
        const1_.push_back(id);
        break;
      default:
        sched_ids.push_back(id);
    }
  }
  // Sort key: (level, OUTPUT-port sub-level, op).  Gates at one level are
  // mutually independent, so grouping them by op is a valid evaluation
  // order; OUTPUT ports are level-transparent in levelize() (they share
  // their driver's level), so they get the odd sub-level after the real
  // gates they read.  Stable sort keeps topological order on full ties
  // (an OUTPUT chained onto another OUTPUT stays after its driver).
  auto sort_key = [&](GateId id) {
    const int sub = kind_[id] == GateKind::kOutput ? 1 : 0;
    return (static_cast<std::uint64_t>(level[id]) << 6) |
           (static_cast<std::uint64_t>(sub) << 5) |
           static_cast<std::uint64_t>(select_op(kind_[id],
                                                fanin(id).size()));
  };
  std::stable_sort(sched_ids.begin(), sched_ids.end(),
                   [&](GateId a, GateId b) { return sort_key(a) < sort_key(b); });

  schedule_.reserve(sched_ids.size());
  level_begin_.assign(static_cast<std::size_t>(depth_) + 2, 0);
  for (GateId id : sched_ids) {
    const auto [lo, hi] = arity(kind_[id]);
    const auto fc = static_cast<int>(fanin(id).size());
    if (fc < lo || (hi >= 0 && fc > hi) || fc > 0xFFFF) {
      throw std::invalid_argument("CompiledNetlist: gate '" +
                                  std::string(nl.gate_name(id)) +
                                  "' has invalid fanin count " +
                                  std::to_string(fc));
    }
    SimNode node;
    node.out = id;
    node.fanin_begin = fanin_offset_[id];
    node.fanin_count = static_cast<std::uint16_t>(fc);
    node.op = select_op(kind_[id], static_cast<std::size_t>(fc));
    schedule_.push_back(node);
    ++level_begin_[static_cast<std::size_t>(level[id]) + 1];
  }
  for (std::size_t l = 1; l < level_begin_.size(); ++l) {
    level_begin_[l] += level_begin_[l - 1];
  }
  for (std::size_t i = 0; i < schedule_.size(); ++i) {
    if (runs_.empty() || runs_.back().op != schedule_[i].op) {
      runs_.push_back({static_cast<std::uint32_t>(i), 1, schedule_[i].op});
    } else {
      ++runs_.back().count;
    }
  }

  // --- lowering: schedule -> uniform AND-literal plan ---------------------
  // Value slots: 0 = constant zero, then inputs, then DFF Q outputs, then
  // one slot per emitted step.  Literals are 2 * slot + complement.
  node_base_ = 1 + static_cast<std::uint32_t>(inputs_.size()) +
               static_cast<std::uint32_t>(dffs_.size());
  gate_lit_.assign(n, 0);
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    gate_lit_[inputs_[i]] = (1 + static_cast<std::uint32_t>(i)) << 1;
  }
  for (std::size_t i = 0; i < dffs_.size(); ++i) {
    gate_lit_[dffs_[i]] = dff_slot(i) << 1;
  }
  for (GateId id : const0_) gate_lit_[id] = 0;  // slot 0, plain
  for (GateId id : const1_) gate_lit_[id] = 1;  // slot 0, complemented

  auto emit = [this](std::uint32_t a, std::uint32_t b) {
    const std::uint32_t slot =
        node_base_ + static_cast<std::uint32_t>(plan_.size());
    plan_.push_back({a, b});
    return slot << 1;
  };
  // x ^ y == ~(~(x & ~y) & ~(~x & y)): three steps, complemented result.
  auto emit_xor = [&emit](std::uint32_t x, std::uint32_t y) {
    const std::uint32_t n1 = emit(x, y ^ 1);
    const std::uint32_t n2 = emit(x ^ 1, y);
    return emit(n1 ^ 1, n2 ^ 1) ^ 1;
  };
  std::vector<std::uint32_t> lits;
  for (const SimNode& node : schedule_) {
    const GateId id = node.out;
    const std::span<const GateId> fi = fanin(id);
    lits.clear();
    for (GateId f : fi) lits.push_back(gate_lit_[f]);
    std::uint32_t lit = 0;
    switch (node.op) {
      case SimOp::kBuf1: lit = lits[0]; break;      // alias, zero steps
      case SimOp::kNot1: lit = lits[0] ^ 1; break;  // free complement
      case SimOp::kAnd2: lit = emit(lits[0], lits[1]); break;
      case SimOp::kNand2: lit = emit(lits[0], lits[1]) ^ 1; break;
      case SimOp::kOr2: lit = emit(lits[0] ^ 1, lits[1] ^ 1) ^ 1; break;
      case SimOp::kNor2: lit = emit(lits[0] ^ 1, lits[1] ^ 1); break;
      case SimOp::kXor2: lit = emit_xor(lits[0], lits[1]); break;
      case SimOp::kXnor2: lit = emit_xor(lits[0], lits[1]) ^ 1; break;
      case SimOp::kMux3: {
        // (~s & a) | (s & b) == ~(~(~s & a) & ~(s & b))
        const std::uint32_t n1 = emit(lits[0] ^ 1, lits[1]);
        const std::uint32_t n2 = emit(lits[0], lits[2]);
        lit = emit(n1 ^ 1, n2 ^ 1) ^ 1;
        break;
      }
      case SimOp::kAndN:
      case SimOp::kNandN: {
        lit = lits[0];
        for (std::size_t k = 1; k < lits.size(); ++k) lit = emit(lit, lits[k]);
        if (node.op == SimOp::kNandN) lit ^= 1;
        break;
      }
      case SimOp::kOrN:
      case SimOp::kNorN: {
        lit = lits[0] ^ 1;
        for (std::size_t k = 1; k < lits.size(); ++k) {
          lit = emit(lit, lits[k] ^ 1);
        }
        if (node.op == SimOp::kOrN) lit ^= 1;
        break;
      }
      case SimOp::kXorN:
      case SimOp::kXnorN: {
        lit = lits[0];
        for (std::size_t k = 1; k < lits.size(); ++k) {
          lit = emit_xor(lit, lits[k]);
        }
        if (node.op == SimOp::kXnorN) lit ^= 1;
        break;
      }
    }
    gate_lit_[id] = lit;
  }
  slot_count_ = node_base_ + static_cast<std::uint32_t>(plan_.size());
  dff_d_lit_.reserve(dffs_.size());
  for (GateId d : dff_d_) dff_d_lit_.push_back(gate_lit_[d]);
}

std::shared_ptr<const CompiledNetlist> CompiledNetlist::compile(
    const Netlist& nl) {
  return std::make_shared<const CompiledNetlist>(nl);
}

CompiledSimulator::CompiledSimulator(
    std::shared_ptr<const CompiledNetlist> compiled, int batch_words)
    : cn_(std::move(compiled)), batch_(batch_words) {
  if (!cn_) {
    throw std::invalid_argument("CompiledSimulator: null compiled netlist");
  }
  if (batch_ < 1) {
    throw std::invalid_argument("CompiledSimulator: batch_words must be >= 1");
  }
  const std::size_t b = static_cast<std::size_t>(batch_);
  slots_.assign(static_cast<std::size_t>(cn_->slot_count()) * b, 0);
  dff_state_.assign(cn_->dffs().size() * b, 0);
}

CompiledSimulator::CompiledSimulator(const Netlist& nl, int batch_words)
    : CompiledSimulator(CompiledNetlist::compile(nl), batch_words) {}

void CompiledSimulator::check_word(int word) const {
  if (word < 0 || word >= batch_) {
    throw std::invalid_argument("CompiledSimulator: word index " +
                                std::to_string(word) + " out of batch " +
                                std::to_string(batch_));
  }
}

void CompiledSimulator::set_input(GateId input, Word value, int word) {
  check_word(word);
  if (input >= cn_->size() || cn_->kind(input) != GateKind::kInput) {
    throw std::invalid_argument(
        "CompiledSimulator::set_input: not an INPUT gate");
  }
  const std::size_t slot = cn_->literal(input) >> 1;  // inputs: plain slots
  slots_[slot * static_cast<std::size_t>(batch_) +
         static_cast<std::size_t>(word)] = value;
}

Word CompiledSimulator::read_literal(std::uint32_t lit, int word) const {
  const Word v = slots_[static_cast<std::size_t>(lit >> 1) *
                            static_cast<std::size_t>(batch_) +
                        static_cast<std::size_t>(word)];
  return (lit & 1) != 0 ? ~v : v;
}

template <int B>
void CompiledSimulator::settle_fixed() {
  const CompiledNetlist& cn = *cn_;
  Word* s = slots_.data();
  {
    // DFF state -> Q slots (contiguous slot range, streaming writes).
    const Word* st = dff_state_.data();
    Word* q = s + static_cast<std::size_t>(cn.dff_slot(0)) * B;
    const std::size_t nd = cn.dffs().size() * B;
    for (std::size_t i = 0; i < nd; ++i) q[i] = st[i];
  }
  // The uniform plan: no dispatch, sequential writes, predictable flow.
  const std::span<const AndStep> plan = cn.plan();
  Word* out = s + static_cast<std::size_t>(cn.node_base()) * B;
  for (const AndStep& n : plan) {
    const Word* pa = s + static_cast<std::size_t>(n.a >> 1) * B;
    const Word* pb = s + static_cast<std::size_t>(n.b >> 1) * B;
    const Word ma = 0 - static_cast<Word>(n.a & 1);
    const Word mb = 0 - static_cast<Word>(n.b & 1);
    for (int w = 0; w < B; ++w) out[w] = (pa[w] ^ ma) & (pb[w] ^ mb);
    out += B;
  }
}

void CompiledSimulator::settle_generic() {
  const CompiledNetlist& cn = *cn_;
  const std::size_t b = static_cast<std::size_t>(batch_);
  Word* s = slots_.data();
  {
    const Word* st = dff_state_.data();
    Word* q = s + static_cast<std::size_t>(cn.dff_slot(0)) * b;
    const std::size_t nd = cn.dffs().size() * b;
    for (std::size_t i = 0; i < nd; ++i) q[i] = st[i];
  }
  const std::span<const AndStep> plan = cn.plan();
  Word* out = s + static_cast<std::size_t>(cn.node_base()) * b;
  for (const AndStep& n : plan) {
    const Word* pa = s + static_cast<std::size_t>(n.a >> 1) * b;
    const Word* pb = s + static_cast<std::size_t>(n.b >> 1) * b;
    const Word ma = 0 - static_cast<Word>(n.a & 1);
    const Word mb = 0 - static_cast<Word>(n.b & 1);
    for (std::size_t w = 0; w < b; ++w) out[w] = (pa[w] ^ ma) & (pb[w] ^ mb);
    out += b;
  }
}

void CompiledSimulator::settle() {
  // Two relaxed atomic adds per settle (not per step of the plan), so the
  // kernel inner loops stay untouched; see BM_ObsOverhead for the cost.
  DIAC_OBS_COUNT("kernel.and_steps", cn_->plan().size());
  DIAC_OBS_COUNT("kernel.batch_words",
                 cn_->plan().size() * static_cast<std::size_t>(batch_));
  switch (batch_) {
    case 1: settle_fixed<1>(); break;
    case 2: settle_fixed<2>(); break;
    case 4: settle_fixed<4>(); break;
    case 8: settle_fixed<8>(); break;
    default: settle_generic(); break;
  }
}

void CompiledSimulator::capture_dffs() {
  // All DFFs capture simultaneously; dff_state_ is separate storage, so
  // reading D literals while writing state cannot order-interfere even
  // for DFF-to-DFF chains.
  const std::size_t nd = cn_->dffs().size();
  const int b = batch_;
  Word* st = dff_state_.data();
  for (std::size_t i = 0; i < nd; ++i) {
    const std::uint32_t lit = cn_->dff_d_literal(i);
    const Word* d = slots_.data() +
                    static_cast<std::size_t>(lit >> 1) *
                        static_cast<std::size_t>(b);
    const Word m = 0 - static_cast<Word>(lit & 1);
    for (int w = 0; w < b; ++w) {
      st[i * static_cast<std::size_t>(b) + static_cast<std::size_t>(w)] =
          d[w] ^ m;
    }
  }
}

void CompiledSimulator::step() {
  settle();
  capture_dffs();
}

void CompiledSimulator::run(int cycles) {
  for (int i = 0; i < cycles; ++i) step();
}

Word CompiledSimulator::value(GateId gate, int word) const {
  check_word(word);
  if (gate >= cn_->size()) {
    throw std::out_of_range("CompiledSimulator::value: gate id out of range");
  }
  // A DFF's literal names its Q slot, which settle() loads from state —
  // so like the reference, value(dff) reports the Q driven this cycle.
  return read_literal(cn_->literal(gate), word);
}

void CompiledSimulator::set_state(const std::vector<Word>& state) {
  if (state.size() != dff_state_.size()) {
    throw std::invalid_argument("CompiledSimulator::set_state: wrong size");
  }
  dff_state_ = state;
}

std::vector<Word> CompiledSimulator::output_values(int word) const {
  check_word(word);
  std::vector<Word> out;
  out.reserve(cn_->outputs().size());
  for (GateId id : cn_->outputs()) out.push_back(value(id, word));
  return out;
}

std::uint64_t CompiledSimulator::fingerprint(int word) const {
  check_word(word);
  // FNV-1a over outputs then DFF state, byte-identical to the reference
  // simulator's fingerprint at batch 1.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](Word w) {
    for (int i = 0; i < 8; ++i) {
      h ^= (w >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  const std::size_t b = static_cast<std::size_t>(batch_);
  const std::size_t w = static_cast<std::size_t>(word);
  for (GateId id : cn_->outputs()) mix(read_literal(cn_->literal(id), word));
  for (std::size_t i = 0; i < cn_->dffs().size(); ++i) {
    mix(dff_state_[i * b + w]);
  }
  return h;
}

}  // namespace diac
