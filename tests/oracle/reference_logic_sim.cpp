#include "oracle/reference_logic_sim.hpp"

#include <stdexcept>

#include "netlist/analysis.hpp"

namespace diac {

Word eval_gate(GateKind kind, const std::vector<Word>& operands) {
  auto all = [&](Word init, auto op) {
    Word acc = init;
    for (Word w : operands) acc = op(acc, w);
    return acc;
  };
  switch (kind) {
    case GateKind::kConst0: return 0;
    case GateKind::kConst1: return ~Word{0};
    case GateKind::kBuf:
    case GateKind::kOutput:
      return operands[0];
    case GateKind::kNot: return ~operands[0];
    case GateKind::kAnd: return all(~Word{0}, [](Word a, Word b) { return a & b; });
    case GateKind::kNand: return ~all(~Word{0}, [](Word a, Word b) { return a & b; });
    case GateKind::kOr: return all(Word{0}, [](Word a, Word b) { return a | b; });
    case GateKind::kNor: return ~all(Word{0}, [](Word a, Word b) { return a | b; });
    case GateKind::kXor: return all(Word{0}, [](Word a, Word b) { return a ^ b; });
    case GateKind::kXnor: return ~all(Word{0}, [](Word a, Word b) { return a ^ b; });
    case GateKind::kMux: {
      const Word sel = operands[0];
      return (~sel & operands[1]) | (sel & operands[2]);
    }
    case GateKind::kInput:
    case GateKind::kDff:
      throw std::logic_error("eval_gate: INPUT/DFF values come from state");
  }
  throw std::logic_error("eval_gate: unknown kind");
}

// --- ReferenceSimulator (legacy scalar path) --------------------------------

ReferenceSimulator::ReferenceSimulator(const Netlist& nl)
    : nl_(&nl),
      order_(topological_order(nl)),
      value_(nl.size(), 0),
      dff_state_(nl.dffs().size(), 0),
      dff_index_(nl.size(), kNoDff) {
  dff_d_.reserve(nl.dffs().size());
  for (std::size_t i = 0; i < nl.dffs().size(); ++i) {
    dff_index_[nl.dffs()[i]] = i;
    dff_d_.push_back(nl.fanin(nl.dffs()[i])[0]);
  }
}

void ReferenceSimulator::set_input(GateId input, Word v) {
  if (nl_->gate(input).kind != GateKind::kInput) {
    throw std::invalid_argument(
        "ReferenceSimulator::set_input: not an INPUT gate");
  }
  value_[input] = v;
}

void ReferenceSimulator::set_input(const std::string& name, Word v) {
  const GateId id = nl_->find(name);
  if (id == kNullGate) {
    throw std::invalid_argument("ReferenceSimulator::set_input: no gate '" +
                                name + "'");
  }
  set_input(id, v);
}

void ReferenceSimulator::settle() {
  std::vector<Word> operands;
  for (GateId id : order_) {
    const Gate g = nl_->gate(id);
    switch (g.kind) {
      case GateKind::kInput:
        break;  // externally assigned
      case GateKind::kDff:
        value_[id] = dff_state_[dff_index_[id]];
        break;
      default: {
        operands.clear();
        for (GateId f : g.fanin) operands.push_back(value_[f]);
        value_[id] = eval_gate(g.kind, operands);
      }
    }
  }
}

void ReferenceSimulator::step() {
  settle();
  for (std::size_t i = 0; i < dff_d_.size(); ++i) {
    dff_state_[i] = value_[dff_d_[i]];
  }
}

void ReferenceSimulator::run(int cycles) {
  for (int i = 0; i < cycles; ++i) step();
}

Word ReferenceSimulator::value(GateId gate) const { return value_.at(gate); }

Word ReferenceSimulator::value(const std::string& name) const {
  const GateId id = nl_->find(name);
  if (id == kNullGate) {
    throw std::invalid_argument("ReferenceSimulator::value: no gate '" + name +
                                "'");
  }
  return value_.at(id);
}

std::vector<Word> ReferenceSimulator::state() const { return dff_state_; }

void ReferenceSimulator::set_state(const std::vector<Word>& state) {
  if (state.size() != dff_state_.size()) {
    throw std::invalid_argument("ReferenceSimulator::set_state: wrong size");
  }
  dff_state_ = state;
}

std::vector<Word> ReferenceSimulator::output_values() const {
  std::vector<Word> out;
  out.reserve(nl_->outputs().size());
  for (GateId id : nl_->outputs()) out.push_back(value_[id]);
  return out;
}

std::uint64_t ReferenceSimulator::fingerprint() const {
  // FNV-1a over outputs then DFF state.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](Word w) {
    for (int i = 0; i < 8; ++i) {
      h ^= (w >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  for (GateId id : nl_->outputs()) mix(value_[id]);
  for (Word w : dff_state_) mix(w);
  return h;
}

}  // namespace diac
