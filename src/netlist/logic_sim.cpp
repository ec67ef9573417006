#include "netlist/logic_sim.hpp"

#include <stdexcept>

namespace diac {

// --- LogicSimulator (compiled-kernel wrapper) -------------------------------

LogicSimulator::LogicSimulator(const Netlist& nl)
    : nl_(&nl), sim_(CompiledNetlist::compile(nl), 1) {}

LogicSimulator::LogicSimulator(const Netlist& nl,
                               std::shared_ptr<const CompiledNetlist> compiled)
    : nl_(&nl), sim_(std::move(compiled), 1) {
  if (sim_.compiled().size() != nl.size()) {
    throw std::invalid_argument(
        "LogicSimulator: compiled netlist does not match the netlist");
  }
}

void LogicSimulator::set_input(GateId input, Word v) {
  if (input >= nl_->size() || nl_->gate(input).kind != GateKind::kInput) {
    throw std::invalid_argument("LogicSimulator::set_input: not an INPUT gate");
  }
  sim_.set_input(input, v);
}

void LogicSimulator::set_input(std::string_view name, Word v) {
  const GateId id = nl_->find(name);
  if (id == kNullGate) {
    throw std::invalid_argument("LogicSimulator::set_input: no gate '" + std::string(name) + "'");
  }
  set_input(id, v);
}

Word LogicSimulator::value(std::string_view name) const {
  const GateId id = nl_->find(name);
  if (id == kNullGate) {
    throw std::invalid_argument("LogicSimulator::value: no gate '" + std::string(name) + "'");
  }
  return sim_.value(id);
}

}  // namespace diac
