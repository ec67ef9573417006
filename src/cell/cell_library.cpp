#include "cell/cell_library.hpp"

#include <stdexcept>

#include "util/units.hpp"

namespace diac {

namespace {

std::size_t index_of(GateKind kind) { return static_cast<std::size_t>(kind); }

}  // namespace

const char* to_string(GateKind kind) {
  switch (kind) {
    case GateKind::kInput: return "INPUT";
    case GateKind::kOutput: return "OUTPUT";
    case GateKind::kConst0: return "CONST0";
    case GateKind::kConst1: return "CONST1";
    case GateKind::kBuf: return "BUF";
    case GateKind::kNot: return "NOT";
    case GateKind::kAnd: return "AND";
    case GateKind::kNand: return "NAND";
    case GateKind::kOr: return "OR";
    case GateKind::kNor: return "NOR";
    case GateKind::kXor: return "XOR";
    case GateKind::kXnor: return "XNOR";
    case GateKind::kMux: return "MUX";
    case GateKind::kDff: return "DFF";
  }
  return "?";
}

CellLibrary CellLibrary::nominal_45nm() {
  using namespace units;
  CellLibrary lib;
  lib.name_ = "nominal-45nm";
  // delay / dynamic power / static power / area.
  // Delays and leakage are representative of a 45 nm PDK at nominal corner;
  // dynamic power is chosen so that 2*delay*dyn_power lands in the
  // few-femtojoule-per-switch band typical of 45 nm standard cells.
  auto set = [&lib](GateKind k, double d, double pd, double ps, double a) {
    lib.cells_[index_of(k)] = CellParams{d, pd, ps, a};
  };
  set(GateKind::kInput, 0.0, 0.0, 0.0, 0.0);
  set(GateKind::kOutput, 0.0, 0.0, 0.0, 0.0);
  set(GateKind::kConst0, 0.0, 0.0, 0.0, 0.0);
  set(GateKind::kConst1, 0.0, 0.0, 0.0, 0.0);
  set(GateKind::kBuf, 22.0 * ps, 45.0 * uW, 14.0 * nW, 0.80 * um2);
  set(GateKind::kNot, 14.0 * ps, 38.0 * uW, 10.0 * nW, 0.53 * um2);
  set(GateKind::kAnd, 32.0 * ps, 62.0 * uW, 22.0 * nW, 1.33 * um2);
  set(GateKind::kNand, 20.0 * ps, 55.0 * uW, 18.0 * nW, 1.06 * um2);
  set(GateKind::kOr, 34.0 * ps, 64.0 * uW, 24.0 * nW, 1.33 * um2);
  set(GateKind::kNor, 23.0 * ps, 58.0 * uW, 20.0 * nW, 1.06 * um2);
  set(GateKind::kXor, 44.0 * ps, 92.0 * uW, 34.0 * nW, 1.86 * um2);
  set(GateKind::kXnor, 46.0 * ps, 94.0 * uW, 35.0 * nW, 1.86 * um2);
  set(GateKind::kMux, 40.0 * ps, 78.0 * uW, 30.0 * nW, 1.86 * um2);
  set(GateKind::kDff, 95.0 * ps, 140.0 * uW, 85.0 * nW, 4.52 * um2);
  return lib;
}

void CellLibrary::set_base(GateKind kind, const CellParams& params) {
  cells_[index_of(kind)] = params;
}

double CellLibrary::delay(GateKind kind, int fanin) const {
  return base(kind).delay * derate(fanin);
}

double CellLibrary::dynamic_power(GateKind kind, int fanin) const {
  return base(kind).dynamic_power * derate(fanin);
}

double CellLibrary::static_power(GateKind kind, int fanin) const {
  return base(kind).static_power * derate(fanin);
}

double CellLibrary::area(GateKind kind, int fanin) const {
  return base(kind).area * derate(fanin);
}

double CellLibrary::switching_energy(GateKind kind, int fanin) const {
  return 2.0 * delay(kind, fanin) * dynamic_power(kind, fanin);
}

}  // namespace diac
