// 45 nm-class standard-cell characterization.
//
// The paper drives DIAC from Synopsys DC + HSPICE runs in the 45 nm NCSU
// PDK.  This module substitutes a self-consistent characterized library:
// per-cell propagation delay, dynamic (switching) power, static (leakage)
// power and area, with fan-in derating for wide gates.  All four evaluated
// schemes consume the *same* numbers, so scheme orderings — the quantity
// Fig. 5 reports — are preserved regardless of the absolute calibration.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace diac {

// Gate/cell kinds.  kInput/kOutput are port pseudo-cells with zero cost;
// kDff is the sequential element (volatile D flip-flop).
enum class GateKind : std::uint8_t {
  kInput,
  kOutput,
  kConst0,
  kConst1,
  kBuf,
  kNot,
  kAnd,
  kNand,
  kOr,
  kNor,
  kXor,
  kXnor,
  kMux,  // 2:1 mux, fanin = {sel, a, b}
  kDff,  // fanin = {d}
};
inline constexpr int kGateKindCount = 14;

const char* to_string(GateKind kind);

// True for port/constant pseudo-cells that carry no timing or power cost.
constexpr bool is_pseudo(GateKind kind) {
  return kind == GateKind::kInput || kind == GateKind::kOutput ||
         kind == GateKind::kConst0 || kind == GateKind::kConst1;
}
// True for the kinds counted as "logic gates" in benchmark gate counts
// (everything except ports and constants; DFFs are counted).
constexpr bool is_logic(GateKind kind) { return !is_pseudo(kind); }
constexpr bool is_combinational(GateKind kind) {
  return !is_pseudo(kind) && kind != GateKind::kDff;
}

// Characterization of one cell at nominal drive.
struct CellParams {
  double delay;          // propagation delay, s (input/output at VDD/2)
  double dynamic_power;  // power while switching, W
  double static_power;   // leakage, W
  double area;           // m^2
};

// A characterized cell library.
//
// Multi-input gates (AND/NAND/OR/NOR/XOR/XNOR) accept arbitrary fan-in; the
// library derates delay and power linearly with fan-in beyond 2, which is
// the standard first-order model for series-stacked CMOS gates.
class CellLibrary {
 public:
  // The default 45 nm-class characterization (values representative of an
  // open 45 nm PDK at VDD = 1.1 V, 25 C).
  static CellLibrary nominal_45nm();

  // Per-cell accessors with fan-in derating.
  double delay(GateKind kind, int fanin) const;
  double dynamic_power(GateKind kind, int fanin) const;
  double static_power(GateKind kind, int fanin) const;
  double area(GateKind kind, int fanin) const;

  // Switching energy of one evaluation of this gate per the paper's model:
  // 2 x delay x dynamic_power (the delay is doubled "for a more accurate
  // energy consumption estimation", SIV.A).
  double switching_energy(GateKind kind, int fanin) const;

  const CellParams& base(GateKind kind) const {
    return cells_[static_cast<std::size_t>(kind)];
  }
  void set_base(GateKind kind, const CellParams& params);

  // Fan-in derating factor: 1 + slope * max(0, fanin - 2).
  double derate(int fanin) const {
    if (fanin <= 2) return 1.0;
    return 1.0 + derate_slope_ * static_cast<double>(fanin - 2);
  }
  void set_derate_slope(double slope) { derate_slope_ = slope; }

  const std::string& name() const { return name_; }

 private:
  CellLibrary() = default;

  std::string name_;
  std::array<CellParams, kGateKindCount> cells_{};
  double derate_slope_ = 0.2;
};

}  // namespace diac
