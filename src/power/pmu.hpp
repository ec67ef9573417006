// Power-management unit: the threshold stack and zone classification of
// SIII.B / Fig. 4.
//
// Six thresholds partition the storage level (derived per scheme, because
// the backup reserve depends on how many bits a backup writes):
//
//   E_MAX
//    |  operate freely (enter any state whose Th_State is met)
//   Th_Tr  -- may enter Transmit
//   Th_Cp  -- may enter Compute
//   Th_Se  -- may enter Sense
//   Th_Safe = Th_Bk + safe_margin  -- active states exit below this
//   Th_Bk   = Th_Off + backup reserve -- the power interrupt fires here
//   Th_Off  -- volatile state is lost below this
//    0
#pragma once

#include <stdexcept>

namespace diac {

enum class PowerZone {
  kOff,       // below Th_Off: volatile state lost
  kBackup,    // [Th_Off, Th_Bk): power interrupt — must back up
  kSafeZone,  // [Th_Bk, Th_Safe): hold in Sleep, may recover
  kLow,       // [Th_Safe, Th_Se): can sleep safely, not enough to sense
  kOperate,   // >= Th_Se: at least sensing is possible
};

const char* to_string(PowerZone zone);

struct Thresholds {
  double off = 0;
  double backup = 0;
  double safe = 0;
  double sense = 0;
  double compute = 0;
  double transmit = 0;

  PowerZone classify(double energy) const;

  // True when `energy` admits entering the given operation (the
  // Energy > Th_State checks of Algorithm 1 lines 6-11).
  bool can_sense(double energy) const { return energy > sense; }
  bool can_compute(double energy) const { return energy > compute; }
  bool can_transmit(double energy) const { return energy > transmit; }

  // Validates the stack ordering; throws std::invalid_argument otherwise.
  void validate() const;
};

// make_thresholds' failure that is the design's, not the caller's: the
// stack does not fit below E_MAX.  A design-space search reports such a
// candidate as infeasible instead of aborting.
struct ThresholdStackDoesNotFit : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

// Builds the stack for a scheme whose backup event costs `backup_energy`:
//   Th_Off  = off_floor
//   Th_Bk   = Th_Off + backup_margin * backup_energy
//   Th_Safe = Th_Bk + safe_margin                  (paper: +2 mJ)
//   Th_X    = Th_Safe + entry_margin * op_energy_X (X in {Se, Cp, Tr})
// Caps at e_max; throws ThresholdStackDoesNotFit when the stack cannot fit.
Thresholds make_thresholds(double e_max, double backup_energy,
                           double sense_energy, double compute_entry_energy,
                           double transmit_energy, double off_floor = 1.0e-3,
                           double backup_margin = 1.25,
                           double safe_margin = 2.0e-3,
                           double entry_margin = 1.2);

}  // namespace diac
