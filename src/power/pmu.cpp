#include "power/pmu.hpp"

#include <stdexcept>
#include <string>

#include "util/units.hpp"

namespace diac {

const char* to_string(PowerZone zone) {
  switch (zone) {
    case PowerZone::kOff: return "Off";
    case PowerZone::kBackup: return "Backup";
    case PowerZone::kSafeZone: return "SafeZone";
    case PowerZone::kLow: return "Low";
    case PowerZone::kOperate: return "Operate";
  }
  return "?";
}

PowerZone Thresholds::classify(double energy) const {
  if (energy < off) return PowerZone::kOff;
  if (energy < backup) return PowerZone::kBackup;
  if (energy < safe) return PowerZone::kSafeZone;
  if (energy < sense) return PowerZone::kLow;
  return PowerZone::kOperate;
}

void Thresholds::validate() const {
  if (!(0 <= off && off <= backup && backup <= safe && safe <= sense &&
        sense <= compute && compute <= transmit)) {
    throw std::invalid_argument("Thresholds: stack ordering violated");
  }
}

Thresholds make_thresholds(double e_max, double backup_energy,
                           double sense_energy, double compute_entry_energy,
                           double transmit_energy, double off_floor,
                           double backup_margin, double safe_margin,
                           double entry_margin) {
  if (e_max <= 0 || backup_energy < 0) {
    throw std::invalid_argument("make_thresholds: invalid arguments");
  }
  Thresholds th;
  th.off = off_floor;
  th.backup = th.off + backup_margin * backup_energy;
  th.safe = th.backup + safe_margin;
  th.sense = th.safe + entry_margin * sense_energy;
  th.compute = th.safe + entry_margin * compute_entry_energy;
  th.transmit = th.safe + entry_margin * transmit_energy;
  // Sense must not exceed compute/transmit ordering; normalize the stack so
  // classify() stays monotonic (Algorithm 1 checks each Th_State
  // independently, but the zone model wants ordering).
  if (th.compute < th.sense) th.compute = th.sense;
  if (th.transmit < th.compute) th.transmit = th.compute;
  if (th.transmit >= e_max) {
    throw ThresholdStackDoesNotFit(
        "make_thresholds: threshold stack (" +
        std::to_string(units::as_mJ(th.transmit)) +
        " mJ) does not fit below E_MAX (" +
        std::to_string(units::as_mJ(e_max)) + " mJ) — backup too expensive "
        "or storage too small");
  }
  th.validate();
  return th;
}

}  // namespace diac
