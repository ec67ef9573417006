// IntermittentDesign: the output of synthesis — a policy-transformed task
// tree plus the NVM write-traffic model for one of the four evaluated
// schemes (SIV.B):
//
//  - NV-Based: every flip-flop is an NV-FF, so the live data at *every*
//    task boundary is written to NVM before the system sleeps ("data from
//    all registers are offloaded to NVMs before entering a deep sleep
//    state").  Highest resiliency — execution always resumes at the last
//    task boundary — at the cost of one NVM write event per task.
//  - NV-Clustering (paper ref [7]): logic-embedded FFs; boundary state
//    collapses onto fewer NV elements (one LE-FF per cluster), so the same
//    per-task protocol writes fewer bits.
//  - DIAC: boundary data stays in volatile registers (retained while the
//    storage remains above Th_Off); NVM writes happen only at the commit
//    points the replacement engine inserted.  Work past the last commit
//    point re-executes after a deep outage.
//  - DIAC-Optimized: the DIAC design executed with the Th_SafeZone runtime
//    (backups are skipped when energy recovers before Th_Bk).
//
// Energy calibration.  NvmParameters are physical per-bit cell numbers
// (fJ); a *system-level* checkpoint moves bits through a controller, bus,
// regulators and charge pumps.  Measured checkpoint costs on real
// energy-harvesting nodes are hundreds of uJ to ~2 mJ per event (the
// paper's own Fig. 4 places backups at the ~2 mJ scale on a 25 mJ store).
// We model a write event as
//
//   E = controller_event_energy + system_factor * cell_write_energy(bits)
//
// with controller_event_energy ~= 0.3 mJ and system_factor amplifying the
// per-bit cell cost to the system level.  Both constants are common to all
// schemes and all technologies, so every ratio the paper reports (scheme
// orderings, the ReRAM 4.4x sensitivity of SIV.C) is preserved.
#pragma once

#include "cell/nvm_model.hpp"
#include "tree/task_tree.hpp"

namespace diac {

enum class Scheme : std::uint8_t {
  kNvBased,
  kNvClustering,
  kDiac,
  kDiacOptimized,
};
inline constexpr int kSchemeCount = 4;

const char* to_string(Scheme scheme);

// True when the scheme resumes from DIAC commit points (vs full-state
// persistence at every task boundary).
bool uses_commit_points(Scheme scheme);
// True when the runtime applies the safe-zone backup-avoidance rule.
bool uses_safe_zone(Scheme scheme);

// Calibration defaults (see the header comment).  The energy factor maps
// the 500 fJ/bit MRAM cell write to ~10 uJ/bit at system level, so a
// typical boundary write event (~20 bits) costs ~0.35 mJ and a control
// backup ~0.47 mJ — the sub-mJ-to-mJ event scale of the paper's Fig. 4.
// Write *time* amplifies far less (a checkpoint takes milliseconds, not
// the energy-equivalent seconds), so it has its own factor.
inline constexpr double kDefaultSystemFactor = 2.0e7;
inline constexpr double kDefaultSystemTimeFactor = 1.0e5;
inline constexpr double kDefaultControllerEventEnergy = 0.15e-3;  // J
// Architectural register-file width: the number of live boundary signals
// persisted per event is capped here (a snapshot register file), and the
// control state (Reg_Flag, loop counters, program point) rides along.
inline constexpr int kBoundaryBitsCap = 64;
inline constexpr int kBoundaryControlBits = 8;
inline constexpr int kControlStateBits = 32;

struct IntermittentDesign {
  Scheme scheme = Scheme::kDiac;
  NvmTechnology technology = NvmTechnology::kMram;
  NvmParameters nvm;             // characterization of `technology`
  TaskTree tree;                 // policy-transformed; annotated for DIAC
  double scale = 1.0;            // per-evaluation -> instance energy scale
  double system_factor = kDefaultSystemFactor;
  double system_time_factor = kDefaultSystemTimeFactor;
  double controller_event_energy = kDefaultControllerEventEnergy;
  // NV-Clustering: fraction of boundary elements remaining after LE-FF
  // clustering (1.0 for the other schemes).
  double clustering_ratio = 1.0;

  // --- boundary persistence (per task completion) -------------------------
  // Bits written to NVM when task `id` completes: the (capped) live
  // boundary signals for NV-Based, the clustered subset for NV-Clustering,
  // the planned nvm_bits at DIAC commit points, zero elsewhere.
  int boundary_bits(TaskId id) const;
  double boundary_write_energy(TaskId id) const;  // J; 0 when no write
  double boundary_write_time(TaskId id) const;    // s

  // --- backup / restore events (power interrupt, reboot) ------------------
  // A Bk event persists control state (data is already covered by the
  // boundary protocol above for every scheme).
  int backup_bits() const { return kControlStateBits; }
  double backup_energy() const;
  double backup_time() const;
  double restore_energy() const;
  double restore_time() const;
};

// Raw (uncapped) live boundary signal count of a task node.
int raw_boundary_signals(const TaskNode& node);

}  // namespace diac
