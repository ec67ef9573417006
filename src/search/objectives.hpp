/// SearchObjectives: maps RunStats to the goal vector a design-space
/// search optimizes.
///
/// Every objective is expressed internally as a *cost* (lower is better);
/// maximized quantities are negated so the Pareto machinery only ever
/// minimizes.  A cost may be NaN when the run never defined the quantity —
/// PDP with zero completed instances, makespan of a workload that never
/// finished — and the comparators in search/pareto.hpp treat NaN as worse
/// than every number (and equal to itself), so undefined outcomes can
/// never dominate and are dropped by any defined one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/stats.hpp"

namespace diac {

enum class ObjectiveKind : std::uint8_t {
  kPdp,         // minimize power-delay product per instance (NaN: 0 done)
  kProgress,    // maximize forward progress (1 - reexecution fraction)
  kNvmWrites,   // minimize NVM write events
  kCompletion,  // maximize completed instances
  kEnergy,      // minimize total energy drawn from storage
  kMakespan,    // minimize completion time (NaN: never completed)
};
/// Number of ObjectiveKind values (array sizing).
inline constexpr int kObjectiveKindCount = 6;

/// CLI spelling: "pdp", "progress", "writes", "completion", "energy",
/// "makespan".
const char* to_string(ObjectiveKind kind);
/// Report column header, e.g. "PDP [mJ*s]".
const char* objective_header(ObjectiveKind kind);
/// Throws std::invalid_argument on unknown names.
ObjectiveKind objective_from_name(const std::string& name);

/// The minimized cost of one run on one objective (NaN when undefined).
double objective_cost(ObjectiveKind kind, const RunStats& stats);
/// Cost -> natural reading for reports (progress 0.97 instead of -0.97,
/// PDP in mJ*s instead of J*s).  NaN passes through.
double objective_display(ObjectiveKind kind, double cost);

/// An ordered objective list; the first objective ranks the front.
struct SearchObjectives {
  std::vector<ObjectiveKind> kinds;

  /// Parses a comma-separated objective list ("pdp,progress"); throws on
  /// unknown names, duplicates, or an empty list.
  static SearchObjectives parse(const std::string& csv);
  /// The default goal pair: minimize PDP, maximize forward progress.
  static SearchObjectives defaults();

  std::size_t size() const { return kinds.size(); }
  /// The run's cost vector, ordered like `kinds`.
  std::vector<double> costs(const RunStats& stats) const;
};

}  // namespace diac
