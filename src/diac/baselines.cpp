#include "diac/baselines.hpp"

#include <algorithm>
#include <cmath>

#include "netlist/analysis.hpp"

namespace diac {

const char* to_string(Scheme scheme) {
  switch (scheme) {
    case Scheme::kNvBased: return "NV-Based";
    case Scheme::kNvClustering: return "NV-Clustering";
    case Scheme::kDiac: return "DIAC";
    case Scheme::kDiacOptimized: return "DIAC-Optimized";
  }
  return "?";
}

bool uses_commit_points(Scheme scheme) {
  return scheme == Scheme::kDiac || scheme == Scheme::kDiacOptimized;
}

bool uses_safe_zone(Scheme scheme) { return scheme == Scheme::kDiacOptimized; }

int raw_boundary_signals(const TaskNode& node) {
  return std::max(1, node.dict.fanout);
}

int IntermittentDesign::boundary_bits(TaskId id) const {
  if (uses_commit_points(scheme)) {
    const NvmAnnotation& a = tree.annotation(id);
    return a.has_nvm ? a.nvm_bits : 0;
  }
  const int full =
      std::min(raw_boundary_signals(tree.node(id)), kBoundaryBitsCap) +
      kBoundaryControlBits;
  if (scheme != Scheme::kNvClustering) return full;
  // LE-FF clustering covers boundary data *and* control state with fewer
  // logic-embedded elements.
  return std::max(1, static_cast<int>(std::ceil(full * clustering_ratio)));
}

double IntermittentDesign::boundary_write_energy(TaskId id) const {
  const int bits = boundary_bits(id);
  if (bits == 0) return 0.0;
  return controller_event_energy + system_factor * nvm.write_energy(bits);
}

double IntermittentDesign::boundary_write_time(TaskId id) const {
  const int bits = boundary_bits(id);
  if (bits == 0) return 0.0;
  return system_time_factor * nvm.write_time(bits);
}

double IntermittentDesign::backup_energy() const {
  return controller_event_energy + system_factor * nvm.write_energy(backup_bits());
}

double IntermittentDesign::backup_time() const {
  return system_time_factor * nvm.write_time(backup_bits());
}

double IntermittentDesign::restore_energy() const {
  // Reads are far cheaper per bit; the controller still wakes.  The amount
  // read is one boundary snapshot plus control.
  const int bits = kBoundaryBitsCap + kControlStateBits;
  return 0.5 * controller_event_energy + system_factor * nvm.read_energy(bits);
}

double IntermittentDesign::restore_time() const {
  const int bits = kBoundaryBitsCap + kControlStateBits;
  return system_time_factor * nvm.read_time(bits);
}

int nv_based_state_bits(const Netlist& nl) {
  return static_cast<int>(nl.dffs().size()) +
         static_cast<int>(nl.outputs().size()) + kControlStateBits;
}

int nv_clustering_state_bits(const Netlist& nl) {
  // One LE-FF per distinct cone feeding state (a DFF D-pin or an output
  // port).  State fed by the same cone shares one element.
  return state_driver_cones(nl, cone_roots(nl, topological_order(nl))) +
         kControlStateBits;
}

namespace {

double clustering_ratio(const Netlist& nl, int clustered_bits) {
  const double base = nv_based_state_bits(nl);
  if (base <= 0) return 1.0;
  return std::clamp(clustered_bits / base, 0.35, 0.70);
}

}  // namespace

double le_ff_clustering_ratio(const Netlist& nl) {
  return clustering_ratio(nl, nv_clustering_state_bits(nl));
}

double le_ff_clustering_ratio(const TaskTree& tree) {
  return clustering_ratio(tree.netlist(),
                          tree.facts().state_clusters + kControlStateBits);
}

namespace {

IntermittentDesign make_checkpoint_design(Scheme scheme, TaskTree tree,
                                          NvmTechnology tech, double scale,
                                          double system_factor) {
  IntermittentDesign d;
  d.scheme = scheme;
  d.technology = tech;
  d.nvm = nvm_parameters(tech);
  d.scale = scale;
  d.system_factor = system_factor;
  if (scheme == Scheme::kNvClustering) {
    d.clustering_ratio = le_ff_clustering_ratio(tree);
  }
  // Boundary persistence covers every task; no DIAC commit points.
  tree.clear_annotations();
  d.tree = std::move(tree);
  return d;
}

}  // namespace

IntermittentDesign make_nv_based(TaskTree tree, NvmTechnology tech,
                                 double scale, double system_factor) {
  return make_checkpoint_design(Scheme::kNvBased, std::move(tree), tech, scale,
                                system_factor);
}

IntermittentDesign make_nv_clustering(TaskTree tree, NvmTechnology tech,
                                      double scale, double system_factor) {
  return make_checkpoint_design(Scheme::kNvClustering, std::move(tree), tech,
                                scale, system_factor);
}

}  // namespace diac
