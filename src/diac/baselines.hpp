// Baseline intermittent schemes: NV-Based and NV-Clustering state sizing.
#pragma once

#include "diac/design.hpp"

namespace diac {

// Full-state bit count for the NV-Based scheme: every DFF is an NV-FF and
// the result registers (one per primary output) plus control state are
// mirrored.
int nv_based_state_bits(const Netlist& nl);

// Clustered state bit count for NV-Clustering: DFFs and result registers
// collapse to one LE-FF per driving fanout-free cone (state fed by the
// same cone shares one logic-embedded element).
int nv_clustering_state_bits(const Netlist& nl);

// The structural LE-FF clustering ratio (clustered/full bits), clamped to
// [0.35, 0.70] — the fraction of boundary elements NV-Clustering persists
// relative to NV-Based.
double le_ff_clustering_ratio(const Netlist& nl);
// The same ratio from the cone facts `tree` shares with every tree over
// its netlist, without recomputing the cones.
double le_ff_clustering_ratio(const TaskTree& tree);

// Builds the NV-Based / NV-Clustering designs over `tree` (which should be
// the same policy-transformed tree used for DIAC so that task granularity
// is identical and only the backup structure differs).
IntermittentDesign make_nv_based(TaskTree tree, NvmTechnology tech,
                                 double scale,
                                 double system_factor = kDefaultSystemFactor);
IntermittentDesign make_nv_clustering(TaskTree tree, NvmTechnology tech,
                                      double scale,
                                      double system_factor = kDefaultSystemFactor);

}  // namespace diac
