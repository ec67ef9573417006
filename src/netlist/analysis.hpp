// Structural analysis over netlists: topological ordering, levelization,
// critical-path (static timing) analysis against a cell library, and
// fanout-free-cone decomposition (the initial "function" grouping used by
// the DIAC tree generator).
#pragma once

#include <span>
#include <vector>

#include "cell/cell_library.hpp"
#include "netlist/netlist.hpp"

namespace diac {

// Topological order of all gates, treating DFF outputs as sources (their
// fanin edge is a sequential boundary).  Ports and constants included.
// Throws std::runtime_error on combinational cycles.
std::vector<GateId> topological_order(const Netlist& nl);

// Level of each gate: inputs/constants/DFFs are level 0; a combinational
// gate is 1 + max(level of combinational fanins).  OUTPUT ports take the
// level of their driver.
std::vector<int> levelize(const Netlist& nl);

// Maximum level (combinational depth).
int depth(const Netlist& nl);

// Static timing: arrival time of each gate's output using library delays,
// again cutting paths at DFFs.
std::vector<double> arrival_times(const Netlist& nl, const CellLibrary& lib);

// Critical-path delay of the whole netlist (max arrival at outputs/DFF-Ds).
double critical_path_delay(const Netlist& nl, const CellLibrary& lib);

// Fanout-free cones (FFCs).
//
// Every combinational gate belongs to exactly one cone, rooted at a gate
// whose fanout either exits the cone's exclusive region (fanout > 1),
// drives a port/DFF, or is a DFF/port itself.  Gates whose single fanout
// stays within one consumer merge upward into the consumer's cone.  This is
// the classic MFFC-style grouping: a cone evaluates as one unit, which is
// what DIAC's tree generator treats as a "function" node.
struct Cone {
  GateId root = kNullGate;
  std::vector<GateId> members;  // includes root; combinational gates only
};

// Maps each combinational gate to a cone; returns cones ordered by root id.
std::vector<Cone> fanout_free_cones(const Netlist& nl);

// The same cones as a flat map over an already computed
// topological_order(nl): root[g] is the root of g's cone, kNullGate for
// gates outside every cone (ports, constants, DFFs).
std::vector<GateId> cone_roots(const Netlist& nl,
                               std::span<const GateId> order);

// Distinct cones driving state (a DFF D-pin or an output port), given
// cone_roots(): the LE-FF cluster count of NV-Clustering.  A driver
// outside every cone counts as its own cluster.
int state_driver_cones(const Netlist& nl, std::span<const GateId> cone_root);

// Summary statistics used by reports and tests.
struct NetlistStats {
  std::size_t gates = 0;     // logic gates (paper's "# Gates")
  std::size_t inputs = 0;
  std::size_t outputs = 0;
  std::size_t dffs = 0;
  int depth = 0;
  double critical_path = 0.0;  // s
  double total_area = 0.0;     // m^2
};

NetlistStats analyze(const Netlist& nl, const CellLibrary& lib);

}  // namespace diac
