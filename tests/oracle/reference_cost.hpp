// Reference operand cost for differential tests of the cost kernel.
//
// The sort-based form: copy the members, sort the copy by topological
// position, then walk it with the paper's model.  Production buckets each
// node's members along the netlist's topological order once per build and
// walks the slice with no copy and no sort; the two must agree bit for
// bit.
#pragma once

#include <cstdint>
#include <span>

#include "tree/energy_model.hpp"

namespace diac {

// `topo_pos` is topological_positions(nl).
OperandCost reference_operand_cost(const Netlist& nl,
                                   std::span<const GateId> members,
                                   const CellLibrary& lib,
                                   std::span<const std::uint32_t> topo_pos);

}  // namespace diac
