#include "tree/tree_generator.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "netlist/analysis.hpp"

namespace diac {

TreeGenerator::TreeGenerator(const Netlist& nl, const CellLibrary& lib,
                             TreeGeneratorOptions options)
    : nl_(&nl), lib_(&lib), options_(options) {}

TaskTree TreeGenerator::generate() const {
  switch (options_.grouping) {
    case TreeGrouping::kCones:
      return initial_tree(*nl_, *lib_);
    case TreeGrouping::kPerGate:
      return per_gate_tree(*nl_, *lib_);
    case TreeGrouping::kLevels: {
      if (options_.level_band <= 0) {
        throw std::invalid_argument("TreeGenerator: level_band must be positive");
      }
      // Group each cone by the level band of its root; DFFs get their own
      // nodes.  (band, cone-root) pairs become nodes.
      const auto levels = levelize(*nl_);
      std::vector<int> part(nl_->size(), kNoNode);
      std::map<int, int> band_node;  // band -> node index
      int next = 0;
      for (const Cone& cone : fanout_free_cones(*nl_)) {
        const int band = levels[cone.root] / options_.level_band;
        auto [it, inserted] = band_node.emplace(band, next);
        if (inserted) ++next;
        for (GateId g : cone.members) part[g] = it->second;
      }
      for (GateId d : nl_->dffs()) part[d] = next++;
      if (next == 0) {
        throw std::invalid_argument("TreeGenerator: netlist has no logic gates");
      }
      return TaskTree::from_partition(*nl_, *lib_, part, next);
    }
  }
  throw std::logic_error("TreeGenerator: unknown grouping");
}

Netlist fig2_netlist() {
  // Three levels of function blocks, eight inputs, one output.
  //
  //   level 1: F1(x0,x1)  F2(x2,x3)  F3(x4,x5)  F4(x6,x7)     (F2 heavy)
  //   level 2: F5(F1,F2)  F6(F2,F3)  F7(F3,F4)  F8(F1,F4)     (all light)
  //   level 3: F_out = XOR of F5..F8 reduced into the single output
  //
  // Each block is a fanout-free cone, so the cone grouping recovers the
  // F-structure exactly.  Gate counts set the energy ratios: F2 has ~6x
  // the gates of each of F5..F8.
  Netlist nl("fig2");
  std::vector<GateId> x(8);
  for (int i = 0; i < 8; ++i) {
    x[i] = nl.add(GateKind::kInput, "x" + std::to_string(i));
  }

  // A "block": a chain of `depth` gates from two operands, single output.
  auto block = [&nl](const std::string& label, GateId a, GateId b, int depth) {
    GateId cur = nl.add(GateKind::kNand, label + "_g0", {a, b});
    for (int i = 1; i < depth; ++i) {
      const GateKind k = (i % 3 == 0)   ? GateKind::kXor
                         : (i % 3 == 1) ? GateKind::kNor
                                        : GateKind::kNand;
      cur = nl.add(k, label + "_g" + std::to_string(i), {cur, i % 2 ? a : b});
    }
    return cur;
  };

  // Level 1.  F2 is the heavy operand (splits under Policy1/3).
  const GateId f1 = block("F1", x[0], x[1], 8);
  const GateId f2 = block("F2", x[2], x[3], 46);
  const GateId f3 = block("F3", x[4], x[5], 9);
  const GateId f4 = block("F4", x[6], x[7], 8);

  // Level 2.  F5..F8 are light (merge under Policy2/3).
  const GateId f5 = block("F5", f1, f2, 3);
  const GateId f6 = block("F6", f2, f3, 3);
  const GateId f7 = block("F7", f3, f4, 3);
  const GateId f8 = block("F8", f1, f4, 3);

  // Level 3: reduce to the single output.
  const GateId r1 = nl.add(GateKind::kXor, "R_g0", {f5, f6});
  const GateId r2 = nl.add(GateKind::kXor, "R_g1", {f7, f8});
  const GateId r3 = nl.add(GateKind::kXor, "R_g2", {r1, r2});
  nl.add(GateKind::kOutput, "y$out", {r3});
  nl.seal();
  return nl;
}

TaskTree fig2_tree(const Netlist& nl, const CellLibrary& lib) {
  // Group logic gates by the block label before the first '_'.
  std::map<std::string, int> block_index;
  std::vector<int> part(nl.size(), kNoNode);
  std::vector<std::string> labels;
  int next = 0;
  for (GateId id = 0; id < nl.size(); ++id) {
    const Gate g = nl.gate(id);
    if (!is_logic(g.kind)) continue;
    const std::string label(g.name.substr(0, g.name.find('_')));
    auto [it, inserted] = block_index.emplace(label, next);
    if (inserted) {
      ++next;
      labels.push_back(label);
    }
    part[id] = it->second;
  }
  if (next == 0) {
    throw std::invalid_argument("fig2_tree: netlist has no labelled blocks");
  }
  return TaskTree::from_partition(nl, lib, part, next, labels);
}

double fig2_energy_scale(const TaskTree& tree) {
  // Map the heaviest node (F2) to 30 mJ so it exceeds the 25 mJ upper
  // limit while the light F5..F8 nodes land well under the 20 mJ lower
  // limit (they have ~1/15 of F2's gates).
  const double max_e = tree.max_node_energy();
  if (max_e <= 0.0) {
    throw std::invalid_argument("fig2_energy_scale: tree has no energy");
  }
  return 30.0e-3 / max_e;
}

}  // namespace diac
