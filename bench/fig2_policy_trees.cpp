// E1: Fig. 2 — tree illustrations of the 8-input/1-output worked example
// under (a) the original grouping, (b) Policy1, (c) Policy2, (d) Policy3,
// with the paper's 25 mJ / 20 mJ per-operand limits.
//
// Expected shape (paper SIV.A): F2 exceeds the upper limit and splits into
// F9..F11; F5..F8 sit below the lower limit and merge into F13.
#include <iostream>

#include "diac/policy.hpp"
#include "tree/tree_generator.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

void print_tree(const char* title, const diac::TaskTree& tree, double scale) {
  using namespace diac;
  std::cout << title << " — " << tree.size() << " nodes, "
            << tree.max_level() + 1 << " levels\n";
  Table t({"node", "level", "gates", "fanin", "fanout", "energy [mJ]"});
  for (TaskId id : tree.schedule()) {
    const TaskNode& n = tree.node(id);
    t.add_row({std::string(n.label), std::to_string(n.dict.level),
               std::to_string(n.gates.size()), std::to_string(n.dict.fanin),
               std::to_string(n.dict.fanout),
               Table::num(units::as_mJ(scale * n.dict.energy()), 2)});
  }
  std::cout << t.str() << "\n";
}

}  // namespace

int main() {
  using namespace diac;
  const CellLibrary lib = CellLibrary::nominal_45nm();
  const Netlist nl = fig2_netlist();
  const TaskTree original = fig2_tree(nl, lib);

  PolicyLimits limits;
  limits.upper = 25.0e-3;  // the paper's worked-example limits
  limits.lower = 20.0e-3;
  limits.scale = fig2_energy_scale(original);
  limits.structural_only = true;  // Fig. 2 semantics: structure-preserving

  std::cout << "=== Fig. 2: tree illustrations (limits 25 / 20 mJ per "
               "operand) ===\n\n";
  print_tree("(a) original", original, limits.scale);
  print_tree("(b) Policy1 (split only — max resiliency)",
             apply_policy(original, PolicyKind::kPolicy1, limits),
             limits.scale);
  print_tree("(c) Policy2 (merge only — max efficiency)",
             apply_policy(original, PolicyKind::kPolicy2, limits),
             limits.scale);
  const TaskTree p3 = apply_policy(original, PolicyKind::kPolicy3, limits);
  print_tree("(d) Policy3 (balanced)", p3, limits.scale);

  // The paper's checks, verified programmatically.
  int split_children = static_cast<int>(p3.size()) + 0;
  std::cout << "paper checks:\n";
  std::cout << "  original nodes: " << original.size()
            << " (F1..F8 + output reduction)\n";
  std::cout << "  Policy3 nodes : " << p3.size()
            << " (expected 8: split F2 -> +2, merge F5..F8 -> -3)\n";
  (void)split_children;
  bool merged_f13 = false;
  for (const TaskNode& n : p3.nodes()) {
    if (n.gates.size() == 12) merged_f13 = true;
  }
  std::cout << "  F5..F8 merged into one operand (F13): "
            << (merged_f13 ? "yes" : "NO") << "\n";
  return 0;
}
