#include "tree/dot_export.hpp"

#include <map>
#include <ostream>
#include <sstream>

#include "util/units.hpp"

namespace diac {

void write_dot(std::ostream& out, const TaskTree& tree,
               const DotOptions& options) {
  out << "digraph \"" << tree.netlist().name() << "\" {\n";
  out << "  rankdir=BT;\n  node [shape=box, fontname=\"monospace\"];\n";

  std::map<int, std::vector<TaskId>> by_level;
  for (std::size_t i = 0; i < tree.size(); ++i) {
    by_level[tree.node(static_cast<TaskId>(i)).dict.level].push_back(
        static_cast<TaskId>(i));
  }
  for (const auto& [level, ids] : by_level) {
    if (options.cluster_levels) {
      out << "  { rank=same;";
      for (TaskId id : ids) out << " n" << id << ";";
      out << " }\n";
    }
    for (TaskId id : ids) {
      const TaskNode& n = tree.node(id);
      out << "  n" << id << " [label=\"" << n.label << "\\nlvl " << level
          << ", " << n.gates.size() << " gates\\n"
          << units::as_mJ(options.energy_scale * n.dict.energy())
          << " mJ\"";
      if (tree.annotation(id).has_nvm) {
        out << ", shape=doubleoctagon, style=filled, fillcolor=lightblue";
      }
      out << "];\n";
    }
  }
  for (std::size_t i = 0; i < tree.size(); ++i) {
    for (TaskId s : tree.node(static_cast<TaskId>(i)).succs) {
      out << "  n" << i << " -> n" << s << ";\n";
    }
  }
  out << "}\n";
}

std::string to_dot_string(const TaskTree& tree, const DotOptions& options) {
  std::ostringstream os;
  write_dot(os, tree, options);
  return os.str();
}

}  // namespace diac
