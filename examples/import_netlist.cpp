// Example: importing an external circuit into the DIAC flow.
//
//   $ ./import_netlist [file.blif | file.bench | file.v]
//
// Demonstrates the interchange path a user with real benchmark files
// follows: read the file (BLIF or ISCAS-89 bench, cleaned up: constants,
// buffers, dead logic; or structural Verilog), synthesize the
// intermittent-aware design, and export the artifacts (Verilog netlist +
// Graphviz task tree, and the cleaned-up netlist as .bench).  Without an argument
// it writes and imports a small demo BLIF so the example is self-
// contained.
#include <fstream>
#include <iostream>
#include <optional>

#include "diac/codegen.hpp"
#include "diac/synthesizer.hpp"
#include "netlist/analysis.hpp"
#include "netlist/bench_format.hpp"
#include "netlist/netlist_file.hpp"
#include "tree/dot_export.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

constexpr const char* kDemoBlif = R"(
# 4-bit ripple incrementer with an enable, plus some removable cruft.
.model incr4
.inputs en d0 d1 d2 d3
.outputs q0 q1 q2 q3 carry
.names en one_gate unused    # dead logic: swept by cleanup
11 1
.names one_gate
1
.names d0 en q0
10 1
01 1
.names d0 en c0
11 1
.names d1 c0 q1
10 1
01 1
.names d1 c0 c1
11 1
.names d2 c1 q2
10 1
01 1
.names d2 c1 c2
11 1
.names d3 c2 q3
10 1
01 1
.names d3 c2 carry
11 1
.end
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace diac;
  using namespace diac::units;

  std::string path;
  if (argc > 1) {
    path = argv[1];
  } else {
    path = "incr4_demo.blif";
    std::ofstream demo(path);
    demo << kDemoBlif;
    std::cout << "(no input given — wrote demo circuit to " << path << ")\n";
  }

  // 1) Read (the extension picks the reader; .bench/.blif get cleaned up).
  std::optional<Netlist> read = read_netlist_file(path);
  if (!read) {
    std::cerr << "not a netlist file (.bench, .blif or .v): " << path << "\n";
    return 1;
  }
  const Netlist& nl = *read;
  std::cout << "read " << path << ": " << nl.logic_gate_count()
            << " gates, " << nl.inputs().size() << " inputs, "
            << nl.outputs().size() << " outputs, " << nl.dffs().size()
            << " DFFs\n";

  // 2) Synthesize.
  const CellLibrary lib = CellLibrary::nominal_45nm();
  DiacSynthesizer synth(nl, lib);
  const SynthesisResult r = synth.synthesize();
  std::cout << "DIAC design: " << r.design.tree.size() << " tasks, "
            << r.replacement.points.size() << " commit points, max exposed "
            << Table::num(as_mJ(r.replacement.max_exposed_energy), 2)
            << " mJ\n";

  // 3) Export artifacts.
  {
    std::ofstream v(nl.name() + "_diac.v");
    v << generate_verilog(r.design);
    std::cout << "wrote " << nl.name() << "_diac.v (NV-enhanced Verilog)\n";
  }
  {
    std::ofstream d(nl.name() + "_tree.dot");
    DotOptions opt;
    opt.energy_scale = r.design.scale;
    write_dot(d, r.design.tree, opt);
    std::cout << "wrote " << nl.name()
              << "_tree.dot (render with: dot -Tpdf)\n";
  }
  {
    std::ofstream b(nl.name() + "_clean.bench");
    write_bench(b, nl);
    std::cout << "wrote " << nl.name() << "_clean.bench\n";
  }
  return 0;
}
