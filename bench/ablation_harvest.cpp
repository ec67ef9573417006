// Harvest-source ablation: the paper motivates RFID but the methodology
// claims generality across ambient sources.  Runs the scheme comparison
// under qualitatively different supplies (bursty RFID, diurnal solar with
// clouds, square wave, constant-scarce) and under storage non-idealities.
// The (source × scheme) grid goes through the experiment engine: jobs fan
// out over every core and results come back in deterministic order.
#include <iostream>

#include "diac/synthesizer.hpp"
#include "exp/experiment.hpp"
#include "metrics/pdp.hpp"
#include "netlist/suite.hpp"
#include "runtime/simulator.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main() {
  using namespace diac;
  using namespace diac::units;
  const CellLibrary lib = CellLibrary::nominal_45nm();
  const Netlist nl = build_benchmark("s1238");
  DiacSynthesizer synth(nl, lib);

  struct Source {
    const char* label;
    ScenarioSpec scenario;
  };
  std::vector<Source> sources;
  {
    ScenarioSpec rfid;
    rfid.kind = SourceKind::kRfid;
    rfid.seed = 0xFEED;
    sources.push_back({"RFID bursts (default)", rfid});
  }
  {
    ScenarioSpec solar;
    solar.kind = SourceKind::kSolar;
    solar.seed = 0x501A;
    solar.solar.peak_power = 9.0 * mW;
    solar.solar.day_length = 400;
    solar.solar.night_length = 150;
    sources.push_back({"solar + clouds", solar});
  }
  {
    ScenarioSpec square;
    square.kind = SourceKind::kSquare;
    square.square = {8.0 * mW, 40.0, 0.3};
    sources.push_back({"square 8mW 30%/40s", square});
  }
  {
    ScenarioSpec constant;
    constant.kind = SourceKind::kConstant;
    constant.constant_power = 2.2 * mW;
    sources.push_back({"constant 2.2 mW", constant});
  }

  // Synthesize once per scheme, then fan the 4x4 grid out.
  std::array<SynthesisResult, kSchemeCount> designs;
  for (Scheme scheme : kAllSchemes) {
    designs[static_cast<std::size_t>(scheme)] =
        synth.synthesize_scheme(scheme);
  }
  SimulatorOptions opt;
  opt.target_instances = 8;
  opt.max_time = 30000;
  EvaluationOptions eval;
  eval.simulator = opt;
  const auto plans = compile_plans(designs, eval);
  std::vector<SimulationJob> jobs;
  for (const auto& s : sources) {
    for (Scheme scheme : kAllSchemes) {
      jobs.push_back({plans[static_cast<std::size_t>(scheme)], s.scenario,
                      opt});
    }
  }
  ExperimentRunner runner;  // all cores
  const std::vector<RunStats> grid = run_simulations(runner, jobs);

  std::cout << "=== Harvest-source ablation (s1238) ===\n\n";
  Table t({"source", "scheme", "instances", "PDP [mJ*s]", "norm", "backups",
           "saves", "outages"});
  for (std::size_t si = 0; si < sources.size(); ++si) {
    double base_pdp = 0;
    for (Scheme scheme : kAllSchemes) {
      const RunStats& st =
          grid[si * kSchemeCount + static_cast<std::size_t>(scheme)];
      if (scheme == Scheme::kNvBased) base_pdp = st.pdp();
      t.add_row({scheme == Scheme::kNvBased ? sources[si].label : "",
                 to_string(scheme), std::to_string(st.instances_completed),
                 Table::num(as_mJ(st.pdp()), 1),
                 Table::num(base_pdp > 0 ? st.pdp() / base_pdp : 0, 3),
                 std::to_string(st.backups),
                 std::to_string(st.safe_zone_saves),
                 std::to_string(st.deep_outages)});
    }
    t.add_rule();
  }
  std::cout << t.str() << "\n";

  // Storage non-idealities: 80% charge path, 20 uW self-discharge.
  std::cout << "=== Storage non-idealities (RFID source) ===\n\n";
  Table t2({"storage", "scheme", "instances", "PDP [mJ*s]", "norm"});
  for (const bool ideal : {true, false}) {
    const RfidBurstSource source(0xFEED);
    double base_pdp = 0;
    for (Scheme scheme : {Scheme::kNvBased, Scheme::kDiacOptimized}) {
      const auto sr = synth.synthesize_scheme(scheme);
      SimulatorOptions sim_opt;
      sim_opt.target_instances = 8;
      sim_opt.max_time = 40000;
      if (!ideal) {
        sim_opt.charge_efficiency = 0.8;
        sim_opt.storage_leakage = 20e-6;
      }
      SystemSimulator sim(sr.design, source, FsmConfig{}, sim_opt);
      const RunStats st = sim.run();
      if (scheme == Scheme::kNvBased) base_pdp = st.pdp();
      t2.add_row({scheme == Scheme::kNvBased
                      ? (ideal ? "ideal" : "80% path, 20uW leak")
                      : "",
                  to_string(scheme), std::to_string(st.instances_completed),
                  Table::num(as_mJ(st.pdp()), 1),
                  Table::num(base_pdp > 0 ? st.pdp() / base_pdp : 0, 3)});
    }
    t2.add_rule();
  }
  std::cout << t2.str() << "\n";
  std::cout << "expectation: DIAC-Optimized wins under every source class; "
               "non-ideal storage slows everyone but preserves the "
               "ordering.\n";
  return 0;
}
