// Differential test of the production event loop (SystemSimulator::run()
// over a shared SimPlan, specialized per source kind and trace recording,
// with the gated crossing division) against the unspecialized reference
// engine in tests/oracle/reference_event_engine.*.  Both drive the same
// NodeMachine and must agree bit for bit: every RunStats field, the event
// log and the recorded trace, over circuits, schemes, harvest sources
// and the storage/FSM corners, plus a seeded sweep of operation jitter
// and entry margins that lands threshold crossings close to the end of
// the integration window, where the crossing gate decides.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <list>
#include <memory>
#include <string>
#include <vector>

#include "diac/synthesizer.hpp"
#include "metrics/pdp.hpp"
#include "netlist/suite.hpp"
#include "oracle/reference_event_engine.hpp"
#include "power/trace_io.hpp"
#include "runtime/simulator.hpp"
#include "util/rng.hpp"

namespace diac {
namespace {

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::nominal_45nm();
  return l;
}

// All four scheme designs of a circuit, synthesized once per process.
const std::array<SynthesisResult, kSchemeCount>& designs(
    const std::string& circuit) {
  static std::list<std::pair<std::string, Netlist>> netlists;
  static std::list<std::pair<std::string,
                             std::array<SynthesisResult, kSchemeCount>>>
      cache;
  for (const auto& [name, d] : cache) {
    if (name == circuit) return d;
  }
  netlists.emplace_back(circuit, build_benchmark(circuit));
  const DiacSynthesizer synth(netlists.back().second, lib());
  std::array<SynthesisResult, kSchemeCount> d;
  for (Scheme s : kAllSchemes) {
    d[static_cast<std::size_t>(s)] = synth.synthesize_scheme(s);
  }
  cache.emplace_back(circuit, std::move(d));
  return cache.back().second;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Compares one production run against the reference; returns false (with
// a failure naming the first differing field) on any difference.
bool agree(const IntermittentDesign& design, const HarvestSource& source,
           const FsmConfig& config, const SimulatorOptions& options,
           const std::string& tag) {
  SystemSimulator sim(design, source, config, options);
  const RunStats got = sim.run();
  const ReferenceEventRun want =
      run_reference_event_engine(design, source, config, options);
  const RunStats& w = want.stats;
  const std::pair<const char*, std::pair<double, double>> reals[] = {
      {"makespan", {got.makespan, w.makespan}},
      {"energy_consumed", {got.energy_consumed, w.energy_consumed}},
      {"energy_harvested", {got.energy_harvested, w.energy_harvested}},
      {"energy_wasted", {got.energy_wasted, w.energy_wasted}},
      {"reexec_energy", {got.reexec_energy, w.reexec_energy}},
      {"time_active", {got.time_active, w.time_active}},
      {"time_sleep", {got.time_sleep, w.time_sleep}},
      {"time_off", {got.time_off, w.time_off}},
      {"time_backup", {got.time_backup, w.time_backup}},
  };
  for (const auto& [name, v] : reals) {
    if (!same_bits(v.first, v.second)) {
      ADD_FAILURE() << tag << ": " << name << " " << v.first << " vs "
                    << v.second;
      return false;
    }
  }
  const std::pair<const char*, std::pair<long long, long long>> counts[] = {
      {"instances_completed", {got.instances_completed, w.instances_completed}},
      {"workload_completed", {got.workload_completed, w.workload_completed}},
      {"backups", {got.backups, w.backups}},
      {"restores", {got.restores, w.restores}},
      {"safe_zone_saves", {got.safe_zone_saves, w.safe_zone_saves}},
      {"deep_outages", {got.deep_outages, w.deep_outages}},
      {"power_interrupts", {got.power_interrupts, w.power_interrupts}},
      {"nvm_writes", {got.nvm_writes, w.nvm_writes}},
      {"nvm_boundary_writes", {got.nvm_boundary_writes, w.nvm_boundary_writes}},
      {"nvm_bits_written", {got.nvm_bits_written, w.nvm_bits_written}},
      {"tasks_executed", {got.tasks_executed, w.tasks_executed}},
      {"tasks_reexecuted", {got.tasks_reexecuted, w.tasks_reexecuted}},
      {"task_aborts", {got.task_aborts, w.task_aborts}},
  };
  for (const auto& [name, v] : counts) {
    if (v.first != v.second) {
      ADD_FAILURE() << tag << ": " << name << " " << v.first << " vs "
                    << v.second;
      return false;
    }
  }
  if (sim.events().size() != want.events.size()) {
    ADD_FAILURE() << tag << ": " << sim.events().size() << " events vs "
                  << want.events.size();
    return false;
  }
  for (std::size_t i = 0; i < want.events.size(); ++i) {
    const SimEvent& a = sim.events()[i];
    const SimEvent& b = want.events[i];
    if (a.kind != b.kind || !same_bits(a.t, b.t)) {
      ADD_FAILURE() << tag << ": event " << i << " differs";
      return false;
    }
  }
  if (sim.trace().size() != want.trace.size()) {
    ADD_FAILURE() << tag << ": " << sim.trace().size()
                  << " trace points vs " << want.trace.size();
    return false;
  }
  for (std::size_t i = 0; i < want.trace.size(); ++i) {
    const TracePoint& a = sim.trace()[i];
    const TracePoint& b = want.trace[i];
    if (!same_bits(a.t, b.t) || !same_bits(a.energy, b.energy) ||
        !same_bits(a.harvest_power, b.harvest_power) || a.state != b.state) {
      ADD_FAILURE() << tag << ": trace point " << i << " differs";
      return false;
    }
  }
  return true;
}

struct Variant {
  const char* name;
  SimulatorOptions options;
  FsmConfig config;
};

std::vector<Variant> variants() {
  SimulatorOptions base;
  base.target_instances = 6;
  base.max_time = 20000;
  std::vector<Variant> v;
  v.push_back({"ideal", base, {}});
  Variant lossy{"lossy", base, {}};
  lossy.options.charge_efficiency = 0.8;
  lossy.options.storage_leakage = 20e-6;
  v.push_back(lossy);
  Variant traced{"traced", base, {}};
  traced.options.record_trace = true;
  traced.options.trace_interval = 3.7;
  v.push_back(traced);
  Variant adaptive{"adaptive", base, {}};
  adaptive.config.adaptive_sensing = true;
  adaptive.options.initial_energy_fraction = 0.15;
  v.push_back(adaptive);
  Variant tiny{"tiny_max_time", base, {}};
  tiny.options.max_time = 0.75;
  v.push_back(tiny);
  return v;
}

void check_circuit(const std::string& circuit) {
  const auto& ds = designs(circuit);
  const std::string csv =
      ::testing::TempDir() + "diac_oracle_replay_" + circuit + ".csv";
  RfidBurstSource::Options ro;
  ro.horizon = 3000.0;
  save_trace_csv(csv, RfidBurstSource(0xA11CE, ro), ro.horizon, 0.5);
  const PiecewiseTrace replayed = load_trace_csv(csv);
  std::remove(csv.c_str());

  std::vector<std::pair<std::string, std::unique_ptr<HarvestSource>>> sources;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    sources.emplace_back("rfid" + std::to_string(seed),
                         std::make_unique<RfidBurstSource>(seed));
  }
  sources.emplace_back("solar", std::make_unique<SolarSource>(5));
  sources.emplace_back("constant", std::make_unique<ConstantSource>(4.0e-3));
  sources.emplace_back("square",
                       std::make_unique<SquareWaveSource>(8.0e-3, 25.0, 0.2));
  sources.emplace_back("fig4", std::make_unique<PiecewiseTrace>(fig4_trace()));
  sources.emplace_back("replayed", std::make_unique<PiecewiseTrace>(replayed));

  for (Scheme scheme : kAllSchemes) {
    const IntermittentDesign& design =
        ds[static_cast<std::size_t>(scheme)].design;
    for (const Variant& v : variants()) {
      for (const auto& [name, source] : sources) {
        SimulatorOptions options = v.options;
        if (name == "fig4") options.max_time = std::min(options.max_time, 3600.0);
        const std::string tag = circuit + "/" + to_string(scheme) + "/" +
                                v.name + "/" + name;
        if (!agree(design, *source, v.config, options, tag)) return;
      }
    }
  }
}

TEST(EventEngineOracle, MatchesReferenceOnS27) { check_circuit("s27"); }
TEST(EventEngineOracle, MatchesReferenceOnS344) { check_circuit("s344"); }
TEST(EventEngineOracle, MatchesReferenceOnS1238) { check_circuit("s1238"); }

TEST(EventEngineOracle, SeededJitterAndMarginSweepMatchesReference) {
  // Jitter and entry margins move every operation's energy and every
  // entry level, so crossings fall at arbitrary offsets from the window
  // end, including within a rounding error of it.
  SplitMix64 rng(0x0DDBA11);
  const char* circuits[] = {"s27", "s344", "s1238"};
  for (int i = 0; i < 96; ++i) {
    const std::string circuit = circuits[i % 3];
    const Scheme scheme = kAllSchemes[static_cast<std::size_t>(i / 3) %
                                      kSchemeCount];
    FsmConfig config;
    config.op_jitter = rng.uniform(0.0, 0.3);
    config.entry_margin = rng.uniform(1.0, 1.6);
    config.adaptive_sensing = rng.chance(0.25);
    SimulatorOptions options;
    options.target_instances = 5;
    options.max_time = 15000;
    options.seed = rng.next();
    options.initial_energy_fraction = rng.uniform(0.1, 0.9);
    options.record_trace = rng.chance(0.25);
    options.trace_interval = rng.uniform(0.5, 10.0);
    if (rng.chance(0.3)) {
      options.charge_efficiency = rng.uniform(0.6, 1.0);
      options.storage_leakage = rng.uniform(0.0, 40e-6);
    }
    const std::uint64_t source_seed = rng.next();
    const std::unique_ptr<HarvestSource> source =
        i % 4 == 3 ? std::unique_ptr<HarvestSource>(
                         std::make_unique<SquareWaveSource>(
                             rng.uniform(4e-3, 12e-3), rng.uniform(5.0, 60.0),
                             rng.uniform(0.1, 0.9)))
                   : std::make_unique<RfidBurstSource>(source_seed);
    const IntermittentDesign& design =
        designs(circuit)[static_cast<std::size_t>(scheme)].design;
    const std::string tag = "sweep " + std::to_string(i) + " " + circuit +
                            "/" + to_string(scheme);
    if (!agree(design, *source, config, options, tag)) return;
  }
}

TEST(EventEngineOracle, PlanTablesMatchPerEventExpressions) {
  // The reference engine drives the same NodeMachine, so the plan's
  // tables (and the program's resume table) are checked here against the
  // expressions and the backward scan the machine once evaluated per
  // event, over coarse (Policy3) and fine (Policy1) trees.
  for (PolicyKind policy : {PolicyKind::kPolicy1, PolicyKind::kPolicy3}) {
    const Netlist nl = build_benchmark("s1238");
    SynthesisOptions so;
    so.policy = policy;
    const DiacSynthesizer synth(nl, lib(), so);
    for (Scheme scheme : kAllSchemes) {
      const IntermittentDesign design = synth.synthesize_scheme(scheme).design;
      FsmConfig config;
      config.entry_margin = 1.37;
      const SimulatorOptions options;
      const SimPlan plan(design, config, options);
      const TaskProgram program(design, config);
      const Thresholds th =
          thresholds_for(config, storage_capacity(options),
                         design.backup_energy(), program.max_step_energy());
      const std::string tag = std::string(to_string(policy)) + "/" +
                              to_string(scheme);
      EXPECT_TRUE(same_bits(plan.thresholds().safe, th.safe)) << tag;
      EXPECT_TRUE(same_bits(plan.thresholds().transmit, th.transmit)) << tag;
      EXPECT_TRUE(same_bits(plan.restore_level(),
                            th.safe + 1.25 * design.restore_energy()))
          << tag;
      ASSERT_EQ(plan.program().size(), program.size()) << tag;
      const int n = static_cast<int>(program.size());
      for (int k = -1; k <= n + 1; ++k) {
        // Just after the last persisted step strictly before k, or 0.
        int want = 0;
        for (int i = std::clamp(k, 0, n) - 1; i >= 0; --i) {
          if (program.steps()[static_cast<std::size_t>(i)].persist) {
            want = i + 1;
            break;
          }
        }
        ASSERT_EQ(plan.program().resume_after_loss(k), want)
            << tag << " step " << k;
      }
      for (std::size_t i = 0; i < program.size(); ++i) {
        const TaskStep& st = program.steps()[i];
        const double e =
            config.dispatch_energy + st.energy + st.persist_energy;
        ASSERT_TRUE(same_bits(plan.step_need(i),
                              th.safe + config.entry_margin * e))
            << tag << " step " << i;
      }
    }
  }
}

TEST(EventEngineOracle, SharedPlanMatchesPrivatePlan) {
  // A sweep's jobs share one plan; running through it is the same run as
  // through the plan the design constructor compiles privately.
  const IntermittentDesign& design =
      designs("s344")[static_cast<std::size_t>(Scheme::kDiac)].design;
  SimulatorOptions options;
  options.target_instances = 4;
  const SimPlan plan(design, FsmConfig{}, options);
  for (std::uint64_t seed : {3u, 9u}) {
    const RfidBurstSource source(seed);
    SystemSimulator shared(plan, source, options);
    SystemSimulator private_plan(design, source, FsmConfig{}, options);
    const RunStats a = shared.run();
    const RunStats b = private_plan.run();
    EXPECT_TRUE(same_bits(a.makespan, b.makespan));
    EXPECT_TRUE(same_bits(a.energy_consumed, b.energy_consumed));
    EXPECT_EQ(shared.events().size(), private_plan.events().size());
  }
  SimulatorOptions bigger = options;
  bigger.capacitance *= 2;
  const ConstantSource source(1e-3);
  EXPECT_THROW(SystemSimulator(plan, source, bigger), std::invalid_argument);
}

}  // namespace
}  // namespace diac
