#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <list>
#include <map>
#include <memory>

#include "diac/synthesizer.hpp"
#include "metrics/pdp.hpp"
#include "netlist/suite.hpp"
#include "runtime/simulator.hpp"
#include "util/rng.hpp"

namespace diac {
namespace {

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::nominal_45nm();
  return l;
}

SynthesisResult synth(const std::string& name, Scheme scheme) {
  static std::list<Netlist> cache;
  cache.push_back(build_benchmark(name));
  return DiacSynthesizer(cache.back(), lib()).synthesize_scheme(scheme);
}

SimulatorOptions quick(int instances = 3) {
  SimulatorOptions opt;
  opt.target_instances = instances;
  opt.max_time = 4000;
  return opt;
}

TEST(Simulator, CompletesWorkloadWithAmplePower) {
  const auto r = synth("s344", Scheme::kDiac);
  const ConstantSource source(10.0e-3);
  SystemSimulator sim(r.design, source, FsmConfig{}, quick());
  const RunStats stats = sim.run();
  EXPECT_TRUE(stats.workload_completed);
  EXPECT_EQ(stats.instances_completed, 3);
  EXPECT_GT(stats.energy_consumed, 0.0);
  EXPECT_GT(stats.makespan, 0.0);
}

TEST(Simulator, NoPowerNoProgress) {
  const auto r = synth("s344", Scheme::kDiac);
  const ConstantSource source(0.0);
  SimulatorOptions opt = quick();
  opt.max_time = 200;
  SystemSimulator sim(r.design, source, FsmConfig{}, opt);
  const RunStats stats = sim.run();
  EXPECT_FALSE(stats.workload_completed);
  EXPECT_EQ(stats.instances_completed, 0);
}

TEST(Simulator, EnergyConservation) {
  // consumed <= initial + harvested (no energy from nowhere).
  const auto r = synth("s344", Scheme::kDiac);
  const RfidBurstSource source(42);
  SystemSimulator sim(r.design, source, FsmConfig{}, quick());
  const RunStats stats = sim.run();
  const double initial = 0.5 * 25.0e-3;
  EXPECT_LE(stats.energy_consumed, initial + stats.energy_harvested + 1e-9);
}

TEST(Simulator, DeterministicRuns) {
  const auto r = synth("s344", Scheme::kDiac);
  const RfidBurstSource source(42);
  SystemSimulator a(r.design, source, FsmConfig{}, quick());
  SystemSimulator b(r.design, source, FsmConfig{}, quick());
  const RunStats sa = a.run();
  const RunStats sb = b.run();
  EXPECT_DOUBLE_EQ(sa.energy_consumed, sb.energy_consumed);
  EXPECT_DOUBLE_EQ(sa.makespan, sb.makespan);
  EXPECT_EQ(sa.nvm_writes, sb.nvm_writes);
  EXPECT_EQ(sa.backups, sb.backups);
}

TEST(Simulator, ScarcePowerForcesDutyCycling) {
  const auto r = synth("s344", Scheme::kDiac);
  // 1.5 mW against a 3 mW active draw: the node must sleep-recharge.
  const ConstantSource source(1.5e-3);
  SystemSimulator sim(r.design, source, FsmConfig{}, quick(2));
  const RunStats stats = sim.run();
  EXPECT_TRUE(stats.workload_completed);
  EXPECT_GT(stats.time_sleep, 0.5 * stats.time_active);
}

TEST(Simulator, NvBasedWritesEveryTask) {
  const auto r = synth("s344", Scheme::kNvBased);
  const ConstantSource source(10.0e-3);
  SystemSimulator sim(r.design, source, FsmConfig{}, quick(2));
  const RunStats stats = sim.run();
  EXPECT_EQ(stats.nvm_boundary_writes, stats.tasks_executed);
}

TEST(Simulator, DiacWritesOnlyCommits) {
  const auto r = synth("s344", Scheme::kDiac);
  const ConstantSource source(10.0e-3);
  SystemSimulator sim(r.design, source, FsmConfig{}, quick(2));
  const RunStats stats = sim.run();
  EXPECT_LT(stats.nvm_boundary_writes, stats.tasks_executed);
  EXPECT_EQ(stats.nvm_boundary_writes,
            2 * static_cast<int>(r.replacement.points.size()));
}

TEST(Simulator, SquareWaveCausesInterrupts) {
  const auto r = synth("s820", Scheme::kDiac);
  // 5 s bursts, 20 s gaps: long gaps walk the store down to Th_Bk.
  const SquareWaveSource source(8.0e-3, 25.0, 0.2);
  SimulatorOptions opt = quick(2);
  opt.max_time = 3000;
  SystemSimulator sim(r.design, source, FsmConfig{}, opt);
  const RunStats stats = sim.run();
  EXPECT_GT(stats.power_interrupts, 0);
  EXPECT_GT(stats.backups, 0);
}

TEST(Simulator, SafeZoneSavesOnlyForOptimized) {
  const SquareWaveSource source(8.0e-3, 12.0, 0.35);
  SimulatorOptions opt = quick(3);
  opt.max_time = 3000;
  const auto plain = synth("s820", Scheme::kDiac);
  const auto optim = synth("s820", Scheme::kDiacOptimized);
  SystemSimulator sp(plain.design, source, FsmConfig{}, opt);
  SystemSimulator so(optim.design, source, FsmConfig{}, opt);
  const RunStats stats_plain = sp.run();
  const RunStats stats_opt = so.run();
  EXPECT_EQ(stats_plain.safe_zone_saves, 0);
  // The optimized runtime should convert at least some dips into saves and
  // back up no more often than the plain design.
  EXPECT_GE(stats_opt.safe_zone_saves, 0);
  EXPECT_LE(stats_opt.backups, stats_plain.backups);
}

TEST(Simulator, DeepOutageTriggersRestoreAndReexecution) {
  const auto r = synth("s1238", Scheme::kDiac);
  // Bursts separated by long dead gaps; sleep drain forces Th_Off.
  const SquareWaveSource source(9.0e-3, 40.0, 0.3);
  FsmConfig cfg;
  cfg.sleep_power = 300.0e-6;  // aggressive drain for the test
  cfg.sleep_power_backed_up = 300.0e-6;
  SimulatorOptions opt = quick(2);
  opt.max_time = 4000;
  SystemSimulator sim(r.design, source, cfg, opt);
  const RunStats stats = sim.run();
  EXPECT_GT(stats.deep_outages, 0);
  EXPECT_GT(stats.restores, 0);
  EXPECT_GT(stats.tasks_reexecuted, 0);  // DIAC rolls back to commits
  EXPECT_GT(stats.reexec_energy, 0.0);
  EXPECT_LT(stats.forward_progress(), 1.0);
}

TEST(Simulator, CheckpointSchemeNeverReexecutes) {
  const auto r = synth("s1238", Scheme::kNvBased);
  const SquareWaveSource source(9.0e-3, 40.0, 0.3);
  FsmConfig cfg;
  cfg.sleep_power = 300.0e-6;
  cfg.sleep_power_backed_up = 300.0e-6;
  SimulatorOptions opt = quick(2);
  opt.max_time = 4000;
  SystemSimulator sim(r.design, source, cfg, opt);
  const RunStats stats = sim.run();
  EXPECT_GT(stats.deep_outages, 0);
  EXPECT_EQ(stats.tasks_reexecuted, 0);
  EXPECT_DOUBLE_EQ(stats.forward_progress(), 1.0);
}

TEST(Simulator, TraceRecordingSamples) {
  const auto r = synth("s344", Scheme::kDiac);
  const ConstantSource source(5.0e-3);
  SimulatorOptions opt = quick(2);
  opt.record_trace = true;
  opt.trace_interval = 0.5;
  SystemSimulator sim(r.design, source, FsmConfig{}, opt);
  const RunStats stats = sim.run();
  ASSERT_FALSE(sim.trace().empty());
  EXPECT_NEAR(static_cast<double>(sim.trace().size()) * 0.5,
              stats.makespan, 2.0);
  for (const TracePoint& p : sim.trace()) {
    EXPECT_GE(p.energy, 0.0);
    EXPECT_LE(p.energy, sim.e_max() + 1e-12);
  }
}

TEST(Simulator, EventsAreTimeOrdered) {
  const auto r = synth("s820", Scheme::kDiacOptimized);
  const RfidBurstSource source(7);
  SystemSimulator sim(r.design, source, FsmConfig{}, quick(3));
  sim.run();
  double last = -1;
  for (const SimEvent& e : sim.events()) {
    EXPECT_GE(e.t, last);
    last = e.t;
  }
}

TEST(Simulator, InstanceDoneEventsMatchCount) {
  const auto r = synth("s344", Scheme::kDiac);
  const ConstantSource source(8.0e-3);
  SystemSimulator sim(r.design, source, FsmConfig{}, quick(3));
  const RunStats stats = sim.run();
  int done = 0;
  for (const SimEvent& e : sim.events()) {
    done += e.kind == SimEvent::Kind::kInstanceDone;
  }
  EXPECT_EQ(done, stats.instances_completed);
}

TEST(Simulator, ThresholdStackScalesWithScheme) {
  const auto nvb = synth("s1238", Scheme::kNvBased);
  const auto diac = synth("s1238", Scheme::kDiac);
  const ConstantSource source(5e-3);
  SystemSimulator sn(nvb.design, source, FsmConfig{}, quick());
  SystemSimulator sd(diac.design, source, FsmConfig{}, quick());
  // Backup events are control-sized for every scheme, so the stacks agree.
  EXPECT_NEAR(sn.thresholds().backup, sd.thresholds().backup, 1e-9);
  EXPECT_NO_THROW(sn.thresholds().validate());
}

TEST(Simulator, RejectsBadOptions) {
  const auto r = synth("s344", Scheme::kDiac);
  const ConstantSource source(5e-3);
  auto rejects = [&](auto mutate) {
    SimulatorOptions opt;
    mutate(opt);
    EXPECT_THROW(SystemSimulator(r.design, source, FsmConfig{}, opt),
                 std::invalid_argument);
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  rejects([](SimulatorOptions& o) { o.target_instances = 0; });
  rejects([](SimulatorOptions& o) { o.target_instances = -3; });
  rejects([](SimulatorOptions& o) { o.max_time = -1; });
  rejects([](SimulatorOptions& o) { o.max_time = 0; });
  rejects([&](SimulatorOptions& o) { o.max_time = nan; });
  rejects([&](SimulatorOptions& o) { o.max_time = inf; });
  rejects([](SimulatorOptions& o) { o.capacitance = 0; });
  rejects([&](SimulatorOptions& o) { o.capacitance = nan; });
  rejects([&](SimulatorOptions& o) { o.capacitance = inf; });
  rejects([](SimulatorOptions& o) { o.voltage = -5; });
  rejects([&](SimulatorOptions& o) { o.voltage = nan; });
  rejects([&](SimulatorOptions& o) { o.voltage = inf; });
  rejects([](SimulatorOptions& o) { o.initial_energy_fraction = -0.1; });
  rejects([](SimulatorOptions& o) { o.initial_energy_fraction = 1.5; });
  rejects([&](SimulatorOptions& o) { o.initial_energy_fraction = nan; });
  rejects([](SimulatorOptions& o) { o.charge_efficiency = 0; });
  rejects([](SimulatorOptions& o) { o.charge_efficiency = 1.5; });
  rejects([](SimulatorOptions& o) { o.charge_efficiency = -0.2; });
  rejects([&](SimulatorOptions& o) { o.charge_efficiency = nan; });
  rejects([](SimulatorOptions& o) { o.storage_leakage = -1e-6; });
  rejects([&](SimulatorOptions& o) { o.storage_leakage = nan; });
  rejects([&](SimulatorOptions& o) { o.storage_leakage = inf; });
  rejects([](SimulatorOptions& o) { o.trace_interval = 0; });
  rejects([](SimulatorOptions& o) { o.trace_interval = -2; });
  rejects([&](SimulatorOptions& o) { o.trace_interval = nan; });
  rejects([&](SimulatorOptions& o) { o.trace_interval = inf; });
}

TEST(Simulator, ValidationIsIndependentOfTraceRecording) {
  // A non-positive trace_interval is rejected even when record_trace is
  // off — silently accepting it used to produce nonsense once a caller
  // flipped recording on.
  const auto r = synth("s344", Scheme::kDiac);
  const ConstantSource source(5e-3);
  SimulatorOptions opt;
  opt.record_trace = false;
  opt.trace_interval = 0;
  EXPECT_THROW(SystemSimulator(r.design, source, FsmConfig{}, opt),
               std::invalid_argument);
}

TEST(Simulator, AdaptiveSensingSlowsSamplingWhenScarce) {
  const auto r = synth("s344", Scheme::kDiacOptimized);
  // Scarce constant supply: energy hovers below the compute threshold
  // between instances, so adaptive sensing stretches the interval and
  // completes the same workload with fewer or equal sense operations in
  // more or equal wall time per instance (it samples less often).
  const ConstantSource source(1.2e-3);
  SimulatorOptions opt = quick(3);
  opt.max_time = 10000;
  FsmConfig normal;
  FsmConfig adaptive;
  adaptive.adaptive_sensing = true;
  adaptive.adaptive_slowdown = 8.0;
  SystemSimulator sn(r.design, source, normal, opt);
  SystemSimulator sa(r.design, source, adaptive, opt);
  const RunStats stats_n = sn.run();
  const RunStats stats_a = sa.run();
  EXPECT_TRUE(stats_n.workload_completed);
  EXPECT_TRUE(stats_a.workload_completed);
  EXPECT_GE(stats_a.makespan, stats_n.makespan * 0.99);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Every RunStats field, floating-point ones bit for bit.
bool same_stats(const RunStats& a, const RunStats& b) {
  return same_bits(a.makespan, b.makespan) &&
         a.instances_completed == b.instances_completed &&
         a.workload_completed == b.workload_completed &&
         same_bits(a.energy_consumed, b.energy_consumed) &&
         same_bits(a.energy_harvested, b.energy_harvested) &&
         same_bits(a.energy_wasted, b.energy_wasted) &&
         same_bits(a.reexec_energy, b.reexec_energy) &&
         a.backups == b.backups && a.restores == b.restores &&
         a.safe_zone_saves == b.safe_zone_saves &&
         a.deep_outages == b.deep_outages &&
         a.power_interrupts == b.power_interrupts &&
         a.nvm_writes == b.nvm_writes &&
         a.nvm_boundary_writes == b.nvm_boundary_writes &&
         a.nvm_bits_written == b.nvm_bits_written &&
         a.tasks_executed == b.tasks_executed &&
         a.tasks_reexecuted == b.tasks_reexecuted &&
         a.task_aborts == b.task_aborts &&
         same_bits(a.time_active, b.time_active) &&
         same_bits(a.time_sleep, b.time_sleep) &&
         same_bits(a.time_off, b.time_off) &&
         same_bits(a.time_backup, b.time_backup);
}

bool same_events(const std::vector<SimEvent>& a,
                 const std::vector<SimEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || !same_bits(a[i].t, b[i].t)) return false;
  }
  return true;
}

bool same_trace(const std::vector<TracePoint>& a,
                const std::vector<TracePoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i].t, b[i].t) || !same_bits(a[i].energy, b[i].energy) ||
        !same_bits(a[i].harvest_power, b[i].harvest_power) ||
        a[i].state != b[i].state) {
      return false;
    }
  }
  return true;
}

TEST(Simulator, SensingWitnessImpliesIdenticalTwinRun) {
  // A run whose sensing witness stays clear must be its twin's run (the
  // same plan under the other sensing mode) bit for bit: RunStats, events
  // and trace.  The witness is symmetric, so the twin's own witness must
  // agree.  The seeded sweep varies circuit, scheme, source, seeds, the
  // sense interval, the slowdown and the operation jitter, and must see
  // both outcomes.
  std::map<std::pair<std::string, Scheme>, SynthesisResult> designs;
  SplitMix64 rng(0x5E45E);
  const char* circuits[] = {"s27", "s344", "s1238"};
  int clean = 0;
  int fired = 0;
  for (int i = 0; i < 240; ++i) {
    const std::string circuit = circuits[i % 3];
    const Scheme scheme =
        kAllSchemes[static_cast<std::size_t>(i / 3) % kSchemeCount];
    auto it = designs.find({circuit, scheme});
    if (it == designs.end()) {
      it = designs.emplace(std::make_pair(circuit, scheme),
                           synth(circuit, scheme)).first;
    }
    const IntermittentDesign& design = it->second.design;

    FsmConfig config;
    config.sense_interval = rng.uniform(0.5, 60.0);
    config.op_jitter = rng.uniform(0.0, 0.3);
    config.adaptive_sensing = rng.chance(0.5);
    config.adaptive_slowdown = rng.uniform(1.5, 8.0);
    SimulatorOptions options;
    options.target_instances = 12;
    options.max_time = 20000;
    options.seed = rng.next();
    options.initial_energy_fraction = rng.uniform(0.1, 0.9);
    options.record_trace = true;
    options.trace_interval = rng.uniform(5.0, 50.0);
    const std::uint64_t source_seed = rng.next();
    std::unique_ptr<HarvestSource> source;
    switch (i % 4) {
      case 0: source = std::make_unique<RfidBurstSource>(source_seed); break;
      case 1:
        source = std::make_unique<ConstantSource>(rng.uniform(0.5e-3, 8e-3));
        break;
      case 2: {
        SolarSource::Options solar;
        solar.horizon = options.max_time;
        source = std::make_unique<SolarSource>(source_seed, solar);
        break;
      }
      default:
        source = std::make_unique<SquareWaveSource>(
            rng.uniform(4e-3, 12e-3), rng.uniform(5.0, 60.0),
            rng.uniform(0.1, 0.9));
        break;
    }
    FsmConfig twin_config = config;
    twin_config.adaptive_sensing = !config.adaptive_sensing;

    SystemSimulator sim(design, *source, config, options);
    SystemSimulator twin(design, *source, twin_config, options);
    const RunStats a = sim.run();
    const RunStats b = twin.run();
    const std::string tag = "case " + std::to_string(i) + " " + circuit +
                            "/" + to_string(scheme);
    ASSERT_EQ(sim.sensing_mode_mattered(), twin.sensing_mode_mattered())
        << tag;
    if (sim.sensing_mode_mattered()) {
      ++fired;
      continue;
    }
    ++clean;
    ASSERT_TRUE(same_stats(a, b)) << tag;
    ASSERT_TRUE(same_events(sim.events(), twin.events())) << tag;
    ASSERT_FALSE(sim.trace().empty()) << tag;
    ASSERT_TRUE(same_trace(sim.trace(), twin.trace())) << tag;
  }
  EXPECT_GT(clean, 0);
  EXPECT_GT(fired, 0);
}

TEST(Simulator, NonIdealStorageSlowsEveryone) {
  const auto r = synth("s344", Scheme::kDiac);
  const ConstantSource source(2.5e-3);
  SimulatorOptions ideal = quick(2);
  SimulatorOptions lossy = quick(2);
  lossy.charge_efficiency = 0.7;
  lossy.storage_leakage = 50e-6;
  SystemSimulator si(r.design, source, FsmConfig{}, ideal);
  SystemSimulator sl(r.design, source, FsmConfig{}, lossy);
  const RunStats a = si.run();
  const RunStats b = sl.run();
  ASSERT_TRUE(a.workload_completed);
  ASSERT_TRUE(b.workload_completed);
  EXPECT_GT(b.makespan, a.makespan);
}

TEST(Simulator, PdpPositiveAndFinite) {
  const auto r = synth("s344", Scheme::kDiac);
  const RfidBurstSource source(13);
  SystemSimulator sim(r.design, source, FsmConfig{}, quick(2));
  const RunStats stats = sim.run();
  ASSERT_TRUE(stats.workload_completed);
  EXPECT_GT(stats.pdp(), 0.0);
  EXPECT_GT(stats.energy_per_instance(), 0.0);
  EXPECT_GT(stats.time_per_instance(), 0.0);
}

}  // namespace
}  // namespace diac
