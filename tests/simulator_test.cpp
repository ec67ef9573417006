#include <gtest/gtest.h>

#include <limits>
#include <list>

#include "diac/synthesizer.hpp"
#include "netlist/suite.hpp"
#include "runtime/simulator.hpp"

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
