// Pins the event engine's exact output.  One 128-bit digest covers every
// RunStats field, the SimEvent log and the recorded trace over a grid of
// designs, schemes and harvest sources, so any change that moves a single
// bit of the simulator's results (a reordered floating-point operation, a
// changed transition) fails here.  Refactors of the runtime must keep the
// literal unchanged; a change meant to alter results updates it and says
// why.
#include <gtest/gtest.h>

#include <string>

#include "diac/synthesizer.hpp"
#include "netlist/suite.hpp"
#include "runtime/simulator.hpp"
#include "util/exactfmt.hpp"
#include "util/hash128.hpp"

namespace diac {
namespace {

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::nominal_45nm();
  return l;
}

void feed(Fnv128& h, double v) { h.update_token(exact_encode_double(v)); }
void feed(Fnv128& h, long long v) { h.update_token(std::to_string(v)); }

void feed(Fnv128& h, const RunStats& s) {
  feed(h, s.makespan);
  feed(h, static_cast<long long>(s.instances_completed));
  feed(h, static_cast<long long>(s.workload_completed));
  feed(h, s.energy_consumed);
  feed(h, s.energy_harvested);
  feed(h, s.energy_wasted);
  feed(h, s.reexec_energy);
  feed(h, static_cast<long long>(s.backups));
  feed(h, static_cast<long long>(s.restores));
  feed(h, static_cast<long long>(s.safe_zone_saves));
  feed(h, static_cast<long long>(s.deep_outages));
  feed(h, static_cast<long long>(s.power_interrupts));
  feed(h, static_cast<long long>(s.nvm_writes));
  feed(h, static_cast<long long>(s.nvm_boundary_writes));
  feed(h, static_cast<long long>(s.nvm_bits_written));
  feed(h, static_cast<long long>(s.tasks_executed));
  feed(h, static_cast<long long>(s.tasks_reexecuted));
  feed(h, static_cast<long long>(s.task_aborts));
  feed(h, s.time_active);
  feed(h, s.time_sleep);
  feed(h, s.time_off);
  feed(h, s.time_backup);
}

// Runs one case twice — without and with trace recording, since trace
// samples split the integration intervals — and feeds both outcomes.
void feed_case(Fnv128& h, const IntermittentDesign& design,
               const HarvestSource& source, SimulatorOptions options,
               FsmConfig config = {}) {
  for (bool record : {false, true}) {
    options.record_trace = record;
    SystemSimulator sim(design, source, config, options);
    feed(h, sim.run());
    feed(h, static_cast<long long>(sim.events().size()));
    for (const SimEvent& e : sim.events()) {
      feed(h, static_cast<long long>(e.kind));
      feed(h, e.t);
    }
    feed(h, static_cast<long long>(sim.trace().size()));
    for (const TracePoint& p : sim.trace()) {
      feed(h, p.t);
      feed(h, p.energy);
      feed(h, p.harvest_power);
      feed(h, static_cast<long long>(p.state));
    }
  }
}

TEST(SimDigest, EventEngineOutputIsPinned) {
  Fnv128 h;
  for (const char* bench : {"s344", "s820"}) {
    const Netlist nl = build_benchmark(bench);
    const DiacSynthesizer synth(nl, lib());
    for (Scheme scheme : {Scheme::kNvBased, Scheme::kNvClustering,
                          Scheme::kDiac, Scheme::kDiacOptimized}) {
      const SynthesisResult r = synth.synthesize_scheme(scheme);
      SimulatorOptions opt;
      opt.target_instances = 6;
      opt.max_time = 20000;
      opt.trace_interval = 5.0;
      feed_case(h, r.design, ConstantSource(4.0e-3), opt);
      feed_case(h, r.design, SquareWaveSource(8.0e-3, 25.0, 0.2), opt);
      feed_case(h, r.design, RfidBurstSource(7), opt);
      feed_case(h, r.design, SolarSource(5), opt);
      SimulatorOptions fig4 = opt;
      fig4.target_instances = 1000;  // run the whole scripted trace
      fig4.max_time = 3600;
      feed_case(h, r.design, fig4_trace(), fig4);
    }
  }
  // The non-ideal corner: lossy charging, self-discharge and adaptive
  // sensing together.
  const Netlist nl = build_benchmark("s344");
  const SynthesisResult r =
      DiacSynthesizer(nl, lib()).synthesize_scheme(Scheme::kDiacOptimized);
  SimulatorOptions opt;
  opt.target_instances = 4;
  opt.max_time = 20000;
  opt.charge_efficiency = 0.8;
  opt.storage_leakage = 20e-6;
  FsmConfig cfg;
  cfg.adaptive_sensing = true;
  feed_case(h, r.design, RfidBurstSource(5), opt, cfg);

  EXPECT_EQ(hash_hex(h.digest()), "52566cf4c23791944ab884daa6e7dd8c");
}

}  // namespace
}  // namespace diac
