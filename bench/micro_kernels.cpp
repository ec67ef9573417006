// Google-benchmark micro-kernels for the framework's hot paths: netlist
// synthesis, tree generation, policy transforms, NVM insertion, logic
// simulation and the system simulator.  These document the tool's own
// runtime cost (the "efficient, precise, automated design tool" claim of
// SIII.A).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <list>
#include <memory>

#include "diac/codegen.hpp"
#include "diac/synthesizer.hpp"
#include "exp/trace_library.hpp"
#include "serve/cache.hpp"
#include "metrics/montecarlo.hpp"
#include "metrics/trace_sweep.hpp"
#include "netlist/bench_format.hpp"
#include "netlist/blif_format.hpp"
#include "netlist/compiled_sim.hpp"
#include "netlist/generators.hpp"
#include "netlist/suite.hpp"
#include "netlist/transforms.hpp"
#include "netlist/verilog_format.hpp"
#include "power/trace_io.hpp"
#include "runtime/simulator.hpp"
#include "search/engine.hpp"
#include "shard/coordinator.hpp"
#include "shard/merge.hpp"
#include "shard/row_cache.hpp"
#include "shard/worker.hpp"
#include "verify/drc.hpp"
#include "verify/equivalence.hpp"

namespace {

using namespace diac;

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::nominal_45nm();
  return l;
}

const Netlist& circuit(const std::string& name) {
  static std::list<std::pair<std::string, Netlist>> cache;
  for (const auto& [n, nl] : cache) {
    if (n == name) return nl;
  }
  cache.emplace_back(name, build_benchmark(name));
  return cache.back().second;
}

void BM_BuildBenchmark(benchmark::State& state, const std::string& name) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_benchmark(name));
  }
}
BENCHMARK_CAPTURE(BM_BuildBenchmark, s1238, std::string("s1238"));
BENCHMARK_CAPTURE(BM_BuildBenchmark, b14, std::string("b14"));
BENCHMARK_CAPTURE(BM_BuildBenchmark, s38417, std::string("s38417"));

// The one structural check every load runs (seal() calls it once).
void BM_NetlistValidate(benchmark::State& state, const std::string& name) {
  const Netlist& nl = circuit(name);
  for (auto _ : state) nl.validate();
}
BENCHMARK_CAPTURE(BM_NetlistValidate, s38417, std::string("s38417"));

void BM_InitialTree(benchmark::State& state, const std::string& name) {
  const Netlist& nl = circuit(name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(initial_tree(nl, lib()));
  }
}
BENCHMARK_CAPTURE(BM_InitialTree, s1238, std::string("s1238"));
BENCHMARK_CAPTURE(BM_InitialTree, b14, std::string("b14"));
BENCHMARK_CAPTURE(BM_InitialTree, s38417, std::string("s38417"));

void BM_Policy3(benchmark::State& state, const std::string& name) {
  const Netlist& nl = circuit(name);
  const TaskTree tree = initial_tree(nl, lib());
  PolicyLimits limits;
  limits.scale = 40.0e-3 / tree.total_energy();
  limits.upper = 0.75e-3;
  limits.lower = 0.6e-3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(apply_policy(tree, PolicyKind::kPolicy3, limits));
  }
}
BENCHMARK_CAPTURE(BM_Policy3, s1238, std::string("s1238"));
BENCHMARK_CAPTURE(BM_Policy3, b14, std::string("b14"));
BENCHMARK_CAPTURE(BM_Policy3, s38417, std::string("s38417"));

void BM_NvmInsertion(benchmark::State& state) {
  const Netlist& nl = circuit("s1238");
  DiacSynthesizer synth(nl, lib());
  TaskTree tree = synth.transformed_tree();
  ReplacementOptions ro;
  ro.scale = 40.0e-3 / tree.total_energy();
  ro.budget = 6.25e-3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(insert_nvm(tree, ro));
  }
}
BENCHMARK(BM_NvmInsertion);

// synth100k is a ~100k-gate synthetic stress circuit.
const Netlist& synth100k() {
  static const Netlist nl =
      gen::random_logic("synth100k", 64, 32, 100000, 0xC1ABULL);
  return nl;
}

// The `gates` counter lets tools/run_bench.sh check that synthesis time
// grows linearly with circuit size (synth100k vs s38417).
void BM_FullSynthesis(benchmark::State& state, const std::string& name) {
  const Netlist& nl = name == "synth100k" ? synth100k() : circuit(name);
  for (auto _ : state) {
    DiacSynthesizer synth(nl, lib());
    benchmark::DoNotOptimize(synth.synthesize());
  }
  state.counters["gates"] = static_cast<double>(nl.logic_gate_count());
}
BENCHMARK_CAPTURE(BM_FullSynthesis, s1238, std::string("s1238"));
BENCHMARK_CAPTURE(BM_FullSynthesis, s38417, std::string("s38417"));
BENCHMARK_CAPTURE(BM_FullSynthesis, synth100k, std::string("synth100k"));

// BM_NetlistParse: single-threaded reader throughput on s38417 text —
// the BENCH and BLIF writers' output and the DIAC design's emitted
// Verilog (what `diac check` re-imports), reported as MB per second.
void BM_NetlistParse(benchmark::State& state, const std::string& format) {
  static const std::string bench = to_bench_string(circuit("s38417"));
  static const std::string blif = to_blif_string(circuit("s38417"));
  static const std::string verilog = generate_verilog(
      DiacSynthesizer(circuit("s38417"), lib()).synthesize().design);
  const std::string& text =
      format == "bench" ? bench : format == "blif" ? blif : verilog;
  for (auto _ : state) {
    if (format == "bench") {
      benchmark::DoNotOptimize(parse_bench(text, "s38417").size());
    } else if (format == "blif") {
      benchmark::DoNotOptimize(parse_blif(text).size());
    } else {
      benchmark::DoNotOptimize(parse_structural_verilog(text).netlist.size());
    }
  }
  state.counters["MB_per_s"] =
      benchmark::Counter(static_cast<double>(text.size()) / 1e6,
                         benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK_CAPTURE(BM_NetlistParse, bench, std::string("bench"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_NetlistParse, blif, std::string("blif"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_NetlistParse, verilog, std::string("verilog"))
    ->Unit(benchmark::kMillisecond);

// The two phases of `diac check` that apply the Verilog identifier rule
// to every gate: emitting the DIAC design's Verilog (one reserved
// string), and the full netlist DRC, N1-N6, whose N5 scans each name in
// place.
void BM_CodegenEmit(benchmark::State& state) {
  static const SynthesisResult r =
      DiacSynthesizer(circuit("s38417"), lib()).synthesize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_verilog(r.design).size());
  }
}
BENCHMARK(BM_CodegenEmit)
    ->Name("BM_CodegenEmit/s38417")
    ->Unit(benchmark::kMillisecond);

void BM_Drc(benchmark::State& state, const std::string& name) {
  const Netlist& nl = circuit(name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify::run_drc(nl).findings.size());
  }
}
BENCHMARK_CAPTURE(BM_Drc, s38417, std::string("s38417"))
    ->Unit(benchmark::kMillisecond);

// Full equivalence check (circuit vs its cleanup()) on the largest suite
// circuit: random fingerprint rounds through two lockstep compiled
// simulators.  items/sec counts checked pattern-cycles.
void BM_EquivCheck(benchmark::State& state, const std::string& name) {
  const Netlist& a = circuit(name);
  const Netlist b = cleanup(a);
  verify::EquivalenceOptions opts;
  opts.random_rounds = 2;
  opts.seq_cycles = 4;
  for (auto _ : state) {
    const verify::EquivalenceResult r = verify::check_equivalence(a, b, opts);
    if (!r.equivalent()) state.SkipWithError("not equivalent");
    benchmark::DoNotOptimize(r.patterns);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(r.patterns));
  }
}
BENCHMARK_CAPTURE(BM_EquivCheck, s38417, std::string("s38417"));

// Multi-word batched stepping on the compiled kernel: B words per gate
// visit = 64*B patterns per traversal.  items/sec counts gate-pattern
// words (gates x B), so the speedup of B > 1 over B = 1 is the direct
// batching win.
void BM_LogicSimBatched(benchmark::State& state, const std::string& name) {
  const Netlist& nl = name == "synth100k" ? synth100k() : circuit(name);
  const int batch = static_cast<int>(state.range(0));
  CompiledSimulator sim(CompiledNetlist::compile(nl), batch);
  SplitMix64 rng(0xBA7C4ULL);
  for (GateId in : nl.inputs()) {
    for (int w = 0; w < batch; ++w) sim.set_input(in, rng.next(), w);
  }
  for (auto _ : state) {
    sim.step();
    benchmark::DoNotOptimize(sim.fingerprint());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(nl.logic_gate_count()) *
                          batch);
}
BENCHMARK_CAPTURE(BM_LogicSimBatched, s1238, std::string("s1238"))
    ->Arg(1)->Arg(4)->Arg(8);
BENCHMARK_CAPTURE(BM_LogicSimBatched, s38417, std::string("s38417"))
    ->Arg(1)->Arg(4)->Arg(8);
BENCHMARK_CAPTURE(BM_LogicSimBatched, synth100k, std::string("synth100k"))
    ->Arg(1)->Arg(4)->Arg(8);

// Observability overhead gate: the compiled-kernel step loop on the
// largest suite circuit with the obs instrumentation built in but idle
// (tracing off, counters counting — the shipping default).  Building
// with -DDIAC_OBS=OFF compiles the DIAC_OBS_*/DIAC_TRACE_* macros away
// entirely, so the ON-vs-OFF delta of this one entry is the whole obs
// cost on the hot path; the acceptance bar is < 2% (docs/
// OBSERVABILITY.md records the measured numbers).
void BM_ObsOverhead(benchmark::State& state, const std::string& name) {
  const Netlist& nl = circuit(name);
  CompiledSimulator sim(CompiledNetlist::compile(nl), 4);
  SplitMix64 rng(0xBA7C4ULL);
  for (GateId in : nl.inputs()) {
    for (int w = 0; w < 4; ++w) sim.set_input(in, rng.next(), w);
  }
  for (auto _ : state) {
    sim.step();
    benchmark::DoNotOptimize(sim.fingerprint());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(nl.logic_gate_count()) * 4);
}
BENCHMARK_CAPTURE(BM_ObsOverhead, s38417, std::string("s38417"));

void BM_SystemSimulation(benchmark::State& state) {
  const Netlist& nl = circuit("s1238");
  DiacSynthesizer synth(nl, lib());
  const auto sr = synth.synthesize_scheme(Scheme::kDiacOptimized);
  const RfidBurstSource source(0xBEEF);
  for (auto _ : state) {
    SimulatorOptions opt;
    opt.target_instances = 2;
    opt.max_time = 4000;
    SystemSimulator sim(sr.design, source, FsmConfig{}, opt);
    benchmark::DoNotOptimize(sim.run());
  }
}
// Named with its `/event` suffix so the micro trajectory stays comparable
// with captures that also held a stepped-engine variant.
BENCHMARK(BM_SystemSimulation)->Name("BM_SystemSimulation/event");

// mc_sweep: wall time of a 32-seed Monte-Carlo sweep (4 schemes x 32
// seeds = 128 simulations) through the experiment engine, at 1 thread and
// at full hardware concurrency.  This is the headline workload the
// event-driven core + parallel runner exist for; CI uploads the JSON so
// the trajectory is tracked per PR.
void BM_McSweep(benchmark::State& state) {
  const Netlist& nl = circuit("s1238");
  EvaluationOptions opt;
  opt.simulator.target_instances = 8;
  opt.simulator.max_time = 30000;
  ExperimentRunner runner(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluate_monte_carlo(nl, lib(), opt, 32, runner));
  }
  state.counters["jobs"] = static_cast<double>(runner.jobs());
}
BENCHMARK(BM_McSweep)->Name("mc_sweep")->Arg(1)->Arg(0)
    ->Unit(benchmark::kMillisecond);

// trace_replay: disk-to-result throughput of a measured-trace library
// sweep — load a directory of 100 supply CSVs (each file read exactly
// once per sweep) and replay every trace under all four schemes through
// the experiment engine, at 1 thread and at full hardware concurrency.
const std::string& trace_library_dir() {
  static const std::string dir = [] {
    namespace fs = std::filesystem;
    const fs::path root = fs::temp_directory_path() / "diac_bench_traces";
    // Start from a clean slate: stale or foreign CSVs in the shared temp
    // dir would silently change the swept workload.
    fs::remove_all(root);
    fs::create_directories(root);
    RfidBurstSource::Options options;
    options.horizon = 2000.0;
    for (int i = 0; i < 100; ++i) {
      char name[32];
      std::snprintf(name, sizeof(name), "trace_%03d.csv", i);
      const RfidBurstSource source(0x7AACE + i, options);
      save_trace_csv((root / name).string(), source, 2000.0, 0.5);
    }
    return root.string();
  }();
  return dir;
}

void BM_TraceReplay(benchmark::State& state) {
  const Netlist& nl = circuit("s1238");
  const std::string& dir = trace_library_dir();
  EvaluationOptions opt;
  opt.simulator.target_instances = 4;
  opt.simulator.max_time = 2000;
  ExperimentRunner runner(static_cast<int>(state.range(0)));
  std::size_t traces = 0;
  for (auto _ : state) {
    const TraceLibrary library = load_trace_library(dir);
    traces = library.entries.size();
    benchmark::DoNotOptimize(
        evaluate_trace_library(nl, lib(), opt, library, runner));
  }
  state.counters["traces"] = static_cast<double>(traces);
  state.counters["jobs"] = static_cast<double>(runner.jobs());
}
BENCHMARK(BM_TraceReplay)->Name("trace_replay")->Arg(1)->Arg(0)
    ->Unit(benchmark::kMillisecond);

// BM_TraceParse: single-threaded CSV ingestion throughput of the
// trace_replay library — load_trace_csv over its 100 files (read + parse
// + PiecewiseTrace build), reported as MB of CSV per second.
// tools/run_bench.sh gates the MB_per_s counter.
void BM_TraceParse(benchmark::State& state) {
  namespace fs = std::filesystem;
  const std::vector<std::string> files = list_trace_files(trace_library_dir());
  std::uintmax_t bytes = 0;
  for (const std::string& path : files) bytes += fs::file_size(path);
  std::size_t segments = 0;
  for (auto _ : state) {
    segments = 0;
    for (const std::string& path : files) {
      segments += load_trace_csv(path).segments().size();
    }
    benchmark::DoNotOptimize(segments);
  }
  state.counters["MB_per_s"] =
      benchmark::Counter(static_cast<double>(bytes) / 1e6,
                         benchmark::Counter::kIsIterationInvariantRate);
  state.counters["segments"] = static_cast<double>(segments);
}
BENCHMARK(BM_TraceParse)->Unit(benchmark::kMillisecond);

// BM_TraceWrite: single-threaded CSV writing throughput — save_trace_csv
// of the trace_replay library's 100 RFID sources (2000 s at 0.5 s, full
// double precision) into a temporary directory, reported as MB of CSV per
// second.  The sources are built (and their lazily generated traces
// materialized) once, outside the timed loop.  tools/run_bench.sh gates
// the MB_per_s counter.
void BM_TraceWrite(benchmark::State& state) {
  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() / "diac_bench_trace_write";
  fs::remove_all(root);
  fs::create_directories(root);
  RfidBurstSource::Options options;
  options.horizon = 2000.0;
  std::vector<std::unique_ptr<RfidBurstSource>> sources;
  std::vector<std::string> paths;
  for (int i = 0; i < 100; ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "trace_%03d.csv", i);
    sources.push_back(std::make_unique<RfidBurstSource>(0x7AACE + i, options));
    paths.push_back((root / name).string());
    benchmark::DoNotOptimize(sources.back()->power_at(options.horizon));
  }
  for (auto _ : state) {
    for (std::size_t i = 0; i < sources.size(); ++i) {
      save_trace_csv(paths[i], *sources[i], options.horizon, 0.5);
    }
  }
  std::uintmax_t bytes = 0;
  for (const std::string& path : paths) bytes += fs::file_size(path);
  state.counters["MB_per_s"] =
      benchmark::Counter(static_cast<double>(bytes) / 1e6,
                         benchmark::Counter::kIsIterationInvariantRate);
  state.counters["traces"] = static_cast<double>(sources.size());
  fs::remove_all(root);
}
BENCHMARK(BM_TraceWrite)->Unit(benchmark::kMillisecond);

// design_search: grid-to-front wall time of a full design-space search on
// b12 — synthesize the whole default candidate grid (72 candidates, one
// synthesis per unique design), evaluate everything on one shared RFID
// trace through the experiment engine (one simulation per design and
// sensing mode that can matter: `simulations` counts them), and rank the
// Pareto front; at 1 thread and at full hardware concurrency.  This is the headline workload the search
// subsystem exists for.
void BM_DesignSearch(benchmark::State& state) {
  const Netlist& nl = circuit("b12");
  const CandidateSpace space;
  const std::vector<DesignPoint> points = space.grid();
  SearchOptions opt;
  opt.scenario.seed = 0xD5E;
  opt.simulator.target_instances = 6;
  opt.simulator.max_time = 30000;
  ExperimentRunner runner(static_cast<int>(state.range(0)));
  std::size_t front = 0, simulations = 0;
  for (auto _ : state) {
    const SearchResult result = run_search(nl, lib(), points, opt, runner);
    front = result.front.size();
    simulations = result.simulations;
    benchmark::DoNotOptimize(result);
  }
  state.counters["candidates"] = static_cast<double>(points.size());
  state.counters["front"] = static_cast<double>(front);
  state.counters["simulations"] = static_cast<double>(simulations);
  state.counters["jobs"] = static_cast<double>(runner.jobs());
}
BENCHMARK(BM_DesignSearch)->Name("design_search")->Arg(1)->Arg(0)
    ->Unit(benchmark::kMillisecond);

// shard_sweep: end-to-end wall time of a multi-*process* Monte-Carlo
// sweep — spawn N single-threaded `diac shard-worker` processes over a
// 32-seed s1238 sweep (the `diac mc` workload: CLI defaults, 20000 s
// horizon — close to but not byte-for-byte mc_sweep's, which runs a
// 30000 s horizon under a different base seed), wait, and merge the
// row files back into the final statistics; at 1 worker and at 4
// workers.  The 1-vs-4 ratio tracks spawn + serialization + merge
// overhead against compute, i.e. how close process fan-out gets to
// linear before leaving the machine.  Requires the CLI binary
// (DIAC_CLI_PATH is injected by bench/CMakeLists.txt).
#ifdef DIAC_CLI_PATH
void BM_ShardSweep(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  constexpr int kRuns = 32;
  std::size_t samples = 0;
  for (auto _ : state) {
    ShardLaunch launch;
    launch.exe = DIAC_CLI_PATH;
    launch.args = {"shard-worker", "s1238", "--shard-cmd", "mc",
                   "--runs", std::to_string(kRuns), "--instances", "8",
                   "--threads", "1"};
    launch.shards = shards;
    const ShardFileSet files = run_shard_workers(launch);
    const MonteCarloResult mc = merge_mc_rows(
        decode_scheme_rows(merge_shard_rows(
            files.paths, "mc", static_cast<std::size_t>(shards), kRuns)),
        "s1238", 0);
    samples = mc.samples.size();
    benchmark::DoNotOptimize(mc);
  }
  state.counters["shards"] = static_cast<double>(shards);
  state.counters["runs"] = static_cast<double>(samples);
}
BENCHMARK(BM_ShardSweep)->Name("shard_sweep")->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond);
#endif  // DIAC_CLI_PATH

// BM_CacheWarmSweep: the content-addressed result cache's headline
// speedup — a 256-seed, 16-instance Monte-Carlo sweep on s1238 on one
// worker thread, cold (fresh cache directory every iteration, every row
// computed and stored) vs warm (store prepopulated once, every row a
// lookup).  The sweep is simulation-bound, so cold time is the compute a
// hit saves, not synthesis (which a fully-warm sweep skips), and one
// thread keeps the ratio independent of the host's cores.  The ratio is
// the `--cache-dir` / `diac serve` value proposition; run_bench.sh
// requires cold >= 5x warm and no miss on the warm path (`misses`
// counts lookups that fell through to compute).  Only compute + cache
// traffic is timed: the typed rows are discarded.
class MissCountingCache final : public RowCache {
 public:
  explicit MissCountingCache(RowCache& inner) : inner_(inner) {}
  bool lookup(const std::string& kind, const Hash128& key,
              std::vector<std::string>& tokens) override {
    const bool hit = inner_.lookup(kind, key, tokens);
    if (!hit) ++misses;
    return hit;
  }
  void store(const std::string& kind, const Hash128& key,
             const std::vector<std::string>& tokens) override {
    inner_.store(kind, key, tokens);
  }
  std::size_t misses = 0;

 private:
  RowCache& inner_;
};

void BM_CacheWarmSweep(benchmark::State& state, bool warm) {
  namespace fs = std::filesystem;
  const Netlist& nl = circuit("s1238");
  EvaluationOptions opt;
  opt.simulator.target_instances = 16;
  opt.simulator.max_time = 40000;
  constexpr int kRuns = 256;
  const fs::path root = fs::temp_directory_path() / "diac_bench_cache";
  ExperimentRunner runner(1);
  if (warm) {
    // One untimed cold pass fills the store the timed passes hit.
    fs::remove_all(root);
    serve::CacheConfig config;
    config.dir = root.string();
    serve::ResultCache cache(config);
    mc_rows(nl, lib(), opt, kRuns, ShardPlan{}, runner, &cache);
  }
  std::size_t misses = 0;
  for (auto _ : state) {
    if (!warm) fs::remove_all(root);
    serve::CacheConfig config;
    config.dir = root.string();
    serve::ResultCache store(config);
    MissCountingCache cache(store);
    benchmark::DoNotOptimize(
        mc_rows(nl, lib(), opt, kRuns, ShardPlan{}, runner, &cache));
    misses += cache.misses;
  }
  fs::remove_all(root);
  state.counters["runs"] = static_cast<double>(kRuns);
  state.counters["misses"] = static_cast<double>(misses);
}
BENCHMARK_CAPTURE(BM_CacheWarmSweep, cold, false)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK_CAPTURE(BM_CacheWarmSweep, warm, true)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
