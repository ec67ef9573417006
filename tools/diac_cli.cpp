// diac — command-line front-end for the DIAC flow.
//
// `diac help` prints the subcommand and option reference (print_usage
// below is the single source of truth for it).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "diac/codegen.hpp"
#include "diac/synthesizer.hpp"
#include "exp/experiment.hpp"
#include "metrics/montecarlo.hpp"
#include "metrics/trace_sweep.hpp"
#include "metrics/pdp.hpp"
#include "metrics/report.hpp"
#include "netlist/analysis.hpp"
#include "obs/build_info.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "search/engine.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/options.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "shard/codec.hpp"
#include "shard/coordinator.hpp"
#include "shard/merge.hpp"
#include "shard/plan.hpp"
#include "shard/worker.hpp"
#include "tree/dot_export.hpp"
#include "util/units.hpp"
#include "verify/design_check.hpp"
#include "verify/drc.hpp"
#include "verify/equivalence.hpp"

namespace {

using namespace diac;
using namespace diac::units;

struct Args {
  std::string command;
  std::string target;
  serve::OptionMap options;  // same map the serve protocol carries
  bool help = false;         // --help / -h anywhere after the command
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  int i = 2;
  if (i < argc && argv[i][0] != '-') args.target = argv[i++];
  while (i < argc) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      args.help = true;
      ++i;
      continue;
    }
    if (std::strncmp(argv[i], "--", 2) != 0) {
      throw std::runtime_error(std::string("expected option, got ") + argv[i]);
    }
    const std::string name = argv[i] + 2;
    // Bare flags are shared with the serve protocol, so both surfaces
    // tokenize identically.
    if (serve::is_flag_option(name)) {
      args.options[name] = "1";
      ++i;
      continue;
    }
    if (i + 1 >= argc) {
      throw std::runtime_error(std::string("option ") + argv[i] +
                               " requires a value");
    }
    args.options[name] = argv[i + 1];
    i += 2;
  }
  return args;
}

std::string opt(const Args& a, const std::string& key, const std::string& dflt) {
  return serve::option_or(a.options, key, dflt);
}

// Upper bound of --threads / --jobs / --shards.
constexpr long long kMaxThreads = 1024;

int shard_index(const Args& a) {
  return static_cast<int>(
      serve::int_option(a.options, "shard-index", 0, 0, kMaxThreads - 1));
}

// --cache-limit-mb in bytes (0 = unbounded).
std::uint64_t cache_limit_bytes(const Args& a) {
  return static_cast<std::uint64_t>(serve::int_option(
             a.options, "cache-limit-mb", 1024, 0, 1LL << 40))
         << 20;
}

// Global --threads N (0 = all cores, the default) plumbed into every
// ExperimentRunner; --jobs is the older spelling, kept as an alias
// (--threads wins when both are given).  Results are bit-identical at
// any thread count, so the default can afford to use the machine.
int threads_option(const Args& a) {
  const char* key = a.options.count("threads") != 0 ? "threads" : "jobs";
  return static_cast<int>(serve::int_option(a.options, key, 0, 0, kMaxThreads));
}

// --shards N (>= 1) routes mc/replay/search through N `diac` worker
// processes; absent keeps the in-process thread pool.  Sharded runs
// (including --shards 1) produce byte-identical reports for every N:
// diagnostics that depend on the split go to stderr.
int shards_option(const Args& a) {
  if (a.options.count("shards") == 0) return 0;
  return static_cast<int>(
      serve::int_option(a.options, "shards", 1, 1, kMaxThreads));
}

// --cache-dir <dir> [--cache-limit-mb <n>] -> on-disk result cache for
// mc/replay/search; absent = no cache.  Entries are exact rows keyed by
// canonical job digests, so cached sweeps stay byte-identical to cold
// ones (docs/SERVE.md).
std::unique_ptr<serve::ResultCache> cache_option(const Args& a) {
  const std::string dir = opt(a, "cache-dir", "");
  if (dir.empty()) return nullptr;
  serve::CacheConfig config;
  config.dir = dir;
  config.limit_bytes = cache_limit_bytes(a);
  return std::make_unique<serve::ResultCache>(std::move(config));
}

// --connect <socket> routes the sweep to a running `diac serve`; it is
// exclusive with the flags that steer local evaluation.
std::string connect_option(const Args& a) {
  const std::string socket = opt(a, "connect", "");
  if (socket.empty()) return socket;
  if (a.options.count("shards") != 0) {
    throw std::runtime_error("--connect and --shards are mutually exclusive");
  }
  if (a.options.count("cache-dir") != 0) {
    throw std::runtime_error(
        "--connect and --cache-dir are mutually exclusive (the cache lives "
        "on the server)");
  }
  return socket;
}

// The request that reproduces this invocation server-side: the sweep
// options minus the client-owned flags (output files, threading, and
// the transport itself).
serve::SweepRequest remote_request(const Args& a, const std::string& kind) {
  serve::SweepRequest request;
  request.kind = kind;
  request.target = a.target;
  for (const auto& [key, value] : a.options) {
    if (key == "connect" || key == "shards" || key == "threads" ||
        key == "jobs" || key == "csv" || key == "trace-out" ||
        key == "metrics-out" || key == "cache-dir" ||
        key == "cache-limit-mb") {
      continue;
    }
    request.options[key] = value;
  }
  return request;
}

const char* g_argv0 = "diac";

// The worker binary: this very executable, so parent and workers parse
// options with literally the same code and can never drift.
std::string self_exe() {
  std::error_code ec;
  const auto path = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (!ec) return path.string();
  return g_argv0;  // non-Linux fallback: argv[0] must then be invokable
}

// Rebuilds the worker argv from the parent's parsed arguments: the same
// target and options, minus the flags the parent owns (--shards is
// re-appended by the coordinator, --csv is written once after the
// merge) and with --threads resolved so the workers split the machine
// instead of oversubscribing it N times.
std::vector<std::string> worker_args(const Args& a, const std::string& kind,
                                     int shards) {
  std::vector<std::string> args{"shard-worker", a.target, "--shard-cmd", kind};
  for (const auto& [key, value] : a.options) {
    if (key == "shards" || key == "threads" || key == "jobs" || key == "csv" ||
        key == "trace-out" || key == "metrics-out" || key == "connect") {
      // --trace-out / --metrics-out name the parent's merged files; the
      // coordinator hands each worker its own scratch path instead.
      // --connect never propagates (workers evaluate locally), while
      // --cache-dir does: sharded workers share the on-disk cache.
      continue;
    }
    args.push_back("--" + key);
    if (!serve::is_flag_option(key)) args.push_back(value);
  }
  int threads = threads_option(a);
  if (threads == 0) {
    const auto cores =
        std::max(1u, std::thread::hardware_concurrency());
    threads = std::max(1, static_cast<int>(cores) / shards);
  }
  args.push_back("--threads");
  args.push_back(std::to_string(threads));
  return args;
}

// The worker files of this process's sharded sweep, kept until the
// main() epilogue merges them with the coordinator's own spans and
// counters (its merge and report run after the workers exit).
struct ShardedObs {
  std::string kind;
  int shards = 0;
  ShardFileSet files;
};
std::optional<ShardedObs> g_sharded_obs;

// Merges the per-worker trace/metrics files (plus this coordinator's own
// spans and counters) into the files named by --trace-out/--metrics-out.
// Strictly a side channel: diagnostics go to stderr, never stdout.
void export_merged_obs(const Args& a, const ShardedObs& sharded) {
  const std::string& kind = sharded.kind;
  const int shards = sharded.shards;
  const ShardFileSet& files = sharded.files;
  const std::string trace_out = opt(a, "trace-out", "");
  if (!trace_out.empty()) {
    obs::TraceMeta meta;
    meta.pid = shards;  // workers are pids 0..N-1; the coordinator sorts last
    meta.process_name = "diac " + kind + " coordinator";
    std::string err;
    if (!obs::merge_trace_files(trace_out, files.trace_paths, meta, &err)) {
      throw std::runtime_error("trace-out: " + err);
    }
    std::cerr << "wrote merged trace " << trace_out << " (" << shards
              << " shard(s))\n";
  }
  const std::string metrics_out = opt(a, "metrics-out", "");
  if (!metrics_out.empty()) {
    obs::MetricsMeta meta;
    meta.command = kind;
    meta.shards_merged = shards;
    std::string err;
    if (!obs::merge_metrics_files(metrics_out, files.metrics_paths, meta,
                                  &err)) {
      throw std::runtime_error("metrics-out: " + err);
    }
    std::cerr << "wrote merged metrics " << metrics_out << "\n";
  }
}

// Fans the sweep out over `shards` worker processes and merges their
// row files into the dense job-indexed payload vector.
RowPayloads run_sharded_sweep(const Args& a, const std::string& kind,
                              int shards, std::size_t jobs) {
  ShardLaunch launch;
  launch.exe = self_exe();
  launch.args = worker_args(a, kind, shards);
  launch.shards = shards;
  launch.trace_files = a.options.count("trace-out") != 0;
  launch.metrics_files = a.options.count("metrics-out") != 0;
  const ShardedObs& sharded =
      g_sharded_obs.emplace(ShardedObs{kind, shards, run_shard_workers(launch)});
  return merge_shard_rows(sharded.files.paths, kind,
                          static_cast<std::size_t>(shards), jobs);
}

// The typed rows of one sweep, from the transport the flags name:
// --connect (a running `diac serve`) and --shards (worker processes)
// return row text, which `decode` turns back into rows; otherwise
// `local(runner, cache)` evaluates them in this process on --threads,
// behind the optional --cache-dir, and rows are never encoded.  Every
// command then runs one merge and one report over the rows.
//
// Only the in-process path without a cache sets `suffix` to " on N
// <unit>": perfbench/golden.json pins it on stdout, so it stays there
// until the benchmark driver's next change moves it to stderr.
template <typename Decode, typename Local>
auto sweep_rows(const Args& a, const std::string& kind, std::size_t jobs,
                const char* noun, const char* unit, std::string& suffix,
                Decode&& decode, Local&& local) {
  const std::string connect = connect_option(a);
  if (!connect.empty()) {
    return decode(
        serve::run_remote_sweep(connect, remote_request(a, kind), jobs));
  }
  if (const int shards = shards_option(a); shards > 0) {
    std::cerr << "sharding " << jobs << " " << noun << " over " << shards
              << " worker process(es)\n";
    return decode(run_sharded_sweep(a, kind, shards, jobs));
  }
  const auto cache = cache_option(a);
  ExperimentRunner runner(threads_option(a));
  if (cache == nullptr) {
    suffix = " on " + std::to_string(runner.jobs()) + " " + unit;
  }
  return local(runner, cache.get());
}

int cmd_suite() {
  std::cout << suite_inventory_table().str();
  return 0;
}

// `diac version` / `diac --version`: build provenance.  The same block
// is embedded as the "build" header of --trace-out/--metrics-out files.
int cmd_version() {
  const obs::BuildInfo& b = obs::build_info();
  std::cout << "diac version " << b.git_hash << "\n"
            << "compiler:  " << b.compiler << "\n"
            << "build:     " << b.build_type << "\n"
            << "sanitize:  " << b.sanitize << "\n"
            << "obs:       " << (b.obs_enabled ? "on" : "off") << "\n";
  return 0;
}

int cmd_stats(const Args& a) {
  // `diac stats <file>.json` renders a --metrics-out export as a table.
  if (a.target.size() > 5 &&
      a.target.compare(a.target.size() - 5, 5, ".json") == 0) {
    std::string err;
    if (!obs::print_metrics_file(a.target, std::cout, &err)) {
      throw std::runtime_error(err);
    }
    return 0;
  }
  const Netlist nl = serve::load_target(a.target);
  const CellLibrary lib = CellLibrary::nominal_45nm();
  const NetlistStats s = analyze(nl, lib);
  std::cout << nl.name() << ": " << s.gates << " gates, " << s.inputs
            << " inputs, " << s.outputs << " outputs, " << s.dffs
            << " DFFs, depth " << s.depth << ", CPD "
            << Table::num(as_ns(s.critical_path), 2) << " ns, area "
            << Table::num(s.total_area / um2, 1) << " um^2\n";
  return 0;
}

int cmd_synth(const Args& a) {
  const Netlist nl = serve::load_target(a.target);
  const CellLibrary lib = CellLibrary::nominal_45nm();
  DiacSynthesizer synth(nl, lib, serve::synth_options(a.options));
  const SynthesisResult r = synth.synthesize();
  std::cout << "tasks: " << r.design.tree.size()
            << ", commit points: " << r.replacement.points.size()
            << " (" << r.replacement.total_bits << " bits), max exposed "
            << Table::num(as_mJ(r.replacement.max_exposed_energy), 2)
            << " mJ\n";
  const auto report = validate_design(r.design, 1.0e-3, synth.options().e_max);
  std::cout << "validation: "
            << (report.ok()
                    ? "clean"
                    : std::to_string(report.violations.size()) + " violations")
            << "\n";
  // Post-synthesis DRC: every emitted design is structurally checked.
  const verify::DrcReport drc = verify::run_design_drc(r.design);
  std::cout << "drc: " << drc.errors << " error(s), " << drc.warnings
            << " warning(s)\n";
  const std::string prefix = opt(a, "out", nl.name());
  {
    std::ofstream v(prefix + "_diac.v");
    v << generate_verilog(r.design);
  }
  {
    std::ofstream d(prefix + "_tree.dot");
    DotOptions dopt;
    dopt.energy_scale = r.design.scale;
    write_dot(d, r.design.tree, dopt);
  }
  std::cout << "wrote " << prefix << "_diac.v, " << prefix << "_tree.dot\n";
  if (!drc.clean()) return 4;
  return report.ok() ? 0 : 2;
}

// `diac check`: netlist DRC, then either equivalence against --against
// or (by default) the full synthesize -> emit -> re-import -> compare
// codegen round trip.  Exit codes: 0 clean/equivalent, 4 DRC errors,
// 5 not equivalent.  Output is byte-deterministic for fixed options.
int cmd_check(const Args& a) {
  const Netlist nl = serve::load_target(a.target);
  const verify::DrcReport drc = verify::run_drc(nl);
  verify::write_drc_report(std::cout, drc, nl.name());
  bool drc_ok = drc.clean();
  bool equivalent = true;

  verify::EquivalenceOptions eo;
  eo.seq_cycles = static_cast<int>(
      serve::int_option(a.options, "seq-cycles", 8, 1, 1 << 20));
  eo.seed = serve::uint64_option(a.options, "seed", 60247);
  const std::string match = opt(a, "match", "name");
  if (match != "name" && match != "order") {
    throw std::runtime_error("--match must be name|order");
  }
  eo.match_ports_by_order = match == "order";

  if (a.options.count("drc-only") == 0) {
    const std::string against = opt(a, "against", "");
    if (!against.empty()) {
      const Netlist other = serve::load_target(against);
      const verify::EquivalenceResult r = check_equivalence(nl, other, eo);
      verify::write_equivalence_result(std::cout, r);
      equivalent = r.equivalent();
    } else {
      const CellLibrary lib = CellLibrary::nominal_45nm();
      DiacSynthesizer synth(nl, lib, serve::synth_options(a.options));
      const SynthesisResult r = synth.synthesize();
      // The design's tree is built over `nl` itself, so the netlist half
      // of the post-synthesis DRC is the report above; only the
      // design-level findings are new.
      verify::DrcReport post = drc;
      verify::append_design_findings(r.design, post);
      std::cout << "post-synthesis drc: " << post.errors << " error(s), "
                << post.warnings << " warning(s)\n";
      const verify::RoundTripResult rt =
          verify::check_codegen_roundtrip(r.design, eo);
      std::cout << "codegen round-trip: " << rt.gates_reimported
                << " gates re-imported, " << rt.nvreg_instances
                << " nvreg instance(s)\n";
      verify::write_equivalence_result(std::cout, rt.equivalence);
      drc_ok = drc_ok && post.clean();
      equivalent = rt.ok();
    }
  }
  if (!drc_ok) return 4;
  if (!equivalent) return 5;
  return 0;
}

int cmd_simulate(const Args& a) {
  const Netlist nl = serve::load_target(a.target);
  const CellLibrary lib = CellLibrary::nominal_45nm();
  EvaluationOptions eo;
  eo.synthesis = serve::synth_options(a.options);
  eo.simulator.target_instances = serve::instances_option(a.options, 8);
  eo.scenario = serve::scenario_options(a.options);
  ExperimentRunner runner(threads_option(a));
  const BenchmarkResult r = evaluate_circuit(nl, lib, eo, runner);
  std::cout << scheme_detail_table(r).str();
  std::cout << "normalized PDP: ";
  for (Scheme s : kAllSchemes) {
    std::cout << to_string(s) << "=" << Table::num(r.normalized_pdp(s), 3)
              << " ";
  }
  std::cout << "\nDIAC-Optimized improvement over NV-Based: "
            << Table::pct(
                   r.improvement(Scheme::kDiacOptimized, Scheme::kNvBased))
            << "\n";
  return 0;
}

// `diac replay <circuit> --trace <file|dir>`: replay measured supply
// traces.  The job list is a directory's sorted CSVs, or the one named
// file; a directory prints the library table, a single file the
// four-scheme detail comparison.
int cmd_replay(const Args& a) {
  const Netlist nl = serve::load_target(a.target);
  const CellLibrary lib = CellLibrary::nominal_45nm();
  const EvaluationOptions eo = serve::replay_eval_options(a.options);
  const std::string trace = serve::replay_trace_arg(a.options);
  const std::vector<std::string> files = serve::replay_trace_files(trace);

  std::string suffix;
  const std::vector<SchemeRow> rows = sweep_rows(
      a, "replay", files.size(), "trace(s)", "job(s)", suffix,
      decode_scheme_rows, [&](ExperimentRunner& runner, RowCache* cache) {
        return replay_rows(nl, lib, eo, files, ShardPlan{}, runner, cache);
      });
  std::vector<BenchmarkResult> results;
  {
    DIAC_TRACE_SPAN("sweep.merge", "sweep");
    results = merge_replay_rows(rows, files, nl.logic_gate_count());
  }
  DIAC_TRACE_SPAN("sweep.report", "sweep");
  if (std::filesystem::is_directory(trace)) {
    std::cout << nl.name() << ": " << results.size()
              << " replayed trace(s) from " << trace << suffix << "\n\n";
    std::cout << trace_sweep_table(results).str();
    std::cout << "\nmean DIAC-Optimized improvement over NV-Based: "
              << Table::pct(average_improvement(
                     results, Scheme::kDiacOptimized, Scheme::kNvBased))
              << "\n";
    return 0;
  }
  const BenchmarkResult& r = results.front();
  std::cout << nl.name() << ": replaying " << trace << "\n\n";
  std::cout << scheme_detail_table(r).str();
  std::cout << "\nDIAC-Optimized improvement over NV-Based: "
            << Table::pct(
                   r.improvement(Scheme::kDiacOptimized, Scheme::kNvBased))
            << "\n";
  return 0;
}

int cmd_fsm(const Args& a) {
  const Netlist nl = serve::load_target(a.target);
  const CellLibrary lib = CellLibrary::nominal_45nm();
  DiacSynthesizer synth(nl, lib, serve::synth_options(a.options));
  const std::string scheme_name = opt(a, "scheme", "diac-opt");
  const Scheme scheme = scheme_name == "nv-based" ? Scheme::kNvBased
                        : scheme_name == "nv-clustering"
                            ? Scheme::kNvClustering
                        : scheme_name == "diac" ? Scheme::kDiac
                        : scheme_name == "diac-opt"
                            ? Scheme::kDiacOptimized
                            : throw std::runtime_error(
                                  "unknown scheme '" + scheme_name +
                                  "' (expected nv-based|nv-clustering|diac|"
                                  "diac-opt)");
  const auto sr = synth.synthesize_scheme(scheme);
  const ScenarioSpec scenario = serve::scenario_options(a.options);
  const auto source = make_source(scenario);
  SimulatorOptions so;
  so.target_instances = serve::instances_option(a.options, 4);
  so.max_time = 40000;
  // A replayed measurement ends at its last logged sample.
  so = clamp_to_measurement(so, scenario);
  SystemSimulator sim(sr.design, *source, FsmConfig{}, so);
  const RunStats stats = sim.run();
  for (const SimEvent& e : sim.events()) {
    std::cout << "t=" << Table::num(e.t, 1) << "s " << to_string(e.kind)
              << "\n";
  }
  std::cout << "instances " << stats.instances_completed << ", energy "
            << Table::num(as_mJ(stats.energy_consumed), 1) << " mJ, writes "
            << stats.nvm_writes << ", backups " << stats.backups
            << ", saves " << stats.safe_zone_saves << ", outages "
            << stats.deep_outages << "\n";
  return stats.workload_completed ? 0 : 3;
}

int cmd_mc(const Args& a) {
  const Netlist nl = serve::load_target(a.target);
  const CellLibrary lib = CellLibrary::nominal_45nm();
  const EvaluationOptions eo = serve::mc_eval_options(a.options);
  const int runs = serve::mc_runs(a.options);

  std::string suffix;
  const std::vector<SchemeRow> rows = sweep_rows(
      a, "mc", static_cast<std::size_t>(runs), "run(s)", "job(s)", suffix,
      decode_scheme_rows, [&](ExperimentRunner& runner, RowCache* cache) {
        return mc_rows(nl, lib, eo, runs, ShardPlan{}, runner, cache);
      });
  MonteCarloResult mc;
  {
    DIAC_TRACE_SPAN("sweep.merge", "sweep");
    mc = merge_mc_rows(rows, nl.name(), nl.logic_gate_count());
  }
  DIAC_TRACE_SPAN("sweep.report", "sweep");
  std::cout << nl.name() << ": " << runs << " seeded "
            << to_string(eo.scenario.kind) << " traces" << suffix << "\n\n";
  auto pm = [](const SampleStats& s) {
    return Table::num(s.mean, 3) + " +/- " + Table::num(s.stddev, 3);
  };
  Table t({"scheme", "normalized PDP (mean +/- sd)", "min", "max"});
  for (Scheme s : kAllSchemes) {
    const SampleStats& n = mc.normalized_pdp[static_cast<std::size_t>(s)];
    t.add_row({to_string(s), pm(n), Table::num(n.min, 3),
               Table::num(n.max, 3)});
  }
  std::cout << t.str() << "\n";
  std::cout << "DIAC vs NV-Based:          " << pm(mc.diac_vs_nv_based)
            << "\n";
  std::cout << "DIAC vs NV-Clustering:     " << pm(mc.diac_vs_nv_clustering)
            << "\n";
  std::cout << "DIAC-Optimized vs NV-Based:" << " " << pm(mc.opt_vs_nv_based)
            << "\n";
  std::cout << "DIAC-Optimized vs DIAC:    " << pm(mc.opt_vs_diac) << "\n";
  return 0;
}

// `diac search <circuit> [--grid|--random N]`: Pareto design-space
// search over policy × budget × NVM technology × sensing mode, evaluated
// on one shared harvest trace through the search engine.
int cmd_search(const Args& a) {
  const Netlist nl = serve::load_target(a.target);
  const CellLibrary lib = CellLibrary::nominal_45nm();
  const SearchOptions so = serve::search_options(a.options);
  const std::vector<DesignPoint> points = serve::search_points(a.options);

  std::string suffix;
  std::vector<CandidateResult> rows = sweep_rows(
      a, "search", points.size(), "candidate(s)", "thread(s)", suffix,
      [&](const RowPayloads& payloads) {
        return decode_search_rows(payloads, points, so.objectives);
      },
      [&](ExperimentRunner& runner, RowCache* cache) {
        return search_rows(nl, lib, points, so, ShardPlan{}, runner, cache);
      });
  SearchResult result;
  {
    DIAC_TRACE_SPAN("sweep.merge", "sweep");
    result = rank_candidates(std::move(rows), so.objectives);
  }
  DIAC_TRACE_SPAN("sweep.report", "sweep");
  std::cout << nl.name() << ": " << points.size() << " candidate(s), "
            << result.evaluated << " evaluated, " << result.pruned
            << " pruned, front " << result.front.size() << suffix << "\n\n";
  std::cout << search_front_table(result, so.objectives).str();

  const ObjectiveKind first = so.objectives.kinds.front();
  const CandidateResult* best = nullptr;
  if (!result.front.empty()) {
    const CandidateResult& top = result.candidates[result.front.front()];
    // An all-undefined front (nothing ever completed an instance under
    // this supply) has no meaningful "best".
    if (!std::isnan(top.costs.front())) best = &top;
  }
  if (best != nullptr) {
    std::cout << "\nbest by " << to_string(first) << ": "
              << best->point.label() << " ("
              << Table::num(objective_display(first, best->costs.front()), 3)
              << " " << objective_header(first) << ")\n";
  } else {
    std::cout << "\nbest by " << to_string(first)
              << ": none (no candidate defined this objective)\n";
  }

  const std::string csv = opt(a, "csv", "");
  if (!csv.empty()) {
    std::ofstream out(csv);
    if (!out) throw std::runtime_error("cannot write " + csv);
    write_search_csv(out, result, so.objectives);
    std::cout << "wrote " << csv << " (" << result.candidates.size()
              << " candidates)\n";
  }
  return 0;
}

// Hidden subcommand behind `--shards`: computes one shard of an mc /
// replay / search sweep and writes the versioned row file the parent
// merges.  Spawned as `diac shard-worker <target> --shard-cmd <kind>
// --shards N --shard-index i --shard-out <file> [sweep options]`; the
// sweep options are rebuilt by worker_args() and evaluated by
// serve::write_sweep_shard, the body of every served request too, so
// parent, worker and server can never disagree on what a sweep means.
// Documented in docs/CLI.md; not listed in `diac help` (it is an
// internal protocol, and the shard addressing doubles as the
// multi-machine interface: run the same command on another host and
// ship the row file back).
int cmd_shard_worker(const Args& a) {
  ShardPlan plan;
  plan.shards = static_cast<std::size_t>(
      serve::int_option(a.options, "shards", 1, 1, kMaxThreads));
  plan.index = static_cast<std::size_t>(shard_index(a));
  plan.validate();
  const std::string out_path = opt(a, "shard-out", "");
  if (out_path.empty()) {
    throw std::runtime_error("shard-worker requires --shard-out <file>");
  }
  std::ofstream out(out_path);
  if (!out) throw std::runtime_error("cannot write " + out_path);

  ExperimentRunner runner(threads_option(a));
  // Workers of one sharded sweep share the --cache-dir on disk: entry
  // publication is atomic, so concurrent stores of one key are benign.
  const auto cache = cache_option(a);
  serve::write_sweep_shard(out, opt(a, "shard-cmd", ""),
                           serve::load_target(a.target), a.options, plan,
                           runner, cache.get());
  out.flush();
  if (!out) throw std::runtime_error("write to " + out_path + " failed");
  return 0;
}

// `diac serve --socket <path>`: the long-lived sweep server
// (docs/SERVE.md).  One process, one ExperimentRunner pool, one shared
// result cache; each connection is one mc/replay/search request.
int cmd_serve(const Args& a) {
  serve::ServerOptions so;
  so.socket_path = opt(a, "socket", "");
  if (so.socket_path.empty()) {
    throw std::runtime_error("serve requires --socket <path>");
  }
  so.cache_dir = opt(a, "cache-dir", "");
  so.cache_limit_bytes = cache_limit_bytes(a);
  so.threads = threads_option(a);
  return serve::serve_forever(so);
}

void print_usage(std::ostream& out) {
  out << "usage: diac <command> [target] [--option value ...]\n"
         "\n"
         "commands:\n"
         "  suite                      list the bundled benchmarks\n"
         "  stats    <circuit|file>    netlist statistics\n"
         "  check    <circuit|file>    netlist DRC + equivalence / codegen "
         "round-trip\n"
         "  synth    <circuit|file>    synthesize + export artifacts\n"
         "  simulate <circuit|file>    run the four-scheme comparison\n"
         "  mc       <circuit|file>    Monte-Carlo sweep over seeded traces\n"
         "  replay   <circuit|file>    replay measured trace CSVs "
         "(--trace <file|dir>)\n"
         "  search   <circuit|file>    Pareto design-space search "
         "(policy x budget x NVM\n"
         "                             x sensing)\n"
         "  fsm      <circuit|file>    event log of one scheme\n"
         "  serve                      long-lived sweep server on a unix "
         "socket\n"
         "                             (--socket <path>; see docs/SERVE.md)\n"
         "  version                    build provenance (git hash, compiler, "
         "build type,\n"
         "                             sanitizer); --version is an alias\n"
         "  help                       show this message\n"
         "\n"
         "<circuit|file> is a bundled benchmark name (see `diac suite`) or "
         "a path\nending in .bench / .blif / .v (structural Verilog, e.g. "
         "a synth artifact).\n"
         "\n"
         "options for synth, simulate, mc, replay, search and fsm:\n"
         "  --policy 1|2|3             tree policy (default 3; search sweeps "
         "it)\n"
         "  --budget <fraction>        commit budget as a fraction of E_MAX "
         "(default 0.25;\n"
         "                             search sweeps it)\n"
         "  --nvm mram|reram|feram|pcm NVM technology (default mram; search "
         "sweeps it)\n"
         "\n"
         "options for simulate, mc, replay, search and fsm:\n"
         "  --instances <n>            workload size (default: 8 "
         "simulate/replay, 6 mc/search,\n"
         "                             4 fsm)\n"
         "  --seed <n>                 harvest trace seed (default 60247)\n"
         "  --source constant|square|rfid|solar|fig4|trace:<path>\n"
         "                             harvest scenario (default rfid; "
         "trace:<path>\n"
         "                             replays a measured CSV)\n"
         "\n"
         "options for simulate, mc, replay and search:\n"
         "  --threads <n>              simulation threads (0 = all cores; "
         "default 0;\n"
         "                             --jobs is an alias; results are "
         "bit-identical at\n"
         "                             any thread count)\n"
         "\n"
         "options for mc, replay and search:\n"
         "  --shards <n>               split the sweep over n diac worker "
         "processes;\n"
         "                             the merged report is byte-identical "
         "for any n\n"
         "  --cache-dir <dir>          content-addressed result cache; warm "
         "reruns are\n"
         "                             byte-identical to cold ones (also a "
         "serve option)\n"
         "  --cache-limit-mb <n>       cache size cap, LRU-evicted (default "
         "1024)\n"
         "  --connect <socket>         send the sweep to a running `diac "
         "serve` instead\n"
         "                             of evaluating locally\n"
         "\n"
         "serve only:\n"
         "  --socket <path>            unix-domain socket to listen on "
         "(required)\n"
         "\n"
         "observability (any command; side-channel files only — stdout and "
         "--csv stay\nbyte-identical whether or not these flags are given):\n"
         "  --trace-out <file>         write a Chrome trace-event JSON "
         "timeline\n"
         "                             (chrome://tracing / Perfetto); with "
         "--shards the\n"
         "                             worker traces merge into one file\n"
         "  --metrics-out <file>       write counters/gauges/histograms as "
         "JSON; render\n"
         "                             with `diac stats <file>.json`\n"
         "\n"
         "mc only:\n"
         "  --runs <n>                 Monte-Carlo trace count (default 32)\n"
         "\n"
         "replay only:\n"
         "  --trace <file|dir>         trace CSV, or a directory to sweep "
         "as a library\n"
         "\n"
         "search only:\n"
         "  --grid                     sweep the full candidate grid "
         "(default)\n"
         "  --random <n>               sample n distinct grid candidates\n"
         "  --sample-seed <n>          seed of the --random draw (default "
         "53715)\n"
         "  --objectives <list>        comma list of "
         "pdp|progress|writes|completion|energy|\n"
         "                             makespan (default pdp,progress)\n"
         "  --max-time <s>             simulation horizon (default 30000)\n"
         "  --csv <file>               dump every candidate to a CSV\n"
         "\n"
         "fsm only:\n"
         "  --scheme nv-based|nv-clustering|diac|diac-opt\n"
         "                             scheme to trace (default diac-opt)\n"
         "\n"
         "synth only:\n"
         "  --out <prefix>             artifact prefix (default: circuit "
         "name)\n"
         "\n"
         "check only:\n"
         "  --against <circuit|file>   check functional equivalence against "
         "this netlist\n"
         "                             (default: synthesize + codegen "
         "round-trip)\n"
         "  --drc-only                 stop after the DRC report\n"
         "  --seq-cycles <k>           lockstep cycles per round for "
         "sequential\n"
         "                             equivalence (default 8)\n"
         "  --match name|order         primary-I/O matching (default name; "
         "the codegen\n"
         "                             round-trip always matches by order)\n"
         "exit codes for check: 0 clean/equivalent, 4 DRC errors, 5 not "
         "equivalent\n";
}

int usage() {
  print_usage(std::cerr);
  return 64;
}

int run_command(const Args& args) {
  if (args.help || args.command == "help" || args.command == "--help" ||
      args.command == "-h") {
    print_usage(std::cout);
    return 0;
  }
  if (args.command == "suite") return cmd_suite();
  if (args.command == "version" || args.command == "--version") {
    return cmd_version();
  }
  if (args.command == "serve") return cmd_serve(args);
  if (args.target.empty()) return usage();
  if (args.command == "stats") return cmd_stats(args);
  if (args.command == "check") return cmd_check(args);
  if (args.command == "synth") return cmd_synth(args);
  if (args.command == "simulate") return cmd_simulate(args);
  if (args.command == "mc") return cmd_mc(args);
  if (args.command == "replay") return cmd_replay(args);
  if (args.command == "search") return cmd_search(args);
  if (args.command == "fsm") return cmd_fsm(args);
  if (args.command == "shard-worker") return cmd_shard_worker(args);
  return usage();
}

// Writes this process's own trace/metrics files when requested — the
// single-process path, and each shard worker writing the per-shard file
// the coordinator hands it (a sharded parent merges its workers' files
// instead).  Workers keep raw monotonic timestamps (rebase = false) so
// the coordinator can splice every process onto one timeline.
void export_local_obs(const Args& a) {
  if (g_sharded_obs) {
    export_merged_obs(a, *g_sharded_obs);
    return;
  }
  const bool worker = a.command == "shard-worker";
  const std::string trace_out = opt(a, "trace-out", "");
  if (!trace_out.empty()) {
    obs::TraceMeta meta;
    std::string err;
    if (worker) {
      meta.pid = shard_index(a);
      meta.process_name = "shard " + opt(a, "shard-index", "0") + "/" +
                          opt(a, "shards", "1") + " (" +
                          opt(a, "shard-cmd", "?") + ")";
      meta.rebase = false;
    } else {
      meta.pid = 0;
      meta.process_name = "diac " + a.command;
    }
    if (!obs::write_trace_file(trace_out, meta, &err)) {
      throw std::runtime_error("trace-out: " + err);
    }
    if (!worker) std::cerr << "wrote trace " << trace_out << "\n";
  }
  const std::string metrics_out = opt(a, "metrics-out", "");
  if (!metrics_out.empty()) {
    obs::MetricsMeta meta;
    meta.command = worker ? opt(a, "shard-cmd", "?") : a.command;
    if (worker) meta.shard_index = shard_index(a);
    std::string err;
    if (!obs::write_metrics_file(metrics_out, meta, &err)) {
      throw std::runtime_error("metrics-out: " + err);
    }
    if (!worker) std::cerr << "wrote metrics " << metrics_out << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 1 && argv[0] != nullptr) g_argv0 = argv[0];
  try {
    const Args args = parse_args(argc, argv);
    if (args.options.count("trace-out") != 0) obs::set_tracing_enabled(true);
    const int rc = run_command(args);
    export_local_obs(args);
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
