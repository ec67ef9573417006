// diac — command-line front-end for the DIAC flow.
//
// `diac help` prints the usage generated from the command and option
// tables in src/serve/options.cpp.
#include <algorithm>
#include <cmath>
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
};

// `diac <command> [target] [options]`, the options checked against the
// option table (`-h` spells `--help`).  An unknown command keeps its
// options unparsed: it prints the usage.
Args parse_args(int argc, char** argv) {
  std::vector<std::string> tokens(argv + 1, argv + argc);
  std::replace(tokens.begin(), tokens.end(), std::string("-h"),
               std::string("--help"));
  Args args;
  auto next = tokens.begin();
  if (next != tokens.end()) args.command = *next++;
  if (args.command == "--help") args.command = "help";
  if (args.command == "--version") args.command = "version";
  if (!serve::is_command(args.command)) return args;
  if (next != tokens.end() && (*next)[0] != '-') args.target = *next++;
  args.options = serve::parse_options(args.command, {next, tokens.end()},
                                      serve::OptionSource::kCommandLine);
  return args;
}

// --cache-dir <dir> [--cache-limit-mb <n>] -> on-disk result cache of
// mc/replay/search and serve; absent = no cache.  Entries are exact rows
// keyed by canonical job digests, so cached sweeps stay byte-identical
// to cold ones (docs/SERVE.md).
serve::CacheConfig cache_config(const Args& a) {
  serve::CacheConfig config;
  config.dir = serve::text_value(a.options, "cache-dir");
  config.limit_bytes =
      serve::number_value<std::uint64_t>(a.options, "cache-limit-mb") << 20;
  return config;
}

std::unique_ptr<serve::ResultCache> cache_option(const Args& a) {
  if (serve::text_value(a.options, "cache-dir").empty()) return nullptr;
  return std::make_unique<serve::ResultCache>(cache_config(a));
}

// --connect <socket> routes the sweep to a running `diac serve`; it is
// exclusive with the flags that steer local evaluation.
std::string connect_option(const Args& a) {
  const std::string socket = serve::text_value(a.options, "connect");
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

const char* g_argv0 = "diac";

// The worker binary: this very executable, so parent and workers parse
// options with literally the same code and can never drift.
std::string self_exe() {
  std::error_code ec;
  const auto path = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (!ec) return path.string();
  return g_argv0;  // non-Linux fallback: argv[0] must then be invokable
}

// The worker argv: the target, the options the table forwards to
// workers (the sweep, and the shared --cache-dir) and --threads resolved
// so the workers split the machine instead of oversubscribing it N
// times.  The coordinator appends --shards, --shard-index and per-worker
// --trace-out / --metrics-out paths.
std::vector<std::string> worker_args(const Args& a, const std::string& kind,
                                     int shards) {
  std::vector<std::string> args{"shard-worker", a.target, "--shard-cmd", kind};
  for (const auto& [key, value] :
       serve::forwarded_options(a.options, serve::Forward::kWorkers)) {
    args.push_back("--" + key);
    if (!serve::is_flag_option(key)) args.push_back(value);
  }
  int threads = serve::number_value<int>(a.options, "threads");
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
  int shards = 0;
  ShardFileSet files;
};
std::optional<ShardedObs> g_sharded_obs;

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
      g_sharded_obs.emplace(ShardedObs{shards, run_shard_workers(launch)});
  return merge_shard_rows(sharded.files.paths, kind,
                          static_cast<std::size_t>(shards), jobs);
}

// The typed rows of one sweep, from the transport the flags name:
// --connect (a running `diac serve`, sent the options the table forwards
// everywhere) and --shards (worker processes) return row text, which
// `decode` turns back into rows; otherwise
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
    const serve::SweepRequest request{
        kind, a.target,
        serve::forwarded_options(a.options, serve::Forward::kEverywhere)};
    return decode(serve::run_remote_sweep(connect, request, jobs));
  }
  const int shards = serve::number_value<int>(a.options, "shards");
  if (shards > 0) {
    std::cerr << "sharding " << jobs << " " << noun << " over " << shards
              << " worker process(es)\n";
    return decode(run_sharded_sweep(a, kind, shards, jobs));
  }
  const auto cache = cache_option(a);
  ExperimentRunner runner(serve::number_value<int>(a.options, "threads"));
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
  const std::string prefix = serve::option_or(a.options, "out", nl.name());
  {
    std::ofstream v(prefix + "_diac.v");
    v << generate_verilog(r.design);
    if (!v.flush()) {
      throw std::runtime_error("cannot write " + prefix + "_diac.v");
    }
  }
  {
    std::ofstream d(prefix + "_tree.dot");
    DotOptions dopt;
    dopt.energy_scale = r.design.scale;
    write_dot(d, r.design.tree, dopt);
    if (!d.flush()) {
      throw std::runtime_error("cannot write " + prefix + "_tree.dot");
    }
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
  verify::EquivalenceOptions eo;
  eo.seq_cycles = serve::number_value<int>(a.options, "seq-cycles");
  eo.seed = serve::number_value<std::uint64_t>(a.options, "seed");
  eo.match_ports_by_order = serve::choice_value(a.options, "match") == 1;

  const Netlist nl = serve::load_target(a.target);
  const verify::DrcReport drc = [&] {
    DIAC_TRACE_SPAN("verify.drc", "verify");
    return verify::run_drc(nl);
  }();
  verify::write_drc_report(std::cout, drc, nl.name());
  bool drc_ok = drc.clean();
  bool equivalent = true;

  if (a.options.count("drc-only") == 0) {
    const std::string against = serve::text_value(a.options, "against");
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
      {
        DIAC_TRACE_SPAN("verify.drc", "verify");
        verify::append_design_findings(r.design, post);
      }
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
  eo.simulator.target_instances =
      serve::number_value<int>(a.options, "instances");
  eo.scenario = serve::scenario_options(a.options);
  ExperimentRunner runner(serve::number_value<int>(a.options, "threads"));
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
  constexpr Scheme kSchemes[] = {Scheme::kNvBased, Scheme::kNvClustering,
                                 Scheme::kDiac, Scheme::kDiacOptimized};
  const Scheme scheme = kSchemes[serve::choice_value(a.options, "scheme")];
  const auto sr = synth.synthesize_scheme(scheme);
  const ScenarioSpec scenario = serve::scenario_options(a.options);
  const auto source = make_source(scenario);
  SimulatorOptions so;
  so.target_instances = serve::number_value<int>(a.options, "instances", 4);
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

  const std::string csv = serve::text_value(a.options, "csv");
  if (!csv.empty()) {
    std::ofstream out(csv);
    if (!out) throw std::runtime_error("cannot write " + csv);
    write_search_csv(out, result, so.objectives);
    std::cout << "wrote " << csv << " (" << result.candidates.size()
              << " candidates)\n";
  }
  return 0;
}

// Hidden subcommand behind `--shards` (docs/CLI.md): computes one shard
// of an mc / replay / search sweep and writes the versioned row file the
// parent merges.  The options come from worker_args() and are evaluated
// by serve::write_sweep_shard, the body of every served request too, so
// parent, worker and server can never disagree on what a sweep means.
int cmd_shard_worker(const Args& a) {
  ShardPlan plan;
  plan.shards = std::max<std::size_t>(
      1, serve::number_value<std::size_t>(a.options, "shards"));
  plan.index = serve::number_value<std::size_t>(a.options, "shard-index");
  plan.validate();
  const std::string kind =
      serve::required_value(a.options, "shard-worker", "shard-cmd");
  const std::string out_path =
      serve::required_value(a.options, "shard-worker", "shard-out");

  ExperimentRunner runner(serve::number_value<int>(a.options, "threads"));
  // Workers of one sharded sweep share the --cache-dir on disk: entry
  // publication is atomic, so concurrent stores of one key are benign.
  const auto cache = cache_option(a);
  // Published whole, as cache entries are: a failed worker leaves no
  // partial row file.
  publish_shard_file(out_path, [&](std::ostream& out) {
    serve::write_sweep_shard(out, kind, serve::load_target(a.target),
                             a.options, plan, runner, cache.get());
  });
  return 0;
}

// `diac serve --socket <path>`: the long-lived sweep server
// (docs/SERVE.md).  One process, one ExperimentRunner pool, one shared
// result cache; each connection is one mc/replay/search request.
int cmd_serve(const Args& a) {
  serve::ServerOptions so;
  so.socket_path = serve::text_value(a.options, "socket");
  so.cache = cache_config(a);
  so.threads = serve::number_value<int>(a.options, "threads");
  return serve::serve_forever(so);
}

int usage() {
  serve::write_usage(std::cerr);
  return 64;
}

int run_command(const Args& args) {
  if (args.command == "help" || args.options.count("help") != 0) {
    serve::write_usage(std::cout);
    return 0;
  }
  if (args.command == "suite") return cmd_suite();
  if (args.command == "version") return cmd_version();
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

// Writes the --trace-out / --metrics-out side-channel files: a sharded
// parent merges its workers' files with its own spans and counters; a
// shard worker keeps raw monotonic timestamps (rebase = false) so the
// coordinator can splice every process onto one timeline.
void export_obs(const Args& a) {
  const ShardedObs* sharded = g_sharded_obs ? &*g_sharded_obs : nullptr;
  const bool worker = a.command == "shard-worker";
  const int shard =
      worker ? serve::number_value<int>(a.options, "shard-index") : -1;
  std::string err;
  if (const std::string path = serve::text_value(a.options, "trace-out");
      !path.empty()) {
    obs::TraceMeta meta;
    meta.process_name = "diac " + a.command;
    if (sharded != nullptr) {
      meta.pid = sharded->shards;  // workers are 0..N-1; the coordinator last
      meta.process_name = "diac " + a.command + " coordinator";
    } else if (worker) {
      meta.pid = shard;
      meta.process_name =
          "shard " + std::to_string(shard) + "/" +
          serve::option_or(a.options, "shards", "1") + " (" +
          serve::option_or(a.options, "shard-cmd", "?") + ")";
      meta.rebase = false;
    }
    if (!(sharded != nullptr ? obs::merge_trace_files(
                                   path, sharded->files.trace_paths, meta, &err)
                             : obs::write_trace_file(path, meta, &err))) {
      throw std::runtime_error("trace-out: " + err);
    }
    if (sharded != nullptr) {
      std::cerr << "wrote merged trace " << path << " (" << sharded->shards
                << " shard(s))\n";
    } else if (!worker) {
      std::cerr << "wrote trace " << path << "\n";
    }
  }
  if (const std::string path = serve::text_value(a.options, "metrics-out");
      !path.empty()) {
    obs::MetricsMeta meta;
    meta.command =
        worker ? serve::option_or(a.options, "shard-cmd", "?") : a.command;
    meta.shard_index = shard;
    if (sharded != nullptr) meta.shards_merged = sharded->shards;
    if (!(sharded != nullptr
              ? obs::merge_metrics_files(path, sharded->files.metrics_paths,
                                         meta, &err)
              : obs::write_metrics_file(path, meta, &err))) {
      throw std::runtime_error("metrics-out: " + err);
    }
    if (!worker) {
      std::cerr << "wrote " << (sharded != nullptr ? "merged " : "")
                << "metrics " << path << "\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 1 && argv[0] != nullptr) g_argv0 = argv[0];
  try {
    const Args args = parse_args(argc, argv);
    if (args.options.count("trace-out") != 0) obs::set_tracing_enabled(true);
    const int rc = run_command(args);
    export_obs(args);
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
