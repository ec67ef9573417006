// perfbench_driver: replays one `diac` sweep through the public library
// calls the CLI makes, recording a span around each call.  This is the
// benchmark's traced run; the program itself is never instrumented.
//
//   perfbench_driver <mc|replay|search> <circuit> [diac options ...]
//                    --spans-out <file> --report-out <file> [--run-id <n>]
//
// The diac options (--runs, --instances, --seed, --threads, --trace, ...)
// are parsed by the same serve:: builders the CLI uses.  Spans are kept in
// memory and written as JSON at exit, each with its name, start, end,
// parent span, thread and workload-run id.  --report-out receives the
// report the CLI prints for the same sweep, computed from the driver's own
// RunStats, so the harness can check the two against each other.
//
// Span roots:
//   workload           the CLI's work, call for call: netlist load, trace
//                      library load, the sweep's job builder (synthesis
//                      and sources) or run_search, simulations, summary,
//                      report
//   diac.synth_pass    synthesize_scheme over every design of the sweep
//   power.source_pass  mc only: make_source over the seeded scenarios
//   power.parse_pass   replay only: load_trace_csv over the library files
//   diac.stages        every design synthesized again stage by stage
//                      (tree generation, policy, NVM insertion or baseline
//                      sizing), checked against diac.synth_pass's designs
// The passes repeat work the job builders do inside one call, so each
// layer can be timed on its own.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "diac/baselines.hpp"
#include "diac/policy.hpp"
#include "diac/replacement.hpp"
#include "diac/synthesizer.hpp"
#include "exp/experiment.hpp"
#include "exp/trace_library.hpp"
#include "metrics/montecarlo.hpp"
#include "metrics/pdp.hpp"
#include "metrics/report.hpp"
#include "metrics/trace_sweep.hpp"
#include "power/trace_io.hpp"
#include "search/engine.hpp"
#include "serve/options.hpp"
#include "tree/tree_generator.hpp"
#include "util/table.hpp"

namespace {

using namespace diac;

// --- spans -----------------------------------------------------------------

struct Span {
  const char* name;
  int parent;  // -1 for a root
  int thread;  // 0 = the thread that opened the first span
  std::int64_t start_ns;
  std::int64_t end_ns;
};

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

// Pool threads open spans too, so every access takes one mutex: a span
// costs well under a microsecond, the shortest timed call (one
// simulation) tens of microseconds.
class Tracer {
 public:
  int open(const char* name, int parent) {
    const int thread = thread_index();
    const std::int64_t now = elapsed_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, parent, thread, now, -1});
    return static_cast<int>(spans_.size()) - 1;
  }

  void close(int id) {
    const std::int64_t now = elapsed_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_ns = now;
  }

  void count(const std::string& name, double value) {
    const std::lock_guard<std::mutex> lock(mutex_);
    counters_[name] += value;
  }

  std::string json(int run) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream out;
    out.precision(17);
    out << "{\"run\": " << run << ",\n\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"id\": " << i << ", \"name\": \""
          << s.name << "\", \"parent\": " << s.parent
          << ", \"thread\": " << s.thread << ", \"run\": " << run
          << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << "}";
    }
    out << "],\n\"counters\": {";
    const char* sep = "\n";
    for (const auto& [name, value] : counters_) {
      out << sep << "\"" << name << "\": " << value;
      sep = ",\n";
    }
    out << "}}\n";
    return out.str();
  }

 private:
  std::int64_t elapsed_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  const std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::string, double> counters_;
};

class Scope {
 public:
  Scope(Tracer& tracer, const char* name, int parent)
      : tracer_(tracer), id_(tracer.open(name, parent)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

// --- shared steps ------------------------------------------------------------

// What the synthesis pass learned about one design, for the stage split
// to check its re-composition against.
struct DesignCheck {
  std::size_t tree_tasks = 0;
  std::size_t commit_points = 0;
  double scale = 0;
};

struct Sweep {
  Tracer tracer;
  serve::OptionMap options;
  std::string target;
  CellLibrary lib = CellLibrary::nominal_45nm();
  // (synthesis options, scheme) of every design the sweep synthesizes,
  // synthesized again by the layer passes after the workload.
  std::vector<std::pair<SynthesisOptions, Scheme>> designs;
  std::vector<DesignCheck> checks;  // filled by synth_pass
  std::size_t tree_tasks = 0;       // largest tree the stage split built
  // Layer-pass inputs: mc's seeded scenarios, replay's trace files.
  std::vector<ScenarioSpec> scenarios;
  std::vector<std::string> trace_files;
};

void count_run(Tracer& t, const RunStats& r) {
  t.count("model.instances_completed", r.instances_completed);
  t.count("model.backups", r.backups);
  t.count("model.nvm_writes", r.nvm_writes);
  t.count("model.makespan_s", r.makespan);
}

void add_scheme_designs(Sweep& s, const SynthesisOptions& options) {
  for (Scheme scheme : kAllSchemes) s.designs.emplace_back(options, scheme);
}

// run_simulations with each job timed: one runtime.sim span per
// run_simulation call, under one exp.run span for the batch.
std::vector<RunStats> simulate(Sweep& s, ExperimentRunner& runner,
                               const std::vector<SimulationJob>& jobs,
                               int parent) {
  std::vector<RunStats> stats(jobs.size());
  {
    const Scope batch(s.tracer, "exp.run", parent);
    runner.parallel_for(jobs.size(), [&](std::size_t i) {
      const Scope sim(s.tracer, "runtime.sim", batch.id());
      stats[i] = run_simulation(jobs[i]);
    });
  }
  s.tracer.count("exp.jobs", static_cast<double>(jobs.size()));
  for (const RunStats& r : stats) {
    s.tracer.count("runtime.events", r.tasks_executed + r.backups + r.restores +
                                         r.safe_zone_saves +
                                         r.power_interrupts);
    count_run(s.tracer, r);
  }
  return stats;
}

// Four-scheme results from scheme-minor job results.
std::vector<BenchmarkResult> group_by_scheme(const std::vector<RunStats>& stats,
                                             const Netlist& nl) {
  std::vector<BenchmarkResult> results(stats.size() / kSchemeCount);
  for (std::size_t g = 0; g < results.size(); ++g) {
    results[g].name = nl.name();
    results[g].gate_count = nl.logic_gate_count();
    for (std::size_t i = 0; i < kSchemeCount; ++i) {
      results[g].stats[i] = stats[g * kSchemeCount + i];
    }
  }
  return results;
}

// --- mc ----------------------------------------------------------------------

// evaluate_monte_carlo (McSweepJobs + run_simulations +
// summarize_monte_carlo) and cmd_mc's report.
std::string run_mc(Sweep& s, const Netlist& nl, ExperimentRunner& runner,
                   int root) {
  const EvaluationOptions eo = serve::mc_eval_options(s.options);
  const int runs = serve::mc_runs(s.options);
  const auto count = static_cast<std::size_t>(runs);

  std::optional<McSweepJobs> sweep;
  {
    const Scope span(s.tracer, "metrics.sweep_jobs", root);
    sweep.emplace(nl, s.lib, eo, 0, count, runner);
  }
  add_scheme_designs(s, eo.synthesis);
  // The seeded scenarios McSweepJobs derives, for the source pass.
  for (std::size_t k = 0; k < count; ++k) {
    s.scenarios.push_back(clamp_scenario_horizon(
        eo.scenario.with_seed(
            derive_seed(eo.scenario.seed, static_cast<int>(k))),
        eo.simulator.max_time));
  }
  const std::vector<RunStats> stats = simulate(s, runner, sweep->jobs(), root);

  MonteCarloResult mc;
  {
    const Scope span(s.tracer, "metrics.summarize", root);
    mc = summarize_monte_carlo(group_by_scheme(stats, nl));
  }
  s.tracer.count("model.pdp_gain_opt_vs_nv_based", mc.opt_vs_nv_based.mean);

  const Scope span(s.tracer, "metrics.report", root);
  std::ostringstream out;
  out << nl.name() << ": " << runs << " seeded " << to_string(eo.scenario.kind)
      << " traces on " << runner.jobs() << " job(s)\n\n";
  auto pm = [](const SampleStats& st) {
    return Table::num(st.mean, 3) + " +/- " + Table::num(st.stddev, 3);
  };
  Table t({"scheme", "normalized PDP (mean +/- sd)", "min", "max"});
  for (Scheme scheme : kAllSchemes) {
    const SampleStats& n = mc.normalized_pdp[static_cast<std::size_t>(scheme)];
    t.add_row({to_string(scheme), pm(n), Table::num(n.min, 3),
               Table::num(n.max, 3)});
  }
  out << t.str() << "\n";
  out << "DIAC vs NV-Based:          " << pm(mc.diac_vs_nv_based) << "\n";
  out << "DIAC vs NV-Clustering:     " << pm(mc.diac_vs_nv_clustering) << "\n";
  out << "DIAC-Optimized vs NV-Based: " << pm(mc.opt_vs_nv_based) << "\n";
  out << "DIAC-Optimized vs DIAC:    " << pm(mc.opt_vs_diac) << "\n";
  return out.str();
}

// --- replay ------------------------------------------------------------------

// load_trace_library + evaluate_trace_library (ReplaySweepJobs +
// run_simulations) and cmd_replay's report for a library directory.
std::string run_replay(Sweep& s, const Netlist& nl, ExperimentRunner& runner,
                       int root) {
  const EvaluationOptions eo = serve::replay_eval_options(s.options);
  const std::string trace = serve::replay_trace_arg(s.options);
  if (!std::filesystem::is_directory(trace)) {
    throw std::runtime_error("replay workload needs a trace directory: " +
                             trace);
  }

  TraceLibrary library;
  {
    const Scope load(s.tracer, "exp.library_load", root);
    library = load_trace_library(trace);
  }
  std::vector<ScenarioSpec> scenarios;
  for (const TraceLibrary::Entry& entry : library.entries) {
    scenarios.push_back(entry.scenario);
    s.trace_files.push_back(entry.path);
  }
  std::optional<ReplaySweepJobs> sweep;
  {
    const Scope span(s.tracer, "metrics.sweep_jobs", root);
    sweep.emplace(nl, s.lib, eo, scenarios);
  }
  add_scheme_designs(s, eo.synthesis);
  std::vector<BenchmarkResult> results =
      group_by_scheme(simulate(s, runner, sweep->jobs(), root), nl);
  for (std::size_t e = 0; e < results.size(); ++e) {
    results[e].name = library.entries[e].name;
  }

  const Scope span(s.tracer, "metrics.report", root);
  const double gain =
      average_improvement(results, Scheme::kDiacOptimized, Scheme::kNvBased);
  s.tracer.count("model.pdp_gain_opt_vs_nv_based", gain);
  std::ostringstream out;
  out << nl.name() << ": " << results.size() << " replayed trace(s) from "
      << trace << " on " << runner.jobs() << " job(s)\n\n";
  out << trace_sweep_table(results).str();
  out << "\nmean DIAC-Optimized improvement over NV-Based: "
      << Table::pct(gain) << "\n";
  return out.str();
}

// --- search ------------------------------------------------------------------

// run_search and cmd_search's report.
std::string run_search_sweep(Sweep& s, const Netlist& nl,
                             ExperimentRunner& runner, int root) {
  const SearchOptions so = serve::search_options(s.options);
  const std::vector<DesignPoint> points = serve::search_points(s.options);

  SearchResult result;
  {
    const Scope span(s.tracer, "search.run", root);
    result = run_search(nl, s.lib, points, so, runner);
  }
  s.tracer.count("search.candidates", static_cast<double>(points.size()));
  s.tracer.count("search.evaluated", static_cast<double>(result.evaluated));
  s.tracer.count("search.pruned", static_cast<double>(result.pruned));
  for (const CandidateResult& c : result.candidates) {
    if (!c.costs.empty()) count_run(s.tracer, c.stats);  // simulated
  }
  // The keys run_search deduplicates synthesis on.
  std::set<std::tuple<PolicyKind, double, NvmTechnology, Scheme>> seen;
  for (const DesignPoint& p : points) {
    if (seen.emplace(p.policy, p.budget_fraction, p.technology, p.scheme)
            .second) {
      s.designs.emplace_back(p.synthesis_options(so.synthesis), p.scheme);
    }
  }

  const Scope span(s.tracer, "metrics.report", root);
  std::ostringstream out;
  out << nl.name() << ": " << points.size() << " candidate(s), "
      << result.evaluated << " evaluated, " << result.pruned
      << " pruned, front " << result.front.size() << " on " << runner.jobs()
      << " thread(s)\n\n";
  out << search_front_table(result, so.objectives).str();
  const ObjectiveKind first = so.objectives.kinds.front();
  const CandidateResult* best = nullptr;
  if (!result.front.empty()) {
    const CandidateResult& top = result.candidates[result.front.front()];
    if (!std::isnan(top.costs.front())) best = &top;
  }
  if (best != nullptr) {
    out << "\nbest by " << to_string(first) << ": " << best->point.label()
        << " (" << Table::num(objective_display(first, best->costs.front()), 3)
        << " " << objective_header(first) << ")\n";
  } else {
    out << "\nbest by " << to_string(first)
        << ": none (no candidate defined this objective)\n";
  }
  return out.str();
}

// --- layer passes --------------------------------------------------------------
//
// The workload span times the program's own job builders (McSweepJobs,
// ReplaySweepJobs, run_search), which do synthesis, source construction
// and trace parsing inside one call.  Each pass below repeats one layer's
// share of that work through the layer's public call, after the workload,
// so it can be timed on its own.  The passes re-compose the builders'
// steps: when a builder changes what it calls, its pass here must change
// with it.

// synthesize_scheme over every design of the sweep: diac.synthesize_s, and
// for search, search.synth_share's numerator.
void synth_pass(Sweep& s, const Netlist& nl) {
  const Scope pass(s.tracer, "diac.synth_pass", -1);
  for (const auto& [options, scheme] : s.designs) {
    const DiacSynthesizer synth(nl, s.lib, options);
    SynthesisResult r;
    {
      const Scope span(s.tracer, "diac.synthesize", pass.id());
      r = synth.synthesize_scheme(scheme);
    }
    s.tracer.count("diac.commit_points",
                   static_cast<double>(r.replacement.points.size()));
    s.checks.push_back(
        {r.design.tree.size(), r.replacement.points.size(), r.limits.scale});
  }
}

// make_source over mc's seeded scenarios, fanned out on the runner as
// McSweepJobs does.
void source_pass(Sweep& s, ExperimentRunner& runner) {
  std::vector<std::unique_ptr<HarvestSource>> sources(s.scenarios.size());
  {
    const Scope pass(s.tracer, "power.source_pass", -1);
    runner.parallel_for(sources.size(), [&](std::size_t k) {
      const Scope one(s.tracer, "power.source", pass.id());
      sources[k] = make_source(s.scenarios[k]);
    });
  }
  s.tracer.count("power.sources", static_cast<double>(sources.size()));
  for (const auto& source : sources) {
    if (const auto* rfid = dynamic_cast<const RfidBurstSource*>(source.get())) {
      s.tracer.count("power.source_segments",
                     static_cast<double>(rfid->trace().segments().size()));
    }
  }
}

// load_trace_csv over the files load_trace_library read.
void parse_pass(Sweep& s) {
  const Scope pass(s.tracer, "power.parse_pass", -1);
  for (const std::string& path : s.trace_files) {
    std::size_t rows = 0;
    {
      const Scope span(s.tracer, "power.trace_parse", pass.id());
      rows = load_trace_csv(path).segments().size();
    }
    s.tracer.count("power.trace_rows", static_cast<double>(rows));
    s.tracer.count("power.trace_bytes",
                   static_cast<double>(std::filesystem::file_size(path)));
  }
}

// DiacSynthesizer::synthesize_scheme's stages as separate public calls:
// TreeGenerator::generate, apply_policy with the limits
// DiacSynthesizer::transformed_tree derives, then insert_nvm (with the
// scale synthesize_scheme reported) or a baseline builder.  Each design is
// checked against synth_pass's result; a mismatch means the split no
// longer follows synthesize_scheme and is counted in stages.mismatches.
void split_stages(Sweep& s, const Netlist& nl, const SynthesisOptions& o,
                  Scheme scheme, const DesignCheck& check, int parent) {
  const TaskTree unoptimized = [&] {
    const Scope span(s.tracer, "tree.generate", parent);
    TreeGeneratorOptions tg;
    tg.grouping = o.grouping;
    return TreeGenerator(nl, s.lib, tg).generate();
  }();
  s.tree_tasks = std::max(s.tree_tasks, unoptimized.size());

  PolicyLimits limits;
  limits.scale = o.instance_rho * o.e_max / unoptimized.total_energy();
  limits.upper = o.upper_fraction * o.e_max;
  limits.lower = o.lower_ratio * limits.upper;
  TaskTree tree = [&] {
    const Scope span(s.tracer, "diac.policy", parent);
    return apply_policy(unoptimized, o.policy, limits);
  }();

  bool same = tree.size() == check.tree_tasks;
  switch (scheme) {
    case Scheme::kNvBased: {
      const Scope span(s.tracer, "diac.baseline", parent);
      make_nv_based(std::move(tree), o.technology, check.scale,
                    o.system_factor);
      break;
    }
    case Scheme::kNvClustering: {
      const Scope span(s.tracer, "diac.baseline", parent);
      make_nv_clustering(std::move(tree), o.technology, check.scale,
                         o.system_factor);
      break;
    }
    case Scheme::kDiac:
    case Scheme::kDiacOptimized: {
      ReplacementOptions ro;
      ro.budget = o.budget_fraction * o.e_max;
      ro.scale = check.scale;
      const Scope span(s.tracer, "diac.insert_nvm", parent);
      same = same && insert_nvm(tree, ro).points.size() == check.commit_points;
      break;
    }
  }
  if (!same) s.tracer.count("stages.mismatches", 1);
}

void stage_pass(Sweep& s, const Netlist& nl) {
  {
    const Scope pass(s.tracer, "diac.stages", -1);
    for (std::size_t i = 0; i < s.designs.size(); ++i) {
      const auto& [options, scheme] = s.designs[i];
      split_stages(s, nl, options, scheme, s.checks[i], pass.id());
    }
  }
  s.tracer.count("tree.tasks", static_cast<double>(s.tree_tasks));
  s.tracer.count("stages.mismatches", 0);
}

// --- main ----------------------------------------------------------------------

struct Invocation {
  std::string kind;
  std::string spans_out;
  std::string report_out;
  int run_id = 0;
};

Invocation parse_args(int argc, char** argv, Sweep& s) {
  if (argc < 3) {
    throw std::runtime_error(
        "usage: perfbench_driver <mc|replay|search> <circuit> [options] "
        "--spans-out <file> --report-out <file> [--run-id <n>]");
  }
  Invocation inv;
  inv.kind = argv[1];
  s.target = argv[2];
  for (int i = 3; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      throw std::runtime_error(std::string("expected option, got ") + argv[i]);
    }
    const std::string name = argv[i] + 2;
    std::string value = "1";
    if (!serve::is_flag_option(name)) {
      if (i + 1 >= argc) {
        throw std::runtime_error("option --" + name + " requires a value");
      }
      value = argv[++i];
    }
    if (name == "spans-out") {
      inv.spans_out = value;
    } else if (name == "report-out") {
      inv.report_out = value;
    } else if (name == "run-id") {
      inv.run_id = std::stoi(value);
    } else {
      s.options[name] = value;
    }
  }
  if (inv.spans_out.empty() || inv.report_out.empty()) {
    throw std::runtime_error("--spans-out and --report-out are required");
  }
  return inv;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  out.flush();
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Sweep s;
    const Invocation inv = parse_args(argc, argv, s);
    ExperimentRunner runner(
        std::stoi(serve::option_or(s.options, "threads", "0")));
    s.tracer.count("exp.threads", runner.jobs());

    std::optional<Netlist> nl;
    std::string report;
    {
      const Scope root(s.tracer, "workload", -1);
      {
        const Scope span(s.tracer, "netlist.build", root.id());
        nl.emplace(serve::load_target(s.target));
      }
      if (inv.kind == "mc") {
        report = run_mc(s, *nl, runner, root.id());
      } else if (inv.kind == "replay") {
        report = run_replay(s, *nl, runner, root.id());
      } else if (inv.kind == "search") {
        report = run_search_sweep(s, *nl, runner, root.id());
      } else {
        throw std::runtime_error("unknown sweep '" + inv.kind +
                                 "' (expected mc|replay|search)");
      }
    }
    synth_pass(s, *nl);
    if (inv.kind == "mc") source_pass(s, runner);
    if (inv.kind == "replay") parse_pass(s);
    if (inv.kind == "search") {
      s.tracer.count("search.unique_designs",
                     static_cast<double>(s.designs.size()));
    }
    stage_pass(s, *nl);

    write_file(inv.report_out, report);
    write_file(inv.spans_out, s.tracer.json(inv.run_id));
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
}
