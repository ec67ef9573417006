#include "serve/options.hpp"

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "exp/trace_library.hpp"
#include "netlist/bench_format.hpp"
#include "netlist/blif_format.hpp"
#include "netlist/suite.hpp"
#include "netlist/transforms.hpp"
#include "netlist/verilog_format.hpp"
#include "obs/obs.hpp"

namespace diac::serve {

bool is_flag_option(const std::string& name) {
  return name == "grid" || name == "drc-only";
}

std::string option_or(const OptionMap& options, const std::string& key,
                      const std::string& dflt) {
  auto it = options.find(key);
  return it == options.end() ? dflt : it->second;
}

Netlist load_target(const std::string& target) {
  DIAC_TRACE_SPAN("netlist.load", "netlist");
  if (target.size() > 6 &&
      target.compare(target.size() - 6, 6, ".bench") == 0) {
    return cleanup(parse_bench_file(target));
  }
  if (target.size() > 5 && target.compare(target.size() - 5, 5, ".blif") == 0) {
    return cleanup(parse_blif_file(target));
  }
  if (target.size() > 2 && target.compare(target.size() - 2, 2, ".v") == 0) {
    std::ifstream in(target);
    if (!in) throw std::runtime_error("cannot open " + target);
    Netlist nl = parse_structural_verilog(in).netlist;
    if (nl.name() == "top" || nl.name().empty()) nl.set_name(target);
    return nl;
  }
  return build_benchmark(target);  // throws a clear error when unknown
}

SynthesisOptions synth_options(const OptionMap& options) {
  SynthesisOptions so;
  const std::string policy = option_or(options, "policy", "3");
  so.policy = policy == "1"   ? PolicyKind::kPolicy1
              : policy == "2" ? PolicyKind::kPolicy2
                              : PolicyKind::kPolicy3;
  so.budget_fraction = std::stod(option_or(options, "budget", "0.25"));
  const std::string nvm = option_or(options, "nvm", "mram");
  so.technology = nvm == "reram"   ? NvmTechnology::kReram
                  : nvm == "feram" ? NvmTechnology::kFeram
                  : nvm == "pcm"   ? NvmTechnology::kPcm
                                   : NvmTechnology::kMram;
  return so;
}

ScenarioSpec scenario_options(const OptionMap& options) {
  ScenarioSpec spec = scenario_from_name(option_or(options, "source", "rfid"));
  spec.seed = std::stoull(option_or(options, "seed", "60247"));
  return spec;
}

EvaluationOptions mc_eval_options(const OptionMap& options) {
  EvaluationOptions eo;
  eo.synthesis = synth_options(options);
  eo.simulator.target_instances =
      std::stoi(option_or(options, "instances", "6"));
  eo.simulator.max_time = 20000;
  // evaluate_monte_carlo / run_mc_shard reject non-seeded sources.
  eo.scenario = scenario_options(options);
  return eo;
}

int mc_runs(const OptionMap& options) {
  const int runs = std::stoi(option_or(options, "runs", "32"));
  if (runs <= 0) throw std::runtime_error("--runs must be positive");
  return runs;
}

EvaluationOptions replay_eval_options(const OptionMap& options) {
  EvaluationOptions eo;
  eo.synthesis = synth_options(options);
  eo.simulator.target_instances =
      std::stoi(option_or(options, "instances", "8"));
  return eo;
}

std::string replay_trace_arg(const OptionMap& options) {
  std::string trace = option_or(options, "trace", "");
  if (trace.empty()) {
    // `--source trace:<path>` is the flag-compatible spelling.
    const std::string source = option_or(options, "source", "");
    if (source.rfind("trace:", 0) == 0) trace = source.substr(6);
  }
  if (trace.empty()) {
    throw std::runtime_error("replay requires --trace <file|dir>");
  }
  return trace;
}

std::vector<std::string> replay_trace_files(const std::string& trace) {
  if (std::filesystem::is_directory(trace)) return list_trace_files(trace);
  return {trace};
}

SearchOptions search_options(const OptionMap& options) {
  SearchOptions so;
  so.synthesis = synth_options(options);  // base values under the swept axes
  so.scenario = scenario_options(options);
  so.simulator.target_instances =
      std::stoi(option_or(options, "instances", "6"));
  so.simulator.max_time = std::stod(option_or(options, "max-time", "30000"));
  so.objectives =
      SearchObjectives::parse(option_or(options, "objectives", "pdp,progress"));
  return so;
}

std::vector<DesignPoint> search_points(const OptionMap& options) {
  const CandidateSpace space;
  if (options.count("random") != 0) {
    if (options.count("grid") != 0) {
      throw std::runtime_error("--grid and --random are mutually exclusive");
    }
    const int n = std::stoi(option_or(options, "random", "8"));
    if (n <= 0) throw std::runtime_error("--random must be positive");
    return space.sample(static_cast<std::size_t>(n),
                        std::stoull(option_or(options, "sample-seed", "53715")));
  }
  return space.grid();  // --grid is the default
}

}  // namespace diac::serve
