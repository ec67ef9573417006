#include "serve/options.hpp"

#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
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

namespace {

// Upper bound of the count options (--runs, --instances, --random).
constexpr long long kMaxCount = 1'000'000;

[[noreturn]] void bad_value(const std::string& key, const std::string& what,
                            const std::string& value) {
  throw std::runtime_error("--" + key + ": expected " + what + ", got '" +
                           value + "'");
}

// Full-match std::from_chars: true when the whole of `text` parses.
template <typename T>
bool parse_all(const std::string& text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end && !text.empty();
}

}  // namespace

long long int_option(const OptionMap& options, const std::string& key,
                     long long dflt, long long lo, long long hi) {
  const auto it = options.find(key);
  if (it == options.end()) return dflt;
  long long v = 0;
  if (!parse_all(it->second, v) || v < lo || v > hi) {
    bad_value(key,
              "an integer in [" + std::to_string(lo) + ", " +
                  std::to_string(hi) + "]",
              it->second);
  }
  return v;
}

std::uint64_t uint64_option(const OptionMap& options, const std::string& key,
                            std::uint64_t dflt) {
  const auto it = options.find(key);
  if (it == options.end()) return dflt;
  std::uint64_t v = 0;
  if (!parse_all(it->second, v)) {
    bad_value(key, "an unsigned 64-bit integer", it->second);
  }
  return v;
}

double positive_option(const OptionMap& options, const std::string& key,
                       double dflt, double hi) {
  const auto it = options.find(key);
  if (it == options.end()) return dflt;
  double v = 0;
  if (!parse_all(it->second, v) || !std::isfinite(v) || v <= 0 || v > hi) {
    std::ostringstream what;
    what << "a finite number in (0, " << hi << "]";
    bad_value(key, what.str(), it->second);
  }
  return v;
}

std::size_t choice_option(const OptionMap& options, const std::string& key,
                          const std::string& dflt,
                          std::initializer_list<std::string_view> names) {
  const std::string value = option_or(options, key, dflt);
  std::size_t i = 0;
  for (std::string_view name : names) {
    if (value == name) return i;
    ++i;
  }
  std::string what;
  for (std::string_view name : names) {
    if (!what.empty()) what += '|';
    what += name;
  }
  bad_value(key, what, value);
}

int instances_option(const OptionMap& options, int dflt) {
  return static_cast<int>(int_option(options, "instances", dflt, 1, kMaxCount));
}

Netlist load_target(const std::string& target) {
  DIAC_TRACE_SPAN("netlist.load", "netlist");
  if (target.size() > 6 &&
      target.compare(target.size() - 6, 6, ".bench") == 0) {
    DIAC_TRACE_SPAN("netlist.parse", "netlist");
    return cleanup(parse_bench_file(target));
  }
  if (target.size() > 5 && target.compare(target.size() - 5, 5, ".blif") == 0) {
    DIAC_TRACE_SPAN("netlist.parse", "netlist");
    return cleanup(parse_blif_file(target));
  }
  if (target.size() > 2 && target.compare(target.size() - 2, 2, ".v") == 0) {
    DIAC_TRACE_SPAN("netlist.parse", "netlist");
    std::ifstream in(target);
    if (!in) throw std::runtime_error("cannot open " + target);
    Netlist nl = parse_structural_verilog(in).netlist;
    if (nl.name() == "top" || nl.name().empty()) nl.set_name(target);
    return nl;
  }
  DIAC_TRACE_SPAN("netlist.generate", "netlist");
  return build_benchmark(target);  // throws a clear error when unknown
}

SynthesisOptions synth_options(const OptionMap& options) {
  SynthesisOptions so;
  constexpr PolicyKind kPolicies[] = {PolicyKind::kPolicy1,
                                      PolicyKind::kPolicy2,
                                      PolicyKind::kPolicy3};
  so.policy = kPolicies[choice_option(options, "policy", "3", {"1", "2", "3"})];
  so.budget_fraction = positive_option(options, "budget", 0.25, 1.0e6);
  constexpr NvmTechnology kTechnologies[] = {
      NvmTechnology::kMram, NvmTechnology::kReram, NvmTechnology::kFeram,
      NvmTechnology::kPcm};
  so.technology = kTechnologies[choice_option(
      options, "nvm", "mram", {"mram", "reram", "feram", "pcm"})];
  return so;
}

ScenarioSpec scenario_options(const OptionMap& options) {
  ScenarioSpec spec = scenario_from_name(option_or(options, "source", "rfid"));
  spec.seed = uint64_option(options, "seed", 60247);
  return spec;
}

EvaluationOptions mc_eval_options(const OptionMap& options) {
  EvaluationOptions eo;
  eo.synthesis = synth_options(options);
  eo.simulator.target_instances = instances_option(options, 6);
  eo.simulator.max_time = 20000;
  // evaluate_monte_carlo / run_mc_shard reject non-seeded sources.
  eo.scenario = scenario_options(options);
  return eo;
}

int mc_runs(const OptionMap& options) {
  return static_cast<int>(int_option(options, "runs", 32, 1, kMaxCount));
}

EvaluationOptions replay_eval_options(const OptionMap& options) {
  EvaluationOptions eo;
  eo.synthesis = synth_options(options);
  eo.simulator.target_instances = instances_option(options, 8);
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
  so.simulator.target_instances = instances_option(options, 6);
  so.simulator.max_time = positive_option(options, "max-time", 30000, 1.0e12);
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
    const long long n = int_option(options, "random", 8, 1, kMaxCount);
    return space.sample(static_cast<std::size_t>(n),
                        uint64_option(options, "sample-seed", 53715));
  }
  return space.grid();  // --grid is the default
}

}  // namespace diac::serve
