#include "serve/options.hpp"

#include <charconv>
#include <cmath>
#include <filesystem>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "exp/trace_library.hpp"
#include "netlist/netlist_file.hpp"
#include "netlist/suite.hpp"
#include "obs/obs.hpp"

namespace diac::serve {

namespace {

// The commands, one bit each, in `diac help` order, and the sets of
// commands that read the same options.
// clang-format off
enum Command : unsigned {
  kSuite = 1u << 0, kStats = 1u << 1, kCheck = 1u << 2, kSynth = 1u << 3,
  kSimulate = 1u << 4, kMc = 1u << 5, kReplay = 1u << 6, kSearch = 1u << 7,
  kFsm = 1u << 8, kServe = 1u << 9, kVersion = 1u << 10, kHelp = 1u << 11,
  kShardWorker = 1u << 12,
};
constexpr unsigned kEvery = (kShardWorker << 1) - 1;
constexpr unsigned kSweeps = kMc | kReplay | kSearch;
constexpr unsigned kSimulating = kSimulate | kSweeps | kFsm;
constexpr unsigned kSynthesizing = kCheck | kSynth | kSimulating;
constexpr unsigned kSeeded = kCheck | kSimulate | kMc | kSearch | kFsm;
constexpr unsigned kSharded = kSweeps | kShardWorker;
constexpr unsigned kCaching = kSharded | kServe;
constexpr unsigned kThreaded = kCaching | kSimulate;

struct CommandSpec {
  std::string_view name;
  unsigned bit;
  bool target;            // takes a <circuit|file>
  std::string_view help;  // empty: hidden from `diac help`
};

constexpr CommandSpec kCommands[] = {
    {"suite", kSuite, false, "list the bundled benchmarks"},
    {"stats", kStats, true, "netlist statistics"},
    {"check", kCheck, true, "netlist DRC + equivalence / codegen round-trip"},
    {"synth", kSynth, true, "synthesize + export artifacts"},
    {"simulate", kSimulate, true, "run the four-scheme comparison"},
    {"mc", kMc, true, "Monte-Carlo sweep over seeded traces"},
    {"replay", kReplay, true, "replay measured trace CSVs (--trace)"},
    {"search", kSearch, true, "Pareto search: policy x budget x NVM x sensing"},
    {"fsm", kFsm, true, "event log of one scheme"},
    {"serve", kServe, false, "sweep server on a unix socket (docs/SERVE.md)"},
    {"version", kVersion, false, "build provenance (--version is an alias)"},
    {"help", kHelp, false, "show this message"},
    {"shard-worker", kShardWorker, true, ""},
};

struct OptionSpec {
  std::string_view name;  // without the leading dashes
  std::string_view arg;   // value placeholder for help; empty: bare flag
  unsigned commands;      // the commands that read it
  Forward forward;
  std::string_view help;  // at most 51 characters: one line of `diac help`
};

// Every option.  `commands` is exactly what each command's code reads.
// `diac help` prints the rows in this order, one heading per run of rows
// with the same commands.
constexpr OptionSpec kOptions[] = {
    {"policy", "1|2|3", kSynthesizing, kEverywhere, "tree policy (default 3)"},
    {"budget", "<fraction>", kSynthesizing, kEverywhere,
     "commit budget, a fraction of E_MAX (default 0.25)"},
    {"nvm", "mram|reram|feram|pcm", kSynthesizing, kEverywhere,
     "NVM technology (default mram)"},
    {"seed", "<n>", kSeeded, kEverywhere, "trace seed (default 60247)"},
    {"instances", "<n>", kSimulating, kEverywhere,
     "workload size (default 8; mc/search 6, fsm 4)"},
    {"source", "constant|square|rfid|solar|fig4|trace:<path>", kSimulating,
     kEverywhere, "harvest scenario (default rfid)"},
    {"threads", "<n>", kThreaded, kNever, "simulation threads (0: all cores)"},
    {"shards", "<n>", kSharded, kNever, "split the sweep over n processes"},
    {"connect", "<socket>", kSweeps, kNever, "send the sweep to `diac serve`"},
    {"cache-dir", "<dir>", kCaching, kWorkers, "result cache directory"},
    {"cache-limit-mb", "<n>", kCaching, kWorkers,
     "cache size cap in MiB (default 1024)"},
    {"socket", "<path>", kServe, kNever, "unix socket to listen on (required)"},
    {"runs", "<n>", kMc, kEverywhere, "Monte-Carlo trace count (default 32)"},
    {"trace", "<file|dir>", kReplay, kEverywhere,
     "trace CSV, or a library directory"},
    {"grid", "", kSearch, kEverywhere, "sweep the full grid (default)"},
    {"random", "<n>", kSearch, kEverywhere, "sample n distinct candidates"},
    {"sample-seed", "<n>", kSearch, kEverywhere,
     "seed of the --random draw (default 53715)"},
    {"objectives", "<list>", kSearch, kEverywhere,
     "comma list, e.g. pdp,writes (default pdp,progress)"},
    {"max-time", "<s>", kSearch, kEverywhere, "horizon in s (default 30000)"},
    {"csv", "<file>", kSearch, kNever, "dump every candidate to a CSV"},
    {"scheme", "nv-based|nv-clustering|diac|diac-opt", kFsm, kNever,
     "scheme to trace (default diac-opt)"},
    {"out", "<prefix>", kSynth, kNever, "artifact prefix (default: circuit)"},
    {"against", "<circuit|file>", kCheck, kNever,
     "check equivalence against this netlist"},
    {"drc-only", "", kCheck, kNever, "stop after the DRC report"},
    {"seq-cycles", "<k>", kCheck, kNever, "cycles per round (default 8)"},
    {"match", "name|order", kCheck, kNever, "port matching (default name)"},
    {"shard-cmd", "mc|replay|search", kShardWorker, kNever, "sweep kind"},
    {"shard-index", "<i>", kShardWorker, kNever, "this worker's block"},
    {"shard-out", "<file>", kShardWorker, kNever, "the row file to write"},
    {"trace-out", "<file>", kEvery, kNever, "write a Chrome trace-event JSON"},
    {"metrics-out", "<file>", kEvery, kNever, "write the metrics as JSON"},
    {"help", "", kEvery, kNever, "print this message (-h is a synonym)"},
};
// clang-format on

unsigned bit_of(std::string_view command) {
  for (const CommandSpec& c : kCommands) {
    if (c.name == command) return c.bit;
  }
  return 0;
}

const OptionSpec* find_option(std::string_view name) {
  for (const OptionSpec& o : kOptions) {
    if (o.name == name) return &o;
  }
  return nullptr;
}

// One line of `diac help`: `head`, then `text` from column 29 (on the
// next line when `head` reaches it).
void write_help_line(std::ostream& out, const std::string& head,
                     std::string_view text) {
  constexpr std::size_t kColumn = 29;
  out << head
      << (head.size() < kColumn ? std::string(kColumn - head.size(), ' ')
                                : "\n" + std::string(kColumn, ' '))
      << text << "\n";
}

// "mc", "check, synth, mc", or "every command".
std::string command_list(unsigned commands) {
  if (commands == (kEvery & ~kShardWorker)) return "every command";
  std::string list;
  for (const CommandSpec& c : kCommands) {
    if ((commands & c.bit) != 0) {
      list += (list.empty() ? "" : ", ") + std::string(c.name);
    }
  }
  return list;
}

}  // namespace

bool is_command(std::string_view command) { return bit_of(command) != 0; }

OptionMap parse_options(const std::string& command,
                        const std::vector<std::string>& tokens,
                        OptionSource source) {
  const unsigned bit = bit_of(command);
  if (source == OptionSource::kRequest && (bit & kSweeps) == 0) {
    throw std::runtime_error("unknown sweep kind '" + command +
                             "' (expected mc|replay|search)");
  }
  unsigned kind = 0;  // a shard worker's --shard-cmd
  for (std::size_t i = 0; bit == kShardWorker && i + 1 < tokens.size(); ++i) {
    if (tokens[i] == "--shard-cmd") kind = bit_of(tokens[i + 1]) & kSweeps;
  }
  OptionMap options;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token.rfind("--", 0) != 0 || token.size() <= 2) {
      throw std::runtime_error(command + ": expected option, got '" + token +
                               "'");
    }
    const OptionSpec* o = find_option(token.substr(2));
    const bool reads =
        o != nullptr &&
        (source == OptionSource::kRequest
             ? o->forward == kEverywhere && (o->commands & bit) != 0
             : (o->commands & bit) != 0 ||
                   (o->forward != kNever && (o->commands & kind) != 0));
    if (!reads) throw std::runtime_error(command + ": unknown option " + token);
    if (!o->arg.empty() && ++i == tokens.size()) {
      throw std::runtime_error(command + ": option " + token +
                               " requires a value");
    }
    options[std::string(o->name)] = o->arg.empty() ? "1" : tokens[i];
  }
  return options;
}

OptionMap forwarded_options(const OptionMap& options, Forward reach) {
  OptionMap forwarded;
  for (const auto& [key, value] : options) {
    const OptionSpec* o = find_option(key);
    if (o != nullptr && o->forward >= reach) forwarded.emplace(key, value);
  }
  return forwarded;
}

void write_usage(std::ostream& out) {
  out << "usage: diac <command> [target] [options]\n\ncommands:\n";
  for (const CommandSpec& c : kCommands) {
    if (c.help.empty()) continue;
    std::string head = "  " + std::string(c.name);
    if (c.target) head.resize(11, ' ');
    write_help_line(out, head + (c.target ? "<circuit|file>" : ""), c.help);
  }
  out << "\n<circuit|file> is a bundled benchmark name (see `diac suite`) or "
         "a path\nending in .bench / .blif / .v (structural Verilog, e.g. a "
         "synth artifact).\nA command rejects any option it does not read "
         "(exit 1).\nexit codes for check: 0 clean/equivalent, 4 DRC "
         "errors, 5 not equivalent\n";
  unsigned section = 0;
  for (const OptionSpec& o : kOptions) {
    const unsigned readers = o.commands & ~kShardWorker;
    if (readers == 0) continue;
    if (readers != section) {
      section = readers;
      out << "\noptions for " << command_list(readers) << ":\n";
    }
    const std::string head = "  --" + std::string(o.name);
    write_help_line(out, o.arg.empty() ? head : head + " " + std::string(o.arg),
                    o.help);
  }
}

bool is_flag_option(const std::string& name) {
  const OptionSpec* o = find_option(name);
  return o != nullptr && o->arg.empty();
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

// `options[key]`, or `dflt` when absent.  The whole value must parse
// (std::from_chars consumes every character) and satisfy `ok`;
// otherwise bad_value reports it as not `what`.
template <typename T, typename Ok>
T number_option(const OptionMap& options, const std::string& key, T dflt,
                const std::string& what, Ok ok) {
  const auto it = options.find(key);
  if (it == options.end()) return dflt;
  const std::string& text = it->second;
  T v{};
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || ptr != text.data() + text.size() || text.empty() ||
      !ok(v)) {
    bad_value(key, what, text);
  }
  return v;
}

}  // namespace

long long int_option(const OptionMap& options, const std::string& key,
                     long long dflt, long long lo, long long hi) {
  return number_option(options, key, dflt,
                       "an integer in [" + std::to_string(lo) + ", " +
                           std::to_string(hi) + "]",
                       [&](long long v) { return lo <= v && v <= hi; });
}

std::uint64_t uint64_option(const OptionMap& options, const std::string& key,
                            std::uint64_t dflt) {
  return number_option(options, key, dflt, "an unsigned 64-bit integer",
                       [](std::uint64_t) { return true; });
}

double positive_option(const OptionMap& options, const std::string& key,
                       double dflt, double hi) {
  std::ostringstream what;
  what << "a finite number in (0, " << hi << "]";
  return number_option(options, key, dflt, what.str(), [&](double v) {
    return std::isfinite(v) && v > 0 && v <= hi;
  });
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
  if (std::optional<Netlist> nl = read_netlist_file(target)) {
    return std::move(*nl);
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
  // evaluate_monte_carlo / mc_rows reject non-seeded sources.
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
  if (!std::filesystem::is_directory(trace)) return {trace};
  std::vector<std::string> files = list_trace_files(trace);
  if (files.empty()) {
    throw std::runtime_error("trace library: no .csv traces in " + trace);
  }
  return files;
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
