#include "serve/options.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <type_traits>

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

// Upper bounds of the count options (--runs, --instances, --random) and
// of the process options (--threads, --shards).
constexpr long long kMaxCount = 1'000'000;
constexpr long long kMaxThreads = 1024;

using enum ValueType;

// Every option.  `commands` is exactly what each command's code reads.
// `diac help` prints the rows in this order, one heading per run of rows
// with the same commands.
constexpr OptionSpec kOptions[] = {
    {"policy", "1|2|3", kSynthesizing, kEverywhere, "tree policy", "3",
     kChoice},
    {"budget", "<fraction>", kSynthesizing, kEverywhere,
     "commit budget, a fraction of E_MAX", "0.25", kReal, 0, 1'000'000},
    {"nvm", "mram|reram|feram|pcm", kSynthesizing, kEverywhere,
     "NVM technology", "mram", kChoice},
    {"seed", "<n>", kSeeded, kEverywhere, "trace seed", "60247", kUint64},
    {"instances", "<n>", kSimulating, kEverywhere,
     "workload size; mc/search 6, fsm 4", "8", kInt, 1, kMaxCount},
    {"source", "constant|square|rfid|solar|fig4|trace:<path>", kSimulating,
     kEverywhere, "harvest scenario", "rfid"},
    {"threads", "<n>", kThreaded, kNever, "simulation threads (0: all cores)",
     "", kInt, 0, kMaxThreads},
    {"shards", "<n>", kSharded, kNever, "split the sweep over n processes", "",
     kInt, 1, kMaxThreads},
    {"connect", "<socket>", kSweeps, kNever, "send the sweep to `diac serve`"},
    {"cache-dir", "<dir>", kCaching, kWorkers, "result cache directory"},
    {"cache-limit-mb", "<n>", kCaching, kWorkers, "cache size cap in MiB",
     "1024", kInt, 0, 1LL << 40},
    {"socket", "<path>", kServe, kNever, "unix socket to listen on (required)"},
    {"runs", "<n>", kMc, kEverywhere, "Monte-Carlo trace count", "32", kInt, 1,
     kMaxCount},
    {"trace", "<file|dir>", kReplay, kEverywhere,
     "trace CSV, or a library directory"},
    {"grid", "", kSearch, kEverywhere, "sweep the full grid (default)"},
    {"random", "<n>", kSearch, kEverywhere, "sample n distinct candidates", "",
     kInt, 1, kMaxCount},
    {"sample-seed", "<n>", kSearch, kEverywhere, "seed of the --random draw",
     "53715", kUint64},
    {"objectives", "<list>", kSearch, kEverywhere,
     "comma list, e.g. pdp,writes", "pdp,progress"},
    {"max-time", "<s>", kSearch, kEverywhere, "horizon in s", "30000", kReal, 0,
     1'000'000'000'000},
    {"csv", "<file>", kSearch, kNever, "dump every candidate to a CSV"},
    {"scheme", "nv-based|nv-clustering|diac|diac-opt", kFsm, kNever,
     "scheme to trace", "diac-opt", kChoice},
    {"out", "<prefix>", kSynth, kNever, "artifact prefix (default: circuit)"},
    {"against", "<circuit|file>", kCheck, kNever,
     "check equivalence against this netlist"},
    {"drc-only", "", kCheck, kNever, "stop after the DRC report"},
    {"seq-cycles", "<k>", kCheck, kNever, "cycles per round", "8", kInt, 1,
     1 << 20},
    {"match", "name|order", kCheck, kNever, "port matching", "name", kChoice},
    {"shard-cmd", "mc|replay|search", kShardWorker, kNever, "sweep kind", "",
     kChoice},
    {"shard-index", "<i>", kShardWorker, kNever, "this worker's block", "",
     kInt, 0, kMaxThreads - 1},
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

// A row's help line: its help, then its default in parentheses, which
// take in a "; " tail of the help.
std::string help_text(const OptionSpec& o) {
  if (o.dflt.empty()) return std::string(o.help);
  const std::size_t tail = std::min(o.help.find("; "), o.help.size());
  return std::string(o.help.substr(0, tail)) + " (default " +
         std::string(o.dflt) + std::string(o.help.substr(tail)) + ")";
}

// "--<name>: expected <what, by default the row's arg>, got '<value>'".
[[noreturn]] void bad_value(const OptionSpec& o, std::string_view value,
                            std::string_view what = {}) {
  throw std::runtime_error(
      "--" + std::string(o.name) + ": expected " +
      std::string(what.empty() ? o.arg : what) + ", got '" +
      std::string(value) + "'");
}

// The whole of `text` as a T (std::from_chars consumes every character)
// within the row's range.
template <typename T>
T parse_number(const OptionSpec& o, std::string_view text) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  const bool whole = ec == std::errc{} && ptr == end;
  if constexpr (std::is_floating_point_v<T>) {
    const double hi = static_cast<double>(o.hi);
    if (whole && std::isfinite(v) && v > 0 && v <= hi) return v;
    std::ostringstream what;
    what << "a finite number in (0, " << hi << "]";
    bad_value(o, text, what.str());
  } else if constexpr (std::is_signed_v<T>) {
    if (whole && o.lo <= v && v <= o.hi) return v;
    bad_value(o, text, "an integer in [" + std::to_string(o.lo) + ", " +
                           std::to_string(o.hi) + "]");
  } else {
    if (whole) return v;
    bad_value(o, text, "an unsigned 64-bit integer");
  }
}

// The index of `value` among the row's '|'-separated names.
std::size_t choice_index(const OptionSpec& o, std::string_view value) {
  for (std::size_t begin = 0, index = 0;; ++index) {
    const std::size_t end = std::min(o.arg.find('|', begin), o.arg.size());
    if (o.arg.substr(begin, end - begin) == value) return index;
    if (end == o.arg.size()) bad_value(o, value);
    begin = end + 1;
  }
}

// The one validator: throws bad_value unless `value` satisfies the row.
void check_value(const OptionSpec& option, std::string_view value) {
  switch (option.type) {
    case kInt: parse_number<long long>(option, value); break;
    case kUint64: parse_number<std::uint64_t>(option, value); break;
    case kReal: parse_number<double>(option, value); break;
    case kChoice: choice_index(option, value); break;
    case kText: break;
  }
}

// The row `key` names, which must be of `type`.
const OptionSpec& row(std::string_view key, ValueType type) {
  const OptionSpec* o = find_option(key);
  if (o != nullptr && o->type == type) return *o;
  throw std::logic_error("--" + std::string(key) + ": no row of this type");
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
    check_value(*o, tokens[i]);  // a flag: its own token, a kText row
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
                    help_text(o));
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

std::span<const OptionSpec> option_table() { return kOptions; }

template <typename T>
T number_value(const OptionMap& options, std::string_view key,
               std::optional<T> absent) {
  const OptionSpec* o = find_option(key);
  if (o == nullptr || o->type == kText || o->type == kChoice ||
      (o->type == kReal) != std::is_floating_point_v<T>) {
    throw std::logic_error("--" + std::string(key) + ": not a number row");
  }
  const auto it = options.find(std::string(key));
  if (it == options.end() && (absent || o->dflt.empty())) {
    return absent.value_or(T{});
  }
  const std::string_view text = it != options.end() ? it->second : o->dflt;
  if (o->type == kReal) return static_cast<T>(parse_number<double>(*o, text));
  if (o->type == kInt) return static_cast<T>(parse_number<long long>(*o, text));
  return static_cast<T>(parse_number<std::uint64_t>(*o, text));
}

using Key = std::string_view;
template int number_value(const OptionMap&, Key, std::optional<int>);
template std::uint64_t number_value(const OptionMap&, Key,
                                    std::optional<std::uint64_t>);
template double number_value(const OptionMap&, Key, std::optional<double>);

std::size_t choice_value(const OptionMap& options, std::string_view key) {
  const OptionSpec& o = row(key, kChoice);
  const auto it = options.find(std::string(key));
  return choice_index(o, it != options.end() ? it->second : o.dflt);
}

std::string text_value(const OptionMap& options, std::string_view key) {
  const OptionSpec& o = row(key, kText);
  const auto it = options.find(std::string(key));
  return it != options.end() ? it->second : std::string(o.dflt);
}

std::string required_value(const OptionMap& options, std::string_view command,
                           std::string_view key) {
  const auto it = options.find(std::string(key));
  if (it != options.end()) return it->second;
  throw std::runtime_error(std::string(command) + " requires --" +
                           std::string(key) + " " +
                           std::string(find_option(key)->arg));
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
  so.policy = kPolicies[choice_value(options, "policy")];
  so.budget_fraction = number_value<double>(options, "budget");
  constexpr NvmTechnology kTechnologies[] = {
      NvmTechnology::kMram, NvmTechnology::kReram, NvmTechnology::kFeram,
      NvmTechnology::kPcm};
  so.technology = kTechnologies[choice_value(options, "nvm")];
  return so;
}

ScenarioSpec scenario_options(const OptionMap& options) {
  const std::string source = text_value(options, "source");
  ScenarioSpec spec;
  try {
    spec = scenario_from_name(source);
  } catch (const std::invalid_argument&) {  // not a source name
    bad_value(row("source", kText), source);
  }
  spec.seed = number_value<std::uint64_t>(options, "seed");
  return spec;
}

EvaluationOptions mc_eval_options(const OptionMap& options) {
  EvaluationOptions eo;
  eo.synthesis = synth_options(options);
  eo.simulator.target_instances = number_value<int>(options, "instances", 6);
  eo.simulator.max_time = 20000;
  // evaluate_monte_carlo / mc_rows reject non-seeded sources.
  eo.scenario = scenario_options(options);
  return eo;
}

int mc_runs(const OptionMap& options) {
  return number_value<int>(options, "runs");
}

EvaluationOptions replay_eval_options(const OptionMap& options) {
  EvaluationOptions eo;
  eo.synthesis = synth_options(options);
  eo.simulator.target_instances = number_value<int>(options, "instances");
  return eo;
}

std::string replay_trace_arg(const OptionMap& options) {
  std::string trace = text_value(options, "trace");
  if (trace.empty()) {
    // `--source trace:<path>` is the flag-compatible spelling.
    const std::string source = text_value(options, "source");
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
  so.simulator.target_instances = number_value<int>(options, "instances", 6);
  so.simulator.max_time = number_value<double>(options, "max-time");
  const std::string objectives = text_value(options, "objectives");
  try {
    so.objectives = SearchObjectives::parse(objectives);
  } catch (const std::invalid_argument&) {
    std::string names;
    for (int i = 0; i < kObjectiveKindCount; ++i) {
      names += i == 0 ? "" : "|";
      names += to_string(static_cast<ObjectiveKind>(i));
    }
    bad_value(row("objectives", kText), objectives,
              "a comma list of distinct " + names);
  }
  return so;
}

std::vector<DesignPoint> search_points(const OptionMap& options) {
  const CandidateSpace space;
  if (options.count("random") != 0) {
    if (options.count("grid") != 0) {
      throw std::runtime_error("--grid and --random are mutually exclusive");
    }
    return space.sample(number_value<std::size_t>(options, "random"),
                        number_value<std::uint64_t>(options, "sample-seed"));
  }
  return space.grid();  // --grid is the default
}

}  // namespace diac::serve
