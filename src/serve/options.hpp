/// The option table and the sweep option builders, shared verbatim by
/// the CLI, shard workers and the serve protocol.
///
/// Every option is declared once, as a row of the table in options.cpp
/// that the tokenizer, the forwarding and `diac help` read.  A serve
/// request line carries the same `--key value` options as the `diac`
/// command line, and both funnel through these builders, so a served
/// sweep and a standalone one can never disagree on what an option
/// means: the precondition for the byte-identity guarantees.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/montecarlo.hpp"
#include "metrics/pdp.hpp"
#include "netlist/netlist.hpp"
#include "search/engine.hpp"

namespace diac::serve {

/// Parsed `--key value` options, keyed without the leading dashes.
using OptionMap = std::map<std::string, std::string>;

/// How far an option travels from the command line that names it.
enum Forward {
  kNever,       ///< read by the issuing process only
  kWorkers,     ///< also handed to shard workers, never to a server
  kEverywhere,  ///< part of the sweep: workers and serve requests too
};

/// True when `command` names a `diac` command ("mc", "shard-worker", ...).
bool is_command(std::string_view command);

/// A `diac` command line (argv after the target), or the options of a
/// serve request of one sweep kind.
enum class OptionSource { kCommandLine, kRequest };

/// The one option tokenizer: `--key value` and bare `--flag` (parsed as
/// "1") tokens of the options `command` reads: the table rows naming it
/// (a shard worker: plus the forwarded rows of its --shard-cmd kind), or
/// in a request of an mc, replay or search kind, its rows forwarded
/// everywhere.  Throws "<command>: unknown option --<key>" otherwise.
OptionMap parse_options(const std::string& command,
                        const std::vector<std::string>& tokens,
                        OptionSource source);

/// The options whose table row travels at least as far as `reach`
/// (kWorkers: the argv of a shard worker; kEverywhere: a serve request).
OptionMap forwarded_options(const OptionMap& options, Forward reach);

/// Writes `diac help`, generated from the command and option tables: one
/// heading per run of table rows read by the same commands.
void write_usage(std::ostream& out);

/// Options that are bare flags (no value); they parse as "1".
bool is_flag_option(const std::string& name);

/// `options[key]`, or `dflt` when absent.
std::string option_or(const OptionMap& options, const std::string& key,
                      const std::string& dflt);

/// The rule an option's value must satisfy.
enum class ValueType : unsigned char {
  kText,    ///< any text (a bare flag: none)
  kInt,     ///< an integer in [lo, hi]
  kUint64,  ///< any unsigned 64-bit integer
  kReal,    ///< a finite number in (0, hi]
  kChoice,  ///< one of the '|'-separated names of `arg`
};

/// One row of the option table: everything about one option.
struct OptionSpec {
  std::string_view name;  ///< without the leading dashes
  std::string_view arg;   ///< value placeholder for help; empty: bare flag
  unsigned commands;      ///< the commands that read it (a bit each)
  Forward forward;
  /// At most 51 characters: one line of `diac help`.  A "; " tail goes
  /// inside the parentheses of the default.
  std::string_view help;
  /// The value an absent option reads as; empty: the zero of its type
  /// (0, or empty text).  `diac help` prints it as "(default <dflt>)".
  std::string_view dflt = "";
  ValueType type = ValueType::kText;
  long long lo = 0, hi = 0;  ///< the range of kInt; kReal uses hi only
};

/// The option table, in `diac help` order.
std::span<const OptionSpec> option_table();

/// The row-reading getters, shared by the CLI, `shard-worker` and serve.
/// Each reads `options[key]`, else the row's default, and checks it as
/// parse_options does: a number must be spelled whole (std::from_chars
/// consumes every character), be finite and lie in the row's range; a
/// choice must be one of its names.  Anything else throws
/// std::runtime_error "--<name>: expected <what>, got '<value>'".  `key`
/// must name a row of the getter's type (a std::logic_error otherwise).
///
/// number_value reads a kInt or kUint64 row as an int or std::uint64_t
/// (which must hold the row's range), a kReal row as a double.  `absent`
/// overrides the row default: --instances defaults per command.
template <typename T>
T number_value(const OptionMap& options, std::string_view key,
               std::optional<T> absent = std::nullopt);
/// A kChoice row's value, as its index among the row's names.
std::size_t choice_value(const OptionMap& options, std::string_view key);
/// A kText row's value.
std::string text_value(const OptionMap& options, std::string_view key);
/// The value of an option `command` cannot run without; absent throws
/// "<command> requires --<key> <arg>".
std::string required_value(const OptionMap& options, std::string_view command,
                           std::string_view key);

/// Loads a sweep target: a path ending in .bench / .blif / .v (see
/// read_netlist_file), else a bundled benchmark name.  Throws on unknown
/// names and unreadable or malformed files.
Netlist load_target(const std::string& target);

/// --policy / --budget / --nvm -> synthesis recipe.
SynthesisOptions synth_options(const OptionMap& options);

/// --source / --seed -> harvest scenario (defaults to the paper's RFID
/// bursts under the historical default seed).
ScenarioSpec scenario_options(const OptionMap& options);

/// The full mc sweep configuration (instances, horizon, scenario).
EvaluationOptions mc_eval_options(const OptionMap& options);

/// --runs with validation (positive).
int mc_runs(const OptionMap& options);

/// The replay sweep configuration (scenarios come from the trace list).
EvaluationOptions replay_eval_options(const OptionMap& options);

/// The --trace <file|dir> argument (accepting --source trace:<path> as
/// the flag-compatible spelling); throws when neither is given.
std::string replay_trace_arg(const OptionMap& options);

/// The global replay job list: the sorted CSVs of a library directory,
/// or the single named file.  Every participant (CLI, worker, server)
/// derives the identical list, which is what addresses a row's global
/// job index.  Throws on a directory without CSVs.
std::vector<std::string> replay_trace_files(const std::string& trace);

/// The search configuration (--objectives, --max-time, ...).
SearchOptions search_options(const OptionMap& options);

/// The candidate list: the full grid (--grid, the default) or a seeded
/// --random sample, in canonical order.
std::vector<DesignPoint> search_points(const OptionMap& options);

}  // namespace diac::serve
