/// The sweep option builders, shared verbatim by the CLI and the serve
/// protocol.
///
/// A serve request line carries the same `--key value` options as the
/// `diac` command line; both surfaces funnel through these builders, so
/// a served sweep and a standalone one can never disagree on what an
/// option means — which is the precondition for the cold/warm and
/// local/remote byte-identity guarantees.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
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

/// Options that are bare flags (no value); they parse as "1".
bool is_flag_option(const std::string& name);

/// `options[key]`, or `dflt` when absent.
std::string option_or(const OptionMap& options, const std::string& key,
                      const std::string& dflt);

/// Typed option readers, shared by the CLI, `shard-worker` and serve.
/// int_option reads an integer in [lo, hi].
/// Each reads `options[key]` (or `dflt` when absent) and parses the whole
/// value: std::from_chars must consume every character, numbers must be
/// finite and lie in the stated range, and a choice must be one of the
/// listed names.  Anything else throws std::runtime_error
/// "--<key>: expected <what>, got '<value>'".
long long int_option(const OptionMap& options, const std::string& key,
                     long long dflt, long long lo, long long hi);
/// Any unsigned 64-bit integer.
std::uint64_t uint64_option(const OptionMap& options, const std::string& key,
                            std::uint64_t dflt);
/// A finite number > 0 and <= hi.
double positive_option(const OptionMap& options, const std::string& key,
                       double dflt, double hi);
/// The index of the value in `names`.
std::size_t choice_option(const OptionMap& options, const std::string& key,
                          const std::string& dflt,
                          std::initializer_list<std::string_view> names);

/// --instances in [1, 1000000].
int instances_option(const OptionMap& options, int dflt);

/// Loads a sweep target: a bundled benchmark name, or a path ending in
/// .bench / .blif / .v.  Throws on unknown names/unreadable files.
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
