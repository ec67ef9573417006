#include "shard/job_key.hpp"

#include "exp/job_key.hpp"

namespace diac {

namespace {

// Bumped when a key's inputs change meaning.  A row-shape change needs
// no bump: entries are shard files, so a stale entry fails the format
// version or arity check on lookup and is recomputed over.
constexpr int kJobKeyVersion = 1;

// Every digest starts with the key version and the sweep kind: a kind
// collision can never alias entries.
std::vector<std::string> key_prefix(const char* kind,
                                    const Hash128& netlist_fp) {
  std::vector<std::string> key;
  key.push_back("diac-job");
  key.push_back(std::to_string(kJobKeyVersion));
  key.push_back(kind);
  key.push_back(hash_hex(netlist_fp));
  return key;
}

}  // namespace

Hash128 mc_job_key(const Hash128& netlist_fp, const EvaluationOptions& options,
                   int run) {
  std::vector<std::string> key = key_prefix("mc", netlist_fp);
  append_key(key, options.synthesis);
  append_key(key, options.fsm);
  append_key(key, options.simulator);
  // The derived seed *is* the run's identity: the same trace reached
  // from a different base/window digests identically.
  append_key(key, options.scenario.with_seed(
                      derive_seed(options.scenario.seed, run)));
  return hash_tokens(key);
}

Hash128 replay_job_key(const Hash128& netlist_fp,
                       const EvaluationOptions& options,
                       const ScenarioSpec& scenario) {
  std::vector<std::string> key = key_prefix("replay", netlist_fp);
  append_key(key, options.synthesis);
  append_key(key, options.fsm);
  append_key(key, options.simulator);
  append_key(key, scenario);
  return hash_tokens(key);
}

Hash128 search_job_key(const Hash128& netlist_fp, const SearchOptions& options,
                       const DesignPoint& point) {
  std::vector<std::string> key = key_prefix("search", netlist_fp);
  // The row is computed under the point's overlaid options — key those,
  // not the bases, so any (base, point) pair producing the same
  // effective configuration shares one entry.
  append_key(key, point.synthesis_options(options.synthesis));
  append_key(key, point.fsm_config(options.fsm));
  append_key(key, options.simulator);
  append_key(key, options.scenario);
  key.push_back("scheme");
  key.push_back(std::to_string(static_cast<int>(point.scheme)));
  // Cost tokens are ordered by the objective list, so it is part of the
  // row's identity.
  key.push_back("objectives");
  for (ObjectiveKind k : options.objectives.kinds) {
    key.push_back(to_string(k));
  }
  return hash_tokens(key);
}

}  // namespace diac
