/// Canonical job digests: one Hash128 per sweep job, the address of its
/// cached result row.
///
/// A digest covers everything a job's row is a function of — the
/// circuit fingerprint, the full option tuple (synthesis, FSM,
/// simulator, scenario) and, for Monte-Carlo, the *derived* per-run
/// seed.  Keying mc rows on the derived seed rather than (base seed,
/// run index) means `--runs 32` warm-starts `--runs 64` (the first 32
/// derived seeds coincide), and search keys are a function of the
/// candidate point's *content*, so a re-run with an overlapping
/// candidate set — a resumed or widened search — hits on the overlap.
///
/// The builders reuse the exp/job_key appenders, so the digest is a
/// pure function of option values.  Keys do not cover the row format:
/// a stale entry fails the cache's format-version or arity check and is
/// recomputed over.
#pragma once

#include "metrics/pdp.hpp"
#include "search/candidate.hpp"
#include "search/engine.hpp"
#include "shard/plan.hpp"
#include "util/hash128.hpp"

namespace diac {

/// Digest of Monte-Carlo run `run` (global index) of a sweep over
/// `options`: the per-run derived seed replaces the base seed, so equal
/// traces share an entry across sweep sizes and base windows.
Hash128 mc_job_key(const Hash128& netlist_fp, const EvaluationOptions& options,
                   int run);

/// Digest of one replayed measurement: `scenario` must be a loaded
/// kTrace spec (the key covers the trace *content*, not its path).
Hash128 replay_job_key(const Hash128& netlist_fp,
                       const EvaluationOptions& options,
                       const ScenarioSpec& scenario);

/// Digest of one search candidate: the base options with the point's
/// axes overlaid, plus the objective list (costs are part of the row)
/// and the point itself.
Hash128 search_job_key(const Hash128& netlist_fp, const SearchOptions& options,
                       const DesignPoint& point);

}  // namespace diac
