/// SearchEngine: evaluates a candidate list over the experiment engine and
/// ranks the outcomes on a Pareto front.
///
/// Pipeline per search:
///   1. synthesize each candidate once (candidates differing only in
///      runtime knobs share one synthesis, and all candidates share one
///      initial tree and one policy tree per policy),
///   2. materialize the harvest scenario once and share the read-only
///      HarvestSource across every job,
///   3. simulate each design once per sensing mode that can matter: one
///      runner job per design, all in one parallel_for, simulates the
///      design's first candidate's sensing mode, and the other mode only
///      when a candidate wants it and that run's witness fired.  A run
///      whose witness stayed clear is its twin's run bit for bit:
///      adaptive sensing feeds exactly two decisions (the timer test and
///      the timer cap on the integrator's horizon), the witness checks
///      both against the other mode's at every evaluation, and agreeing
///      decisions keep the two runs in the identical state after every
///      iteration, by induction (NodeMachine::sensing_mode_mattered),
///   4. fold every candidate into one ParetoFront (rank_candidates).
///
/// Determinism: each candidate's outcome is a pure function of that
/// candidate, results are assembled in candidate order and the witness
/// is a pure function of the run, so the entire search — including every
/// sharing decision — is bit-identical at any runner thread count, and
/// any split of the candidate list merges back into the same result.
#pragma once

#include <cstddef>
#include <vector>

#include "exp/experiment.hpp"
#include "search/candidate.hpp"
#include "search/objectives.hpp"
#include "search/pareto.hpp"

namespace diac {

struct SearchOptions {
  /// Base configurations; each candidate overlays its axes on these.
  SynthesisOptions synthesis;
  FsmConfig fsm;
  SimulatorOptions simulator;
  /// The harvest scenario every candidate is judged on.
  ScenarioSpec scenario;
  SearchObjectives objectives = SearchObjectives::defaults();
};

/// Everything run_search learned about one candidate, in candidate order.
struct CandidateResult {
  DesignPoint point;
  RunStats stats{};
  std::vector<double> costs;       // one per objective
  std::size_t tasks = 0;           // synthesized tree size
  std::size_t commit_points = 0;   // inserted NVM commit points
};

/// A completed search: every candidate's outcome plus the ranked front.
struct SearchResult {
  std::vector<CandidateResult> candidates;  // in candidate order
  /// Front candidate indices ranked by the first objective (ties by
  /// candidate index).
  std::vector<std::size_t> front;
  /// The candidate count; every candidate is evaluated.
  std::size_t evaluated = 0;
  /// Always 0: the search evaluates every candidate.  Kept because the
  /// benchmark driver (perfbench/driver.cpp) prints and counts it.
  std::size_t pruned = 0;
  /// Simulations run for the evaluated candidates; the rest of them
  /// shared a sensing twin's run (0 in a result folded from rows, which
  /// do not carry it).
  std::size_t simulations = 0;
};

/// Folds evaluated candidates (in candidate order) into a SearchResult:
/// every candidate offered to one ParetoFront, ranked by ranked_front.
/// The one aggregation of run_search and of rows fetched from shard
/// workers, a server or the result cache, so the front is a pure
/// function of the candidate set.  Throws on an empty objective list.
SearchResult rank_candidates(std::vector<CandidateResult> candidates,
                             const SearchObjectives& objectives);

/// Runs the search; `points` is the candidate list in canonical order
/// (CandidateSpace::grid() / ::sample()).  Throws on an empty objective
/// list; an empty candidate list yields an empty result.
SearchResult run_search(const Netlist& nl, const CellLibrary& lib,
                        const std::vector<DesignPoint>& points,
                        const SearchOptions& options,
                        ExperimentRunner& runner);

}  // namespace diac
