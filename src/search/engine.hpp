/// SearchEngine: evaluates a candidate list over the experiment engine and
/// maintains a Pareto front with provable early pruning.
///
/// Pipeline per search:
///   1. synthesize each candidate once (candidates differing only in
///      runtime knobs share one synthesis, and all candidates share one
///      initial tree and one policy tree per policy),
///   2. materialize the harvest scenario once and share the read-only
///      HarvestSource across every job,
///   3. fan evaluation batches out over an ExperimentRunner, folding each
///      batch into the ParetoFront in candidate order,
///   4. before dispatching a candidate, skip it when its synthesis-time
///      *optimistic* cost floor is already strictly dominated by a front
///      member — the floor is component-wise no worse than any outcome
///      the simulation could produce, so the skip is provably sound (the
///      front with pruning on equals the front with pruning off),
///   5. simulate each design once per sensing mode that can matter: a
///      batch's candidates are grouped by design into one runner job,
///      which simulates the first candidate's sensing mode and the other
///      mode only when that run's witness fired.  A run whose witness
///      stayed clear is its twin's run bit for bit: adaptive sensing
///      feeds exactly two decisions (the timer test and the timer cap on
///      the integrator's horizon), the witness checks both against the
///      other mode's at every evaluation, and agreeing decisions keep the
///      two runs in the identical state after every iteration, by
///      induction (NodeMachine::sensing_mode_mattered).  Outcomes are
///      memoized per design across batches.
///
/// Determinism: batches are fixed slices of the candidate order, results
/// are assembled in candidate order, the witness is a pure function of
/// the run, and the front only changes between batches, so the entire
/// search — including every pruning and sharing decision — is
/// bit-identical at any runner thread count.
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
  /// Evaluations fanned out between front updates (and hence between
  /// pruning decisions).  Smaller batches prune more, larger batches give
  /// the runner more parallelism; the result is identical either way.
  std::size_t batch = 16;
  /// Disable to evaluate every candidate (the exhaustive reference the
  /// pruning-soundness test compares against).
  bool prune = true;
};

/// Everything run_search learned about one candidate, in candidate order.
struct CandidateResult {
  DesignPoint point;
  /// Skipped by the synthesis-time bound: `stats`/`costs` are not
  /// populated (the candidate is provably not on the front).
  bool pruned = false;
  RunStats stats{};
  std::vector<double> costs;       // empty when pruned
  std::vector<double> optimistic;  // the synthesis-time cost floor
  std::size_t tasks = 0;           // synthesized tree size
  std::size_t commit_points = 0;   // inserted NVM commit points
};

/// A completed search: every candidate's outcome plus the ranked front.
struct SearchResult {
  std::vector<CandidateResult> candidates;  // in candidate order
  /// Front candidate indices ranked by the first objective (ties by
  /// candidate index).
  std::vector<std::size_t> front;
  std::size_t evaluated = 0;
  std::size_t pruned = 0;
  /// Simulations run for the evaluated candidates; the rest of them
  /// shared a sensing twin's run (0 in a result merged from shard
  /// rows, which do not carry it).
  std::size_t simulations = 0;
};

/// Runs the search; `points` is the candidate list in canonical order
/// (CandidateSpace::grid() / ::sample()).  Throws on an empty objective
/// list; an empty candidate list yields an empty result.
SearchResult run_search(const Netlist& nl, const CellLibrary& lib,
                        const std::vector<DesignPoint>& points,
                        const SearchOptions& options,
                        ExperimentRunner& runner);

}  // namespace diac
