/// ParetoFront: incremental strict-dominance front over cost vectors.
///
/// Costs are minimized on every coordinate (search/objectives.hpp negates
/// maximized goals).  NaN means "undefined on this objective" and is
/// defined to compare worse than every number and equal to itself, so the
/// comparators are total and deterministic — an all-NaN candidate survives
/// only an otherwise empty front.
///
/// Determinism: the front is a pure function of the (candidate, costs)
/// insertion *set*, not the insertion order, except for one documented
/// rule — exactly equal cost vectors are deduplicated to the lowest
/// candidate index, which is what makes the front canonical when sweeps
/// contain ties.  The search engine inserts every candidate's result in
/// candidate order once all are evaluated, so fronts are bit-identical at
/// any runner thread count.
#pragma once

#include <cstddef>
#include <vector>

namespace diac {

/// Three-way NaN-safe cost comparison: -1 when `a` is better (smaller),
/// +1 when worse, 0 when equal; NaN is worse than any number and equal to
/// NaN.
int compare_cost(double a, double b);

/// Strict Pareto dominance: `a` no worse on every coordinate and strictly
/// better on at least one.  Vectors must have equal arity.
bool dominates(const std::vector<double>& a, const std::vector<double>& b);

/// One non-dominated candidate: its index and its cost vector.
struct FrontEntry {
  std::size_t candidate = 0;  // caller's candidate index
  std::vector<double> costs;
};

/// Incremental strict-dominance front.  Insertion-order independent:
/// exact-cost ties dedup to the lowest candidate index, so the final set
/// is a pure function of the inserted (candidate, costs) multiset.
class ParetoFront {
 public:
  /// `arity` is the objective count; every inserted vector must match it.
  explicit ParetoFront(std::size_t arity);

  std::size_t arity() const { return arity_; }

  /// Offers a candidate.  Returns false (front unchanged) when an entry
  /// dominates `costs`, or ties it exactly with a lower candidate index.
  /// Otherwise removes every entry `costs` dominates (and an exact tie
  /// with a higher index) and inserts; entries stay sorted by candidate
  /// index.  Throws std::invalid_argument on arity mismatch.
  bool insert(std::size_t candidate, const std::vector<double>& costs);

  const std::vector<FrontEntry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

 private:
  std::size_t arity_;
  std::vector<FrontEntry> entries_;  // ascending candidate index
};

/// The front's candidate indices in report order: ascending on the first
/// objective (NaN-safe, so undefined outcomes rank last), ties by
/// candidate index.
std::vector<std::size_t> ranked_front(const ParetoFront& front);

}  // namespace diac
