#include "search/pareto.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace diac {

int compare_cost(double a, double b) {
  const bool a_nan = std::isnan(a);
  const bool b_nan = std::isnan(b);
  if (a_nan && b_nan) return 0;
  if (a_nan) return 1;
  if (b_nan) return -1;
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;  // covers +0.0 vs -0.0
}

bool dominates(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("dominates: cost arity mismatch");
  }
  bool strict = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const int c = compare_cost(a[i], b[i]);
    if (c > 0) return false;
    if (c < 0) strict = true;
  }
  return strict;
}

namespace {

bool equal_costs(const std::vector<double>& a, const std::vector<double>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (compare_cost(a[i], b[i]) != 0) return false;
  }
  return true;
}

}  // namespace

ParetoFront::ParetoFront(std::size_t arity) : arity_(arity) {
  if (arity == 0) {
    throw std::invalid_argument("ParetoFront: needs at least one objective");
  }
}

bool ParetoFront::insert(std::size_t candidate,
                         const std::vector<double>& costs) {
  if (costs.size() != arity_) {
    throw std::invalid_argument("ParetoFront: cost arity mismatch");
  }
  for (const FrontEntry& e : entries_) {
    if (dominates(e.costs, costs)) return false;
    if (equal_costs(e.costs, costs)) {
      // Exact tie: the front keeps one canonical representative — the
      // lowest candidate index.
      if (e.candidate <= candidate) return false;
      break;
    }
  }
  entries_.erase(
      std::remove_if(entries_.begin(), entries_.end(),
                     [&](const FrontEntry& e) {
                       return dominates(costs, e.costs) ||
                              equal_costs(costs, e.costs);
                     }),
      entries_.end());
  const auto pos = std::lower_bound(
      entries_.begin(), entries_.end(), candidate,
      [](const FrontEntry& e, std::size_t c) { return e.candidate < c; });
  entries_.insert(pos, {candidate, costs});
  return true;
}

std::vector<std::size_t> ranked_front(const ParetoFront& front) {
  std::vector<FrontEntry> ranked = front.entries();
  std::sort(ranked.begin(), ranked.end(),
            [](const FrontEntry& a, const FrontEntry& b) {
              const int c = compare_cost(a.costs[0], b.costs[0]);
              if (c != 0) return c < 0;
              return a.candidate < b.candidate;
            });
  std::vector<std::size_t> indices;
  indices.reserve(ranked.size());
  for (const FrontEntry& e : ranked) indices.push_back(e.candidate);
  return indices;
}

}  // namespace diac
