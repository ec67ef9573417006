#include "metrics/report.hpp"

#include <cmath>
#include <ostream>

#include "util/units.hpp"

namespace diac {

Table fig5_table(const std::vector<BenchmarkResult>& results) {
  Table t({"circuit", "suite", "#gates", "NV-Based", "NV-Clustering", "DIAC",
           "DIAC-Optimized"});
  BenchmarkSuite last = results.empty() ? BenchmarkSuite::kIscas89
                                        : results.front().suite;
  for (const auto& r : results) {
    if (r.suite != last) {
      t.add_rule();
      last = r.suite;
    }
    t.add_row({r.name, to_string(r.suite), std::to_string(r.gate_count),
               Table::num(r.normalized_pdp(Scheme::kNvBased), 3),
               Table::num(r.normalized_pdp(Scheme::kNvClustering), 3),
               Table::num(r.normalized_pdp(Scheme::kDiac), 3),
               Table::num(r.normalized_pdp(Scheme::kDiacOptimized), 3)});
  }
  return t;
}

Table improvement_summary(const std::vector<BenchmarkResult>& results) {
  Table t({"comparison", "ISCAS-89", "ITC-99", "MCNC", "overall"});
  struct Row {
    const char* label;
    Scheme better;
    Scheme base;
  };
  const Row rows[] = {
      {"DIAC vs NV-Based", Scheme::kDiac, Scheme::kNvBased},
      {"DIAC vs NV-Clustering", Scheme::kDiac, Scheme::kNvClustering},
      {"DIAC-Opt vs NV-Based", Scheme::kDiacOptimized, Scheme::kNvBased},
      {"DIAC-Opt vs NV-Clustering", Scheme::kDiacOptimized,
       Scheme::kNvClustering},
      {"DIAC-Opt vs DIAC", Scheme::kDiacOptimized, Scheme::kDiac},
  };
  for (const Row& row : rows) {
    t.add_row({row.label,
               Table::pct(average_improvement(results, BenchmarkSuite::kIscas89,
                                              row.better, row.base)),
               Table::pct(average_improvement(results, BenchmarkSuite::kItc99,
                                              row.better, row.base)),
               Table::pct(average_improvement(results, BenchmarkSuite::kMcnc,
                                              row.better, row.base)),
               Table::pct(average_improvement(results, row.better, row.base))});
  }
  return t;
}

Table scheme_detail_table(const BenchmarkResult& result) {
  Table t({"metric", "NV-Based", "NV-Clustering", "DIAC", "DIAC-Optimized"});
  auto row = [&](const std::string& label, auto getter, int precision = 2) {
    std::vector<std::string> cells{label};
    for (Scheme s : kAllSchemes) {
      cells.push_back(Table::num(getter(result.of(s)), precision));
    }
    t.add_row(std::move(cells));
  };
  row("instances completed",
      [](const RunStats& s) { return double(s.instances_completed); }, 0);
  row("makespan [s]", [](const RunStats& s) { return s.makespan; }, 1);
  row("energy consumed [mJ]",
      [](const RunStats& s) { return units::as_mJ(s.energy_consumed); }, 1);
  row("PDP per instance [mJ*s]",
      [](const RunStats& s) { return units::as_mJ(s.pdp()); }, 2);
  row("NVM writes", [](const RunStats& s) { return double(s.nvm_writes); }, 0);
  row("NVM bits written",
      [](const RunStats& s) { return double(s.nvm_bits_written); }, 0);
  row("backups", [](const RunStats& s) { return double(s.backups); }, 0);
  row("restores", [](const RunStats& s) { return double(s.restores); }, 0);
  row("safe-zone saves",
      [](const RunStats& s) { return double(s.safe_zone_saves); }, 0);
  row("deep outages", [](const RunStats& s) { return double(s.deep_outages); }, 0);
  row("tasks executed",
      [](const RunStats& s) { return double(s.tasks_executed); }, 0);
  row("tasks re-executed",
      [](const RunStats& s) { return double(s.tasks_reexecuted); }, 0);
  row("forward progress",
      [](const RunStats& s) { return s.forward_progress(); }, 3);
  row("time active [s]", [](const RunStats& s) { return s.time_active; }, 1);
  row("time sleeping [s]", [](const RunStats& s) { return s.time_sleep; }, 1);
  row("time off [s]", [](const RunStats& s) { return s.time_off; }, 1);
  return t;
}

Table trace_sweep_table(const std::vector<BenchmarkResult>& results) {
  Table t({"trace", "NV-Based", "NV-Clustering", "DIAC", "DIAC-Optimized",
           "opt vs base", "done"});
  for (const auto& r : results) {
    t.add_row(
        {r.name, Table::num(r.normalized_pdp(Scheme::kNvBased), 3),
         Table::num(r.normalized_pdp(Scheme::kNvClustering), 3),
         Table::num(r.normalized_pdp(Scheme::kDiac), 3),
         Table::num(r.normalized_pdp(Scheme::kDiacOptimized), 3),
         Table::pct(r.improvement(Scheme::kDiacOptimized, Scheme::kNvBased)),
         std::to_string(r.of(Scheme::kDiacOptimized).instances_completed)});
  }
  return t;
}

namespace {

// Objective cost -> table cell in the natural reading; undefined (NaN)
// outcomes print as "n/a".
std::string objective_cell(ObjectiveKind kind, double cost) {
  if (std::isnan(cost)) return "n/a";
  const double value = objective_display(kind, cost);
  switch (kind) {
    case ObjectiveKind::kNvmWrites:
    case ObjectiveKind::kCompletion:
      return Table::num(value, 0);
    case ObjectiveKind::kProgress:
      return Table::num(value, 3);
    default:
      return Table::num(value, 2);
  }
}

}  // namespace

Table search_front_table(const SearchResult& result,
                         const SearchObjectives& objectives) {
  std::vector<std::string> header = {"rank",  "policy",  "budget",
                                     "NVM",   "scheme",  "sensing",
                                     "tasks", "commits"};
  for (ObjectiveKind kind : objectives.kinds) {
    header.push_back(objective_header(kind));
  }
  header.push_back("done");
  Table t(std::move(header));
  for (std::size_t rank = 0; rank < result.front.size(); ++rank) {
    const CandidateResult& c = result.candidates[result.front[rank]];
    std::vector<std::string> cells = {
        std::to_string(rank + 1),
        to_string(c.point.policy),
        Table::num(c.point.budget_fraction, 2),
        to_string(c.point.technology),
        to_string(c.point.scheme),
        c.point.adaptive_sensing ? "adaptive" : "fixed",
        std::to_string(c.tasks),
        std::to_string(c.commit_points)};
    for (std::size_t k = 0; k < objectives.size(); ++k) {
      cells.push_back(objective_cell(objectives.kinds[k], c.costs[k]));
    }
    cells.push_back(c.stats.workload_completed ? "yes" : "no");
    t.add_row(std::move(cells));
  }
  return t;
}

void write_search_csv(std::ostream& out, const SearchResult& result,
                      const SearchObjectives& objectives) {
  out << "candidate,policy,budget,nvm,scheme,sensing,status";
  for (ObjectiveKind kind : objectives.kinds) {
    out << ',' << to_string(kind);
  }
  out << ",instances,completed,makespan_s,energy_mJ,nvm_writes,fwd_progress\n";
  std::vector<char> on_front(result.candidates.size(), 0);
  for (std::size_t i : result.front) on_front[i] = 1;
  for (std::size_t i = 0; i < result.candidates.size(); ++i) {
    const CandidateResult& c = result.candidates[i];
    out << i << ',' << to_string(c.point.policy) << ','
        << c.point.budget_fraction << ',' << to_string(c.point.technology)
        << ',' << to_string(c.point.scheme) << ','
        << (c.point.adaptive_sensing ? "adaptive" : "fixed") << ','
        << (on_front[i] ? "front" : "evaluated");
    for (std::size_t k = 0; k < objectives.size(); ++k) {
      out << ',';
      const double cost = c.costs[k];
      if (std::isnan(cost)) continue;
      out << objective_display(objectives.kinds[k], cost);
    }
    out << ',' << c.stats.instances_completed << ','
        << (c.stats.workload_completed ? 1 : 0) << ',' << c.stats.makespan
        << ',' << units::as_mJ(c.stats.energy_consumed) << ','
        << c.stats.nvm_writes << ',' << c.stats.forward_progress() << '\n';
  }
}

Table suite_inventory_table() {
  Table t({"circuit", "suite", "function", "#gates"});
  BenchmarkSuite last = BenchmarkSuite::kIscas89;
  for (const auto& spec : benchmark_suite()) {
    if (spec.suite != last) {
      t.add_rule();
      last = spec.suite;
    }
    t.add_row({spec.name, to_string(spec.suite), spec.function_class,
               std::to_string(spec.gate_count)});
  }
  return t;
}

}  // namespace diac
