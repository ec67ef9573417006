// The design-space search subsystem: NaN-safe dominance, ParetoFront
// edge cases (exact ties, undefined objectives, single candidates),
// candidate-space enumeration/sampling, objective semantics, and the
// SearchEngine's headline contracts — bit-identical fronts at any runner
// thread count, every front member verifiably non-dominated by an
// exhaustive re-check, and sensing twins sharing one simulation without
// changing any outcome.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>

#include "diac/synthesizer.hpp"
#include "netlist/suite.hpp"
#include "search/engine.hpp"

namespace diac {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::nominal_45nm();
  return l;
}

const Netlist& s344() {
  static const Netlist nl = build_benchmark("s344");
  return nl;
}

// ---------------------------------------------------------------------------
// Comparators.
// ---------------------------------------------------------------------------

TEST(Pareto, CompareCostIsNanSafeAndTotal) {
  EXPECT_EQ(compare_cost(1.0, 2.0), -1);
  EXPECT_EQ(compare_cost(2.0, 1.0), 1);
  EXPECT_EQ(compare_cost(1.0, 1.0), 0);
  EXPECT_EQ(compare_cost(0.0, -0.0), 0);
  // NaN is worse than every number and equal to itself.
  EXPECT_EQ(compare_cost(kNan, 1.0e300), 1);
  EXPECT_EQ(compare_cost(-1.0e300, kNan), -1);
  EXPECT_EQ(compare_cost(kNan, kNan), 0);
}

TEST(Pareto, DominanceRequiresStrictImprovement) {
  EXPECT_TRUE(dominates({1.0, 2.0}, {1.0, 3.0}));
  EXPECT_TRUE(dominates({0.5, 3.0}, {1.0, 3.0}));
  EXPECT_FALSE(dominates({1.0, 3.0}, {1.0, 3.0}));  // exact tie
  EXPECT_FALSE(dominates({0.5, 4.0}, {1.0, 3.0}));  // incomparable
  EXPECT_FALSE(dominates({1.0, 3.0}, {0.5, 3.0}));
  // A defined vector dominates an all-NaN one; NaN never dominates.
  EXPECT_TRUE(dominates({1.0, kNan}, {kNan, kNan}));
  EXPECT_FALSE(dominates({kNan, kNan}, {1.0, kNan}));
  EXPECT_THROW(dominates({1.0}, {1.0, 2.0}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// ParetoFront.
// ---------------------------------------------------------------------------

TEST(Pareto, FrontKeepsIncomparableAndDropsDominated) {
  ParetoFront front(2);
  EXPECT_TRUE(front.insert(0, {1.0, 5.0}));
  EXPECT_TRUE(front.insert(1, {2.0, 4.0}));   // incomparable: both stay
  EXPECT_FALSE(front.insert(2, {2.0, 5.0}));  // dominated by both
  ASSERT_EQ(front.size(), 2u);
  // A new dominator sweeps the dominated members out.
  EXPECT_TRUE(front.insert(3, {1.0, 4.0}));
  ASSERT_EQ(front.size(), 1u);
  EXPECT_EQ(front.entries()[0].candidate, 3u);
}

TEST(Pareto, ExactTieKeepsLowestCandidateEitherInsertionOrder) {
  ParetoFront a(2);
  EXPECT_TRUE(a.insert(3, {1.0, 2.0}));
  EXPECT_FALSE(a.insert(7, {1.0, 2.0}));  // later tie: rejected
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a.entries()[0].candidate, 3u);

  ParetoFront b(2);
  EXPECT_TRUE(b.insert(7, {1.0, 2.0}));
  EXPECT_TRUE(b.insert(3, {1.0, 2.0}));  // earlier index replaces
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b.entries()[0].candidate, 3u);
}

TEST(Pareto, NanObjectivesNeverDominateButCanSurviveAlone) {
  ParetoFront front(2);
  EXPECT_TRUE(front.insert(0, {kNan, kNan}));  // sole member: survives
  ASSERT_EQ(front.size(), 1u);
  // Any defined vector dominates the all-NaN entry.
  EXPECT_TRUE(front.insert(1, {5.0, kNan}));
  ASSERT_EQ(front.size(), 1u);
  EXPECT_EQ(front.entries()[0].candidate, 1u);
  EXPECT_FALSE(front.insert(2, {kNan, kNan}));  // dominated by {5, NaN}
  // Ties between NaNs compare equal: {5.0, NaN} vs {7.0, NaN}.
  EXPECT_FALSE(front.insert(3, {7.0, kNan}));
}

TEST(Pareto, ArityIsEnforced) {
  EXPECT_THROW(ParetoFront(0), std::invalid_argument);
  ParetoFront front(2);
  EXPECT_THROW(front.insert(0, {1.0}), std::invalid_argument);
  EXPECT_THROW(front.insert(1, {1.0, 2.0, 3.0}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// CandidateSpace.
// ---------------------------------------------------------------------------

TEST(CandidateSpace, GridEnumeratesTheFullCrossProduct) {
  const CandidateSpace space;
  EXPECT_EQ(space.size(), 3u * 3u * 4u * 1u * 2u);
  const std::vector<DesignPoint> grid = space.grid();
  ASSERT_EQ(grid.size(), space.size());
  std::set<std::string> labels;
  for (const DesignPoint& p : grid) labels.insert(p.label());
  EXPECT_EQ(labels.size(), grid.size());  // all distinct
  // Mixed-radix order: adaptive_sensing is the fastest axis.
  EXPECT_FALSE(grid[0].adaptive_sensing);
  EXPECT_TRUE(grid[1].adaptive_sensing);
  EXPECT_EQ(grid[0].policy, grid[1].policy);
  EXPECT_THROW(space.at(space.size()), std::out_of_range);
}

TEST(CandidateSpace, EmptyAxisThrows) {
  CandidateSpace space;
  space.schemes.clear();
  EXPECT_THROW(space.size(), std::invalid_argument);
}

TEST(CandidateSpace, SampleIsDeterministicDistinctAndCanonicallyOrdered) {
  const CandidateSpace space;
  const auto a = space.sample(10, 42);
  const auto b = space.sample(10, 42);
  ASSERT_EQ(a.size(), 10u);
  std::set<std::string> labels;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label(), b[i].label());  // same seed -> same subset
    labels.insert(a[i].label());
  }
  EXPECT_EQ(labels.size(), a.size());  // distinct candidates
  // Oversampling degrades to the full grid.
  EXPECT_EQ(space.sample(10'000, 7).size(), space.size());
}

TEST(CandidateSpace, SingleCandidateSpace) {
  CandidateSpace space;
  space.policies = {PolicyKind::kPolicy2};
  space.budget_fractions = {0.25};
  space.technologies = {NvmTechnology::kReram};
  space.schemes = {Scheme::kDiac};
  space.adaptive_sensing = {false};
  EXPECT_EQ(space.size(), 1u);
  const auto grid = space.grid();
  ASSERT_EQ(grid.size(), 1u);
  EXPECT_EQ(grid[0].policy, PolicyKind::kPolicy2);
  EXPECT_EQ(grid[0].technology, NvmTechnology::kReram);
}

// ---------------------------------------------------------------------------
// Objectives.
// ---------------------------------------------------------------------------

TEST(Objectives, ParseAcceptsKnownNamesAndRejectsJunk) {
  const SearchObjectives o = SearchObjectives::parse("pdp,progress,writes");
  ASSERT_EQ(o.size(), 3u);
  EXPECT_EQ(o.kinds[0], ObjectiveKind::kPdp);
  EXPECT_EQ(o.kinds[2], ObjectiveKind::kNvmWrites);
  EXPECT_THROW(SearchObjectives::parse("pdp,bogus"), std::invalid_argument);
  EXPECT_THROW(SearchObjectives::parse("pdp,pdp"), std::invalid_argument);
  EXPECT_THROW(SearchObjectives::parse(""), std::invalid_argument);
  EXPECT_THROW(SearchObjectives::parse(",,"), std::invalid_argument);
}

TEST(Objectives, NeverCompletedWorkloadsYieldNan) {
  RunStats stats;  // zero instances, never completed
  EXPECT_TRUE(std::isnan(objective_cost(ObjectiveKind::kPdp, stats)));
  EXPECT_TRUE(std::isnan(objective_cost(ObjectiveKind::kMakespan, stats)));
  EXPECT_EQ(objective_cost(ObjectiveKind::kProgress, stats), 0.0);
  stats.instances_completed = 2;
  stats.energy_consumed = 10.0e-3;
  stats.makespan = 100.0;
  EXPECT_GT(objective_cost(ObjectiveKind::kPdp, stats), 0.0);
  EXPECT_TRUE(std::isnan(objective_cost(ObjectiveKind::kMakespan, stats)));
  stats.workload_completed = true;
  EXPECT_EQ(objective_cost(ObjectiveKind::kMakespan, stats), 100.0);
  // Maximized objectives are negated into costs and restored for display.
  stats.tasks_executed = 100;
  stats.tasks_reexecuted = 10;
  const double progress = objective_cost(ObjectiveKind::kProgress, stats);
  EXPECT_DOUBLE_EQ(progress, -0.9);
  EXPECT_DOUBLE_EQ(objective_display(ObjectiveKind::kProgress, progress), 0.9);
}

// ---------------------------------------------------------------------------
// SearchEngine.
// ---------------------------------------------------------------------------

SearchOptions small_search_options() {
  SearchOptions options;
  options.scenario.seed = 0xD5E;
  options.simulator.target_instances = 3;
  options.simulator.max_time = 15000;
  return options;
}

CandidateSpace small_space() {
  CandidateSpace space;
  space.budget_fractions = {0.10, 0.50};
  space.technologies = {NvmTechnology::kMram, NvmTechnology::kFeram};
  space.adaptive_sensing = {false};
  return space;  // 3 x 2 x 2 x 1 x 1 = 12 candidates
}

void expect_identical(const SearchResult& a, const SearchResult& b) {
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  EXPECT_EQ(a.evaluated, b.evaluated);
  ASSERT_EQ(a.front, b.front);
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    const CandidateResult& ca = a.candidates[i];
    const CandidateResult& cb = b.candidates[i];
    ASSERT_EQ(ca.costs.size(), cb.costs.size()) << "candidate " << i;
    for (std::size_t k = 0; k < ca.costs.size(); ++k) {
      // Bit-identical, including NaN payload positions.
      EXPECT_EQ(compare_cost(ca.costs[k], cb.costs[k]), 0)
          << "candidate " << i << " objective " << k;
      if (!std::isnan(ca.costs[k])) {
        EXPECT_EQ(ca.costs[k], cb.costs[k])
            << "candidate " << i << " objective " << k;
      }
    }
    EXPECT_EQ(ca.stats.makespan, cb.stats.makespan) << "candidate " << i;
    EXPECT_EQ(ca.stats.energy_consumed, cb.stats.energy_consumed)
        << "candidate " << i;
    EXPECT_EQ(ca.stats.nvm_writes, cb.stats.nvm_writes) << "candidate " << i;
  }
}

TEST(SearchEngine, FrontIsBitIdenticalAtOneAndEightThreads) {
  const SearchOptions options = small_search_options();
  const std::vector<DesignPoint> points = small_space().grid();
  ExperimentRunner serial(1);
  ExperimentRunner pool(8);
  const SearchResult a = run_search(s344(), lib(), points, options, serial);
  const SearchResult b = run_search(s344(), lib(), points, options, pool);
  expect_identical(a, b);
  EXPECT_FALSE(a.front.empty());
}

TEST(SearchEngine, FrontMembersSurviveExhaustiveNonDominationRecheck) {
  const SearchOptions options = small_search_options();
  const std::vector<DesignPoint> points = small_space().grid();
  ExperimentRunner runner(1);
  const SearchResult result =
      run_search(s344(), lib(), points, options, runner);
  EXPECT_EQ(result.pruned, 0u);
  EXPECT_EQ(result.evaluated, points.size());

  // Exhaustive re-check: no evaluated candidate dominates a front member,
  // and every non-front candidate is dominated or exactly tied.
  const std::set<std::size_t> on_front(result.front.begin(),
                                       result.front.end());
  for (std::size_t f : result.front) {
    const auto& front_costs = result.candidates[f].costs;
    for (std::size_t i = 0; i < result.candidates.size(); ++i) {
      EXPECT_FALSE(dominates(result.candidates[i].costs, front_costs))
          << "candidate " << i << " dominates front member " << f;
    }
  }
  for (std::size_t i = 0; i < result.candidates.size(); ++i) {
    if (on_front.count(i) != 0) continue;
    bool covered = false;
    for (std::size_t f : result.front) {
      const auto& fc = result.candidates[f].costs;
      bool tie = fc.size() == result.candidates[i].costs.size();
      for (std::size_t k = 0; tie && k < fc.size(); ++k) {
        tie = compare_cost(fc[k], result.candidates[i].costs[k]) == 0;
      }
      if (tie || dominates(fc, result.candidates[i].costs)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "candidate " << i
                         << " is non-dominated but missing from the front";
  }
}

TEST(SearchEngine, SharedPolicyTreesMatchPerCandidateSynthesis) {
  // A grid search builds one initial tree and one policy tree per policy,
  // shared across budgets, technologies and schemes.  Searching each
  // candidate alone builds everything from scratch; every candidate's
  // design and outcome, and hence the front, must be unchanged.
  const SearchOptions options = small_search_options();
  CandidateSpace space = small_space();
  space.schemes = {Scheme::kDiacOptimized, Scheme::kNvClustering};
  const std::vector<DesignPoint> points = space.grid();
  ExperimentRunner runner(1);
  const SearchResult shared = run_search(s344(), lib(), points, options, runner);
  ASSERT_EQ(shared.candidates.size(), points.size());

  ParetoFront front(options.objectives.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SearchResult alone =
        run_search(s344(), lib(), {points[i]}, options, runner);
    const CandidateResult& a = alone.candidates[0];
    const CandidateResult& b = shared.candidates[i];
    EXPECT_EQ(a.tasks, b.tasks) << a.point.label();
    EXPECT_EQ(a.commit_points, b.commit_points) << a.point.label();
    EXPECT_EQ(a.stats.makespan, b.stats.makespan) << a.point.label();
    EXPECT_EQ(a.stats.energy_consumed, b.stats.energy_consumed)
        << a.point.label();
    EXPECT_EQ(a.stats.nvm_writes, b.stats.nvm_writes) << a.point.label();
    ASSERT_EQ(a.costs.size(), b.costs.size()) << a.point.label();
    for (std::size_t k = 0; k < a.costs.size(); ++k) {
      EXPECT_EQ(compare_cost(a.costs[k], b.costs[k]), 0)
          << a.point.label() << " objective " << k;
    }
    front.insert(i, a.costs);
  }
  EXPECT_FALSE(shared.front.empty());
  EXPECT_EQ(shared.front, ranked_front(front));
}

TEST(SearchEngine, SingleCandidateSearchPutsItOnTheFront) {
  CandidateSpace space;
  space.policies = {PolicyKind::kPolicy3};
  space.budget_fractions = {0.25};
  space.technologies = {NvmTechnology::kMram};
  space.adaptive_sensing = {false};
  ExperimentRunner runner(1);
  const SearchResult result = run_search(
      s344(), lib(), space.grid(), small_search_options(), runner);
  ASSERT_EQ(result.candidates.size(), 1u);
  ASSERT_EQ(result.front.size(), 1u);
  EXPECT_EQ(result.front[0], 0u);
  EXPECT_EQ(result.evaluated, 1u);
  EXPECT_EQ(result.pruned, 0u);
}

TEST(SearchEngine, AllIncompleteSweepYieldsNanFrontNotGarbageBest) {
  // No harvest at all: nothing ever completes an instance, so the PDP
  // objective is NaN for every candidate.  The old examples/design_space
  // scan seeded best_pdp = 0 and would report a garbage winner here; the
  // front must instead surface the undefined outcome (NaN head) so
  // clients report "none".
  CandidateSpace space;
  space.policies = {PolicyKind::kPolicy3, PolicyKind::kPolicy2};
  space.budget_fractions = {0.25};
  space.technologies = {NvmTechnology::kMram};
  space.adaptive_sensing = {false};
  SearchOptions options;
  options.scenario.kind = SourceKind::kConstant;
  options.scenario.constant_power = 0.0;
  options.simulator.target_instances = 2;
  options.simulator.max_time = 2000;
  ExperimentRunner runner(1);
  const SearchResult result =
      run_search(s344(), lib(), space.grid(), options, runner);
  ASSERT_FALSE(result.front.empty());
  for (const CandidateResult& c : result.candidates) {
    EXPECT_EQ(c.stats.instances_completed, 0);
    EXPECT_TRUE(std::isnan(c.costs[0])) << c.point.label();
  }
  EXPECT_TRUE(std::isnan(result.candidates[result.front[0]].costs[0]));
}

// Every RunStats field of a search outcome against the reference's, the
// floating-point ones bit for bit.
void expect_same_stats(const RunStats& got, const RunStats& want,
                       const std::string& tag) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const std::pair<const char*, std::pair<double, double>> reals[] = {
      {"makespan", {got.makespan, want.makespan}},
      {"energy_consumed", {got.energy_consumed, want.energy_consumed}},
      {"energy_harvested", {got.energy_harvested, want.energy_harvested}},
      {"energy_wasted", {got.energy_wasted, want.energy_wasted}},
      {"reexec_energy", {got.reexec_energy, want.reexec_energy}},
      {"time_active", {got.time_active, want.time_active}},
      {"time_sleep", {got.time_sleep, want.time_sleep}},
      {"time_off", {got.time_off, want.time_off}},
      {"time_backup", {got.time_backup, want.time_backup}},
  };
  for (const auto& [name, v] : reals) {
    EXPECT_EQ(bits(v.first), bits(v.second)) << tag << " " << name;
  }
  const std::pair<const char*, std::pair<std::int64_t, std::int64_t>> ints[] =
      {
          {"instances_completed",
           {got.instances_completed, want.instances_completed}},
          {"workload_completed",
           {got.workload_completed, want.workload_completed}},
          {"backups", {got.backups, want.backups}},
          {"restores", {got.restores, want.restores}},
          {"safe_zone_saves", {got.safe_zone_saves, want.safe_zone_saves}},
          {"deep_outages", {got.deep_outages, want.deep_outages}},
          {"power_interrupts", {got.power_interrupts, want.power_interrupts}},
          {"nvm_writes", {got.nvm_writes, want.nvm_writes}},
          {"nvm_boundary_writes",
           {got.nvm_boundary_writes, want.nvm_boundary_writes}},
          {"nvm_bits_written", {got.nvm_bits_written, want.nvm_bits_written}},
          {"tasks_executed", {got.tasks_executed, want.tasks_executed}},
          {"tasks_reexecuted", {got.tasks_reexecuted, want.tasks_reexecuted}},
          {"task_aborts", {got.task_aborts, want.task_aborts}},
      };
  for (const auto& [name, v] : ints) {
    EXPECT_EQ(v.first, v.second) << tag << " " << name;
  }
}

void expect_same_costs(const std::vector<double>& got,
                       const std::vector<double>& want,
                       const std::string& tag) {
  ASSERT_EQ(got.size(), want.size()) << tag;
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k]),
              std::bit_cast<std::uint64_t>(want[k]))
        << tag << " objective " << k;
  }
}

// The per-candidate reference for SensingTwinsMatchPerCandidateSimulation:
// each candidate synthesized on its own (memoized per design only to save
// time), compiled into its own plan and simulated by run_simulation.
class PerCandidateReference {
 public:
  PerCandidateReference(const Netlist& nl, SearchOptions options)
      : nl_(nl), options_(std::move(options)) {}

  RunStats stats(const DesignPoint& p, const ScenarioSpec& scenario) {
    const auto key = std::make_tuple(p.label(), scenario.kind);
    auto it = stats_.find(key);
    if (it == stats_.end()) {
      const auto plan = std::make_shared<const SimPlan>(
          design(p), p.fsm_config(options_.fsm), options_.simulator);
      it = stats_.emplace(key, run_simulation({plan, scenario,
                                               options_.simulator}))
               .first;
    }
    return it->second;
  }

 private:
  const IntermittentDesign& design(const DesignPoint& p) {
    const auto key =
        std::make_tuple(p.policy, p.budget_fraction, p.technology, p.scheme);
    auto it = designs_.find(key);
    if (it == designs_.end()) {
      const DiacSynthesizer synth(nl_, lib(),
                                  p.synthesis_options(options_.synthesis));
      it = designs_.emplace(key, synth.synthesize_scheme(p.scheme)).first;
    }
    return it->second.design;
  }

  const Netlist& nl_;
  SearchOptions options_;
  std::map<std::tuple<PolicyKind, double, NvmTechnology, Scheme>,
           SynthesisResult>
      designs_;
  std::map<std::tuple<std::string, SourceKind>, RunStats> stats_;
};

TEST(SearchEngine, SensingTwinsMatchPerCandidateSimulation) {
  // run_search simulates each design once per sensing mode that can
  // matter and shares the run between twins whose witness stayed clear.
  // Every CandidateResult and the front must equal a reference that
  // simulates every candidate with its own plan, over circuits, sources,
  // grids and thread counts.
  const CandidateSpace space;
  const std::vector<std::pair<std::vector<DesignPoint>, const char*>> grids =
      {{space.grid(), "grid"},
       {space.sample(20, 0x5A1), "sample20"},
       {space.sample(33, 0x5A2), "sample33"}};
  ExperimentRunner serial(1);
  ExperimentRunner pool(4);

  for (const char* circuit : {"s344", "s1238", "b12"}) {
    const Netlist nl = build_benchmark(circuit);
    SearchOptions base;  // the CLI's search defaults
    base.simulator.target_instances = 6;
    base.simulator.max_time = 30000;
    PerCandidateReference reference(nl, base);
    for (SourceKind kind : {SourceKind::kRfid, SourceKind::kConstant,
                            SourceKind::kSolar, SourceKind::kSquare}) {
      SearchOptions options = base;
      options.scenario.kind = kind;
      for (const auto& [points, grid_name] : grids) {
        std::vector<RunStats> want(points.size());
        ParetoFront front(options.objectives.size());
        std::vector<std::vector<double>> want_costs(points.size());
        for (std::size_t i = 0; i < points.size(); ++i) {
          want[i] = reference.stats(points[i], options.scenario);
          want_costs[i] = options.objectives.costs(want[i]);
          front.insert(i, want_costs[i]);
        }
        const bool is_grid = points.size() == space.size();
        std::optional<std::size_t> simulations;
        for (int threads : {1, 4}) {
          const std::string tag = std::string(circuit) + "/" +
                                  to_string(kind) + "/" + grid_name +
                                  "/threads " + std::to_string(threads);
          const SearchResult got = run_search(
              nl, lib(), points, options, threads == 1 ? serial : pool);
          ASSERT_EQ(got.candidates.size(), points.size()) << tag;
          EXPECT_EQ(got.evaluated, points.size()) << tag;
          EXPECT_EQ(got.pruned, 0u) << tag;
          EXPECT_EQ(got.front, ranked_front(front)) << tag;

          for (std::size_t i = 0; i < points.size(); ++i) {
            const CandidateResult& c = got.candidates[i];
            const std::string who = tag + " " + points[i].label();
            EXPECT_EQ(c.point.label(), points[i].label()) << who;
            expect_same_stats(c.stats, want[i], who);
            expect_same_costs(c.costs, want_costs[i], who);
          }

          // Sharing is a pure function of the candidate list: every
          // thread count simulates alike.
          EXPECT_LE(got.simulations, got.evaluated) << tag;
          if (!simulations) simulations = got.simulations;
          EXPECT_EQ(got.simulations, *simulations) << tag;
          // Not vacuous: the default grid under the paper's RFID supply
          // shares runs between twins.
          if (is_grid && kind == SourceKind::kRfid) {
            EXPECT_LT(got.simulations, got.evaluated) << tag;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace diac
