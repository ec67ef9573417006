#include <gtest/gtest.h>

#include <list>

#include "diac/policy.hpp"
#include "diac/replacement.hpp"
#include "netlist/suite.hpp"
#include "tree/task_tree.hpp"

namespace diac {
namespace {

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::nominal_45nm();
  return l;
}

TaskTree policy3_tree(const std::string& bench, double instance = 40.0e-3,
                      double upper = 0.75e-3) {
  // Trees hold a pointer to their netlist; park netlists in a list whose
  // elements have stable addresses for the duration of the test binary.
  static std::list<Netlist> keep_alive;
  keep_alive.push_back(build_benchmark(bench));
  const TaskTree tree = initial_tree(keep_alive.back(), lib());
  PolicyLimits limits;
  limits.scale = instance / tree.total_energy();
  limits.upper = upper;
  limits.lower = 0.8 * upper;
  return apply_policy(tree, PolicyKind::kPolicy3, limits);
}

double tree_scale(const TaskTree& tree, double instance = 40.0e-3) {
  return instance / tree.total_energy();
}

TEST(Replacement, ExposureBoundedByBudget) {
  TaskTree tree = policy3_tree("s1238");
  ReplacementOptions opt;
  opt.scale = tree_scale(tree);
  opt.budget = 6.25e-3;
  const ReplacementResult r = insert_nvm(tree, opt);
  // One task may cross the budget before the commit lands, so the bound is
  // budget + the largest task.
  double max_task = 0;
  for (const TaskNode& n : tree.nodes()) {
    max_task = std::max(max_task, opt.scale * n.dict.energy());
  }
  EXPECT_LE(r.max_exposed_energy, opt.budget + max_task + 1e-12);
  EXPECT_FALSE(r.points.empty());
}

TEST(Replacement, TighterBudgetMoreCommits) {
  TaskTree loose = policy3_tree("s1238");
  TaskTree tight = policy3_tree("s1238");
  ReplacementOptions opt;
  opt.scale = tree_scale(loose);
  opt.budget = 10.0e-3;
  const auto r_loose = insert_nvm(loose, opt);
  opt.budget = 2.0e-3;
  const auto r_tight = insert_nvm(tight, opt);
  EXPECT_GT(r_tight.points.size(), r_loose.points.size());
  EXPECT_LE(r_tight.max_exposed_energy, r_loose.max_exposed_energy + 1e-12);
}

TEST(Replacement, FinalTaskAlwaysCommits) {
  TaskTree tree = policy3_tree("s344");
  ReplacementOptions opt;
  opt.scale = tree_scale(tree);
  opt.budget = 1.0;  // effectively infinite
  const auto r = insert_nvm(tree, opt);
  ASSERT_EQ(r.points.size(), 1u);  // only the terminal barrier
  EXPECT_EQ(r.points[0], tree.schedule().back());
}

TEST(Replacement, CommitRootsCanBeDisabled) {
  TaskTree tree = policy3_tree("s344");
  ReplacementOptions opt;
  opt.scale = tree_scale(tree);
  opt.budget = 1.0;
  opt.commit_roots = false;
  const auto r = insert_nvm(tree, opt);
  EXPECT_TRUE(r.points.empty());
}

TEST(Replacement, BitsAreCappedPlusControl) {
  TaskTree tree = policy3_tree("s13207");
  ReplacementOptions opt;
  opt.scale = tree_scale(tree);
  opt.budget = 6.25e-3;
  opt.bits_cap = 64;
  opt.control_bits = 8;
  insert_nvm(tree, opt);
  for (TaskId id = 0; id < tree.size(); ++id) {
    const NvmAnnotation& a = tree.annotation(id);
    if (!a.has_nvm) continue;
    EXPECT_GE(a.nvm_bits, 1 + opt.control_bits);
    EXPECT_LE(a.nvm_bits, opt.bits_cap + opt.control_bits);
  }
}

TEST(Replacement, ConsolidationCriterionIII) {
  // A commit at a node with fan-out k persists k signals in ONE write:
  // total write events is the number of points, not the number of signals.
  TaskTree tree = policy3_tree("s953");
  ReplacementOptions opt;
  opt.scale = tree_scale(tree);
  opt.budget = 6.25e-3;
  const auto r = insert_nvm(tree, opt);
  EXPECT_GT(r.total_bits, static_cast<int>(r.points.size()));  // >1 bit/event
  const auto cost = per_pass_commit_cost(tree, nvm_parameters(NvmTechnology::kMram),
                                         2.0e7, 0.15e-3, 1.0e5);
  EXPECT_EQ(cost.writes, static_cast<int>(r.points.size()));
  EXPECT_GT(cost.energy, 0.0);
}

TEST(Replacement, ReplanIsIdempotent) {
  TaskTree tree = policy3_tree("s820");
  ReplacementOptions opt;
  opt.scale = tree_scale(tree);
  opt.budget = 5.0e-3;
  const auto r1 = insert_nvm(tree, opt);
  const auto r2 = insert_nvm(tree, opt);  // re-plan resets prior state
  EXPECT_EQ(r1.points, r2.points);
  EXPECT_EQ(r1.total_bits, r2.total_bits);
}

// A copy of a tree shares the original's structure but owns its NVM
// annotations: planning either one leaves the other's plan as it was.
TEST(Replacement, PlanOnCopyLeavesOriginalUntouched) {
  TaskTree original = policy3_tree("s1238");
  TaskTree copy = original;
  ASSERT_EQ(&copy.node(0), &original.node(0));  // one shared structure
  ReplacementOptions opt;
  opt.scale = tree_scale(original);
  opt.budget = 4.0e-3;
  const ReplacementResult planned = insert_nvm(copy, opt);
  ASSERT_FALSE(planned.points.empty());
  EXPECT_TRUE(original.nvm_points().empty());
  EXPECT_EQ(original.total_nvm_bits(), 0);
  for (TaskId id = 0; id < original.size(); ++id) {
    const NvmAnnotation& a = original.annotation(id);
    EXPECT_FALSE(a.has_nvm) << id;
    EXPECT_EQ(a.nvm_bits, 0) << id;
    EXPECT_EQ(a.accumulated_energy, 0.0) << id;
  }
  const std::vector<TaskId> copy_points = copy.nvm_points();
  EXPECT_EQ(copy_points.size(), planned.points.size());

  // Planning the original under another budget keeps the copy's plan.
  opt.budget = 8.0e-3;
  const ReplacementResult other = insert_nvm(original, opt);
  EXPECT_NE(other.points, planned.points);
  EXPECT_EQ(copy.nvm_points(), copy_points);
  EXPECT_EQ(copy.total_nvm_bits(), planned.total_bits);
}

TEST(Replacement, AccumulationResetsAfterCommit) {
  TaskTree tree = policy3_tree("s1238");
  ReplacementOptions opt;
  opt.scale = tree_scale(tree);
  opt.budget = 4.0e-3;
  insert_nvm(tree, opt);
  // Walk the schedule: accumulated energy right after each commit point's
  // successor must be below the pre-commit accumulation.
  const auto& sched = tree.schedule();
  for (std::size_t i = 0; i + 1 < sched.size(); ++i) {
    if (tree.annotation(sched[i]).has_nvm) {
      EXPECT_LE(tree.annotation(sched[i + 1]).accumulated_energy,
                opt.scale * tree.node(sched[i + 1]).dict.energy() + 1e-12);
    }
  }
}

TEST(Replacement, InvalidOptionsRejected) {
  TaskTree tree = policy3_tree("s344");
  ReplacementOptions opt;
  opt.budget = 0;
  EXPECT_THROW(insert_nvm(tree, opt), std::invalid_argument);
  opt.budget = 1e-3;
  opt.scale = -1;
  EXPECT_THROW(insert_nvm(tree, opt), std::invalid_argument);
}

TEST(Replacement, UpperLevelPreferenceCriterionI) {
  // With linear accumulation, commits sit as late as the budget allows:
  // the first commit must not be the first task (its accumulated energy is
  // far below the budget).
  TaskTree tree = policy3_tree("s1238");
  ReplacementOptions opt;
  opt.scale = tree_scale(tree);
  opt.budget = 6.25e-3;
  const auto r = insert_nvm(tree, opt);
  ASSERT_FALSE(r.points.empty());
  EXPECT_NE(r.points.front(), tree.schedule().front());
}

}  // namespace
}  // namespace diac
