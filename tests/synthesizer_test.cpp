#include <gtest/gtest.h>

#include <algorithm>
#include <list>

#include "diac/synthesizer.hpp"
#include "netlist/suite.hpp"
#include "obs/metrics.hpp"

namespace diac {
namespace {

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::nominal_45nm();
  return l;
}

const Netlist& circuit(const std::string& name) {
  static std::list<Netlist> cache;
  cache.push_back(build_benchmark(name));
  return cache.back();
}

TEST(Synthesizer, RejectsInstanceThatFitsInStorage) {
  // Assumption 1 (SIV.C): there is never enough energy to complete an
  // instance, so rho must exceed 1.
  SynthesisOptions opt;
  opt.instance_rho = 0.9;
  EXPECT_THROW(DiacSynthesizer(circuit("s27"), lib(), opt),
               std::invalid_argument);
}

TEST(Synthesizer, ScaleMapsTreeToInstanceEnergy) {
  DiacSynthesizer synth(circuit("s820"), lib());
  const auto r = synth.synthesize();
  const double instance =
      synth.options().instance_rho * synth.options().e_max;
  EXPECT_NEAR(r.design.scale * r.design.tree.total_energy(), instance,
              instance * 1e-9);
  // Assumption 1: instance energy exceeds storage capacity.
  EXPECT_GT(instance, synth.options().e_max);
}

TEST(Synthesizer, TasksRespectUpperLimit) {
  DiacSynthesizer synth(circuit("s1238"), lib());
  const auto r = synth.synthesize();
  const double upper =
      synth.options().upper_fraction * synth.options().e_max;
  for (const TaskNode& n : r.design.tree.nodes()) {
    if (n.gates.size() > 1) {
      EXPECT_LE(r.design.scale * n.dict.energy(), upper * 1.01);
    }
  }
}

TEST(Synthesizer, DiacHasCommitPlan) {
  DiacSynthesizer synth(circuit("s1238"), lib());
  const auto r = synth.synthesize();
  EXPECT_EQ(r.design.scheme, Scheme::kDiac);
  EXPECT_FALSE(r.replacement.points.empty());
  EXPECT_EQ(r.design.tree.nvm_points().size(), r.replacement.points.size());
}

TEST(Synthesizer, BaselinesShareTaskGranularity) {
  DiacSynthesizer synth(circuit("s953"), lib());
  const auto diac = synth.synthesize_scheme(Scheme::kDiac);
  const auto nvb = synth.synthesize_scheme(Scheme::kNvBased);
  const auto nvc = synth.synthesize_scheme(Scheme::kNvClustering);
  EXPECT_EQ(diac.design.tree.size(), nvb.design.tree.size());
  EXPECT_EQ(diac.design.tree.size(), nvc.design.tree.size());
  // Baselines carry no commit plan.
  EXPECT_TRUE(nvb.design.tree.nvm_points().empty());
  EXPECT_TRUE(nvb.replacement.points.empty());
}

TEST(Synthesizer, OptimizedSharesDiacDesign) {
  DiacSynthesizer synth(circuit("s953"), lib());
  const auto diac = synth.synthesize_scheme(Scheme::kDiac);
  const auto opt = synth.synthesize_scheme(Scheme::kDiacOptimized);
  EXPECT_EQ(opt.design.scheme, Scheme::kDiacOptimized);
  EXPECT_EQ(diac.replacement.points, opt.replacement.points);
  EXPECT_EQ(diac.replacement.total_bits, opt.replacement.total_bits);
}

TEST(Synthesizer, PolicySelectionChangesTaskCount) {
  SynthesisOptions p1;
  p1.policy = PolicyKind::kPolicy1;
  SynthesisOptions p2;
  p2.policy = PolicyKind::kPolicy2;
  const auto t1 =
      DiacSynthesizer(circuit("s820"), lib(), p1).transformed_tree();
  const auto t2 =
      DiacSynthesizer(circuit("s820"), lib(), p2).transformed_tree();
  EXPECT_GT(t1.size(), t2.size());
}

TEST(Synthesizer, TechnologySelectionPropagates) {
  SynthesisOptions opt;
  opt.technology = NvmTechnology::kReram;
  DiacSynthesizer synth(circuit("s820"), lib(), opt);
  const auto r = synth.synthesize();
  EXPECT_EQ(r.design.technology, NvmTechnology::kReram);
  EXPECT_NEAR(r.design.nvm.write_energy_per_bit,
              nvm_parameters(NvmTechnology::kReram).write_energy_per_bit,
              1e-20);
}

TEST(Synthesizer, ReramWritesCostMoreThanMram) {
  SynthesisOptions mram;
  SynthesisOptions reram;
  reram.technology = NvmTechnology::kReram;
  const auto rm =
      DiacSynthesizer(circuit("s820"), lib(), mram).synthesize();
  const auto rr =
      DiacSynthesizer(circuit("s820"), lib(), reram).synthesize();
  ASSERT_FALSE(rm.replacement.points.empty());
  const TaskId p = rm.replacement.points[0];
  EXPECT_GT(rr.design.boundary_write_energy(p),
            rm.design.boundary_write_energy(p));
}

TEST(Synthesizer, BudgetFractionControlsCommitDensity) {
  SynthesisOptions loose;
  loose.budget_fraction = 0.5;
  SynthesisOptions tight;
  tight.budget_fraction = 0.08;
  const auto rl =
      DiacSynthesizer(circuit("s1238"), lib(), loose).synthesize();
  const auto rt =
      DiacSynthesizer(circuit("s1238"), lib(), tight).synthesize();
  EXPECT_GT(rt.replacement.points.size(), rl.replacement.points.size());
}

TEST(Synthesizer, WorksAcrossSuites) {
  for (const char* name : {"s27", "b02", "b10", "sbc"}) {
    DiacSynthesizer synth(circuit(name), lib());
    const auto r = synth.synthesize();
    EXPECT_GT(r.design.tree.size(), 0u) << name;
    EXPECT_FALSE(r.replacement.points.empty()) << name;
    EXPECT_NO_THROW(r.design.tree.validate()) << name;
  }
}

TEST(Synthesizer, PolicyTreeRebuildsTheTreeOnce) {
#if defined(DIAC_OBS_DISABLED)
  GTEST_SKIP() << "observability compiled out";
#else
  auto repartitions = [] {
    const auto counters = obs::Registry::instance().counter_values();
    const auto it = counters.find("synth.repartitions");
    return it == counters.end() ? std::uint64_t{0} : it->second;
  };
  // The merge stage rebuilds once: on these trees only the first packing
  // pass packs, and the pass after it returns that rebuilt tree.  At the
  // default limits no node of these trees splits, so Policy1 rebuilds
  // nothing and Policy3 adds no split rebuild.
  for (const char* name : {"s38417", "b14"}) {
    const Netlist& nl = circuit(name);
    const TaskTree initial = DiacSynthesizer(nl, lib()).initial_tree();
    for (PolicyKind policy : {PolicyKind::kPolicy1, PolicyKind::kPolicy2,
                              PolicyKind::kPolicy3}) {
      SynthesisOptions opt;
      opt.policy = policy;
      const std::uint64_t before = repartitions();
      const TaskTree tree = DiacSynthesizer(nl, lib(), opt).policy_tree(initial);
      const std::uint64_t expected = policy == PolicyKind::kPolicy1 ? 0 : 1;
      EXPECT_EQ(repartitions() - before, expected)
          << name << "/" << to_string(policy);
      if (policy == PolicyKind::kPolicy1) {
        EXPECT_EQ(tree.partition(), initial.partition()) << name;
      }
    }
  }
#endif
}

// Every design a sweep derives from shared stages (one initial tree per
// circuit, one policy tree per policy) must equal, bit for bit, the design
// the composed synthesize_scheme(scheme) builds from scratch.
void expect_same_design(const SynthesisResult& staged,
                        const SynthesisResult& composed,
                        const std::string& what) {
  const TaskTree& a = staged.design.tree;
  const TaskTree& b = composed.design.tree;
  ASSERT_EQ(a.size(), b.size()) << what;
  for (TaskId id = 0; id < a.size(); ++id) {
    const TaskNode& x = a.node(id);
    const TaskNode& y = b.node(id);
    ASSERT_TRUE(std::ranges::equal(x.gates, y.gates)) << what << " node " << id;
    ASSERT_EQ(x.label, y.label) << what << " node " << id;
    ASSERT_TRUE(std::ranges::equal(x.preds, y.preds)) << what << " node " << id;
    ASSERT_TRUE(std::ranges::equal(x.succs, y.succs)) << what << " node " << id;
    ASSERT_EQ(x.dict.fanin, y.dict.fanin) << what << " node " << id;
    ASSERT_EQ(x.dict.fanout, y.dict.fanout) << what << " node " << id;
    ASSERT_EQ(x.dict.level, y.dict.level) << what << " node " << id;
    ASSERT_EQ(x.dict.power, y.dict.power) << what << " node " << id;
    ASSERT_EQ(x.dict.delay, y.dict.delay) << what << " node " << id;
    ASSERT_EQ(x.dict.dynamic_energy, y.dict.dynamic_energy)
        << what << " node " << id;
    ASSERT_EQ(x.dict.static_energy, y.dict.static_energy)
        << what << " node " << id;
    const NvmAnnotation& u = a.annotation(id);
    const NvmAnnotation& v = b.annotation(id);
    ASSERT_EQ(u.has_nvm, v.has_nvm) << what << " node " << id;
    ASSERT_EQ(u.nvm_bits, v.nvm_bits) << what << " node " << id;
    ASSERT_EQ(u.accumulated_energy, v.accumulated_energy)
        << what << " node " << id;
  }
  EXPECT_EQ(a.schedule(), b.schedule()) << what;
  EXPECT_EQ(a.partition(), b.partition()) << what;
  EXPECT_EQ(staged.replacement.points, composed.replacement.points) << what;
  EXPECT_EQ(staged.replacement.total_bits, composed.replacement.total_bits)
      << what;
  EXPECT_EQ(staged.replacement.max_exposed_energy,
            composed.replacement.max_exposed_energy)
      << what;
  EXPECT_EQ(staged.design.scheme, composed.design.scheme) << what;
  EXPECT_EQ(staged.design.scale, composed.design.scale) << what;
  EXPECT_EQ(staged.design.clustering_ratio, composed.design.clustering_ratio)
      << what;
  EXPECT_EQ(staged.limits.scale, composed.limits.scale) << what;
}

std::vector<std::string> suite_names() {
  std::vector<std::string> names;
  for (const BenchmarkSpec& spec : benchmark_suite()) {
    names.push_back(spec.name);
  }
  return names;
}

class StagedSynthesis : public ::testing::TestWithParam<std::string> {};

TEST_P(StagedSynthesis, SharedStagesMatchComposedSynthesis) {
  const Netlist nl = build_benchmark(GetParam());
  const TaskTree initial = DiacSynthesizer(nl, lib()).initial_tree();
  for (PolicyKind policy : {PolicyKind::kPolicy1, PolicyKind::kPolicy2,
                            PolicyKind::kPolicy3}) {
    SynthesisOptions opt;
    opt.policy = policy;
    const DiacSynthesizer synth(nl, lib(), opt);
    const TaskTree tree = synth.policy_tree(initial);
    for (Scheme scheme : {Scheme::kNvBased, Scheme::kNvClustering,
                          Scheme::kDiac, Scheme::kDiacOptimized}) {
      expect_same_design(synth.synthesize_scheme(scheme, tree),
                         synth.synthesize_scheme(scheme),
                         GetParam() + "/" + to_string(policy) + "/" +
                             to_string(scheme));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCircuits, StagedSynthesis,
                         ::testing::ValuesIn(suite_names()),
                         [](const auto& inf) { return inf.param; });

}  // namespace
}  // namespace diac
