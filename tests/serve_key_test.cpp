// Property tests for the cache-key layer: the canonical netlist
// fingerprint (src/netlist/fingerprint.*) and the per-job digests
// (src/shard/job_key.*).
//
// Three properties carry the whole cache-correctness argument:
//   1. stability — re-declaring the same circuit in a different order
//      digests identically, so an equal design always hits;
//   2. sensitivity — flipping any single axis of the job tuple changes
//      the digest, so two different jobs can never share an entry;
//   3. no collisions in practice — distinct digests across the whole
//      24-circuit suite × candidate/scheme grid.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "netlist/bench_format.hpp"
#include "netlist/fingerprint.hpp"
#include "netlist/suite.hpp"
#include "search/candidate.hpp"
#include "serve/options.hpp"
#include "shard/job_key.hpp"
#include "util/hash128.hpp"

namespace diac {
namespace {

TEST(ServeKey, FingerprintStableUnderDeclarationReorder) {
  // The same circuit, gates and inputs declared in two different orders
  // (and under different module names): same canonical fingerprint.
  const Netlist a = parse_bench_string(
      "INPUT(a)\nINPUT(b)\n"
      "c = AND(a, b)\n"
      "d = OR(a, b)\n"
      "e = NAND(c, d)\n"
      "OUTPUT(e)\n",
      "first");
  const Netlist b = parse_bench_string(
      "INPUT(b)\nINPUT(a)\n"
      "d = OR(a, b)\n"
      "c = AND(a, b)\n"
      "e = NAND(c, d)\n"
      "OUTPUT(e)\n",
      "second");
  EXPECT_EQ(canonical_fingerprint(a), canonical_fingerprint(b));
}

TEST(ServeKey, FingerprintSeesStructure) {
  const Netlist a = parse_bench_string(
      "INPUT(a)\nINPUT(b)\nc = AND(a, b)\nOUTPUT(c)\n");
  const Netlist gate_kind = parse_bench_string(
      "INPUT(a)\nINPUT(b)\nc = OR(a, b)\nOUTPUT(c)\n");
  const Netlist fanin_order = parse_bench_string(
      "INPUT(a)\nINPUT(b)\nc = AND(b, a)\nOUTPUT(c)\n");
  const Netlist renamed = parse_bench_string(
      "INPUT(a)\nINPUT(b)\nx = AND(a, b)\nOUTPUT(x)\n");
  EXPECT_NE(canonical_fingerprint(a), canonical_fingerprint(gate_kind));
  EXPECT_NE(canonical_fingerprint(a), canonical_fingerprint(fanin_order));
  EXPECT_NE(canonical_fingerprint(a), canonical_fingerprint(renamed));
}

// One flipped axis must flip the digest.  Each lambda perturbs exactly
// one field of the (netlist, options, run) tuple.
TEST(ServeKey, McKeyDistinctForEveryFlippedAxis) {
  const Hash128 fp = canonical_fingerprint(build_benchmark("s27"));
  const Hash128 other_fp = canonical_fingerprint(build_benchmark("s344"));
  const EvaluationOptions base = serve::mc_eval_options({});
  const Hash128 key = mc_job_key(fp, base, 0);

  EXPECT_NE(key, mc_job_key(other_fp, base, 0)) << "netlist axis";
  EXPECT_NE(key, mc_job_key(fp, base, 1)) << "run axis";

  {
    EvaluationOptions o = base;
    o.synthesis.policy = PolicyKind::kPolicy1;
    EXPECT_NE(key, mc_job_key(fp, o, 0)) << "policy axis";
  }
  {
    EvaluationOptions o = base;
    o.synthesis.budget_fraction = 0.5;
    EXPECT_NE(key, mc_job_key(fp, o, 0)) << "budget axis";
  }
  {
    EvaluationOptions o = base;
    o.synthesis.technology = NvmTechnology::kReram;
    EXPECT_NE(key, mc_job_key(fp, o, 0)) << "NVM axis";
  }
  {
    EvaluationOptions o = base;
    o.simulator.target_instances += 1;
    EXPECT_NE(key, mc_job_key(fp, o, 0)) << "instances axis";
  }
  {
    EvaluationOptions o = base;
    o.simulator.max_time *= 2.0;
    EXPECT_NE(key, mc_job_key(fp, o, 0)) << "horizon axis";
  }
  {
    EvaluationOptions o = base;
    o.fsm.adaptive_sensing = !o.fsm.adaptive_sensing;
    EXPECT_NE(key, mc_job_key(fp, o, 0)) << "FSM axis";
  }
  {
    EvaluationOptions o = base;
    o.scenario.seed += 1;
    EXPECT_NE(key, mc_job_key(fp, o, 0)) << "seed axis";
  }
  {
    EvaluationOptions o = base;
    o.scenario.kind = SourceKind::kSolar;
    EXPECT_NE(key, mc_job_key(fp, o, 0)) << "source axis";
  }
  {
    EvaluationOptions o = base;
    o.scenario.rfid.max_power *= 2.0;
    EXPECT_NE(key, mc_job_key(fp, o, 0)) << "source-parameter axis";
  }
}

// Parameters only an *inactive* source kind reads stay out of the key:
// retuning solar defaults cannot invalidate rfid entries.
TEST(ServeKey, McKeyIgnoresInactiveSourceParameters) {
  const Hash128 fp = canonical_fingerprint(build_benchmark("s27"));
  const EvaluationOptions base = serve::mc_eval_options({});
  ASSERT_EQ(base.scenario.kind, SourceKind::kRfid);
  EvaluationOptions o = base;
  o.scenario.solar.peak_power *= 3.0;
  o.scenario.constant_power *= 2.0;
  o.scenario.square.duty = 0.9;
  EXPECT_EQ(mc_job_key(fp, base, 0), mc_job_key(fp, o, 0));
}

// The mc warm-start identity: the key is a function of the *derived*
// seed, not of the (base, run) pair that reached it.  Run 5 of a sweep
// based at s equals run 0 of a sweep whose base is shifted by the
// stride difference f(5) - f(0), where f is derive_seed at base 0.
TEST(ServeKey, McKeyIsAFunctionOfTheDerivedSeed) {
  const Hash128 fp = canonical_fingerprint(build_benchmark("s27"));
  const EvaluationOptions base = serve::mc_eval_options({});
  EvaluationOptions rebased = base;
  rebased.scenario = base.scenario.with_seed(
      base.scenario.seed + (derive_seed(0, 5) - derive_seed(0, 0)));
  ASSERT_EQ(derive_seed(rebased.scenario.seed, 0),
            derive_seed(base.scenario.seed, 5));
  EXPECT_EQ(mc_job_key(fp, base, 5), mc_job_key(fp, rebased, 0));
}

TEST(ServeKey, SearchKeyDistinctForEveryFlippedAxis) {
  const Hash128 fp = canonical_fingerprint(build_benchmark("s27"));
  const SearchOptions base = serve::search_options({});
  const DesignPoint point;
  const Hash128 key = search_job_key(fp, base, point);

  {
    DesignPoint p = point;
    p.policy = PolicyKind::kPolicy1;
    EXPECT_NE(key, search_job_key(fp, base, p)) << "policy axis";
  }
  {
    DesignPoint p = point;
    p.budget_fraction = 0.10;
    EXPECT_NE(key, search_job_key(fp, base, p)) << "budget axis";
  }
  {
    DesignPoint p = point;
    p.technology = NvmTechnology::kPcm;
    EXPECT_NE(key, search_job_key(fp, base, p)) << "NVM axis";
  }
  {
    DesignPoint p = point;
    p.scheme = Scheme::kNvBased;
    EXPECT_NE(key, search_job_key(fp, base, p)) << "scheme axis";
  }
  {
    DesignPoint p = point;
    p.adaptive_sensing = !p.adaptive_sensing;
    EXPECT_NE(key, search_job_key(fp, base, p)) << "sensing axis";
  }
  {
    SearchOptions o = base;
    o.objectives = SearchObjectives::parse("pdp");
    EXPECT_NE(key, search_job_key(fp, o, point)) << "objective-list axis";
  }
  {
    SearchOptions o = base;
    o.scenario.seed += 1;
    EXPECT_NE(key, search_job_key(fp, o, point)) << "scenario axis";
  }
}

// Collision smoke over the real workload: every suite circuit × every
// candidate of a scheme-widened grid (and, per circuit, a seeded mc
// sweep) must digest uniquely.
TEST(ServeKey, NoCollisionsAcrossSuiteAndSchemeGrid) {
  CandidateSpace space;
  space.schemes = {Scheme::kNvBased, Scheme::kNvClustering, Scheme::kDiac,
                   Scheme::kDiacOptimized};
  const std::vector<DesignPoint> points = space.grid();
  const SearchOptions so = serve::search_options({});
  const EvaluationOptions eo = serve::mc_eval_options({});

  std::set<Hash128> keys;
  std::size_t expected = 0;
  std::set<Hash128> fingerprints;
  for (const BenchmarkSpec& spec : benchmark_suite()) {
    const Hash128 fp = canonical_fingerprint(build_benchmark(spec));
    EXPECT_TRUE(fingerprints.insert(fp).second)
        << spec.name << ": fingerprint collision";
    for (const DesignPoint& p : points) {
      keys.insert(search_job_key(fp, so, p));
      ++expected;
    }
    for (int run = 0; run < 8; ++run) {
      keys.insert(mc_job_key(fp, eo, run));
      ++expected;
    }
  }
  EXPECT_EQ(keys.size(), expected) << "digest collision in the suite grid";
}

}  // namespace
}  // namespace diac
