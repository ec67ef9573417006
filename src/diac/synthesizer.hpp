// DiacSynthesizer: the end-to-end DIAC design flow of Fig. 1.
//
//   1-3  Tree Generator: netlist -> levelized tree + feature dictionaries
//   4-5  Policy + Replacement: split/merge per policy, insert NVM commit
//        points within the backup budget
//   6    NV-enhanced tree
//   7    Code generation + validation (timing / power budget)
//
// `synthesize` produces the DIAC design; `synthesize_scheme` produces any
// of the four evaluated schemes over the *same* policy-transformed tree so
// comparisons isolate the backup architecture.
#pragma once

#include "diac/baselines.hpp"
#include "diac/design.hpp"
#include "diac/policy.hpp"
#include "diac/replacement.hpp"
#include "tree/tree_generator.hpp"

namespace diac {

struct SynthesisOptions {
  PolicyKind policy = PolicyKind::kPolicy3;
  TreeGrouping grouping = TreeGrouping::kCones;
  NvmTechnology technology = NvmTechnology::kMram;

  // Storage and instance scaling (paper SIV.A): E_MAX = 25 mJ and the
  // instance is re-run until its energy exceeds the capacity; rho is the
  // instance-to-capacity ratio (assumption 1 requires rho > 1).
  double e_max = 25.0e-3;          // J
  double instance_rho = 1.6;       // instance energy = rho * e_max

  // Policy limits as fractions of E_MAX (the 0.8 lower/upper ratio is the
  // paper's 25/20 mJ worked-example ratio; the absolute fraction sets task
  // granularity at ~atomic-operation scale, a few percent of storage).
  double upper_fraction = 0.03;    // split above upper_fraction * e_max
  double lower_ratio = 0.8;        // lower = lower_ratio * upper

  // Replacement budget: max accumulated energy between commit points as a
  // fraction of E_MAX.
  double budget_fraction = 0.25;

  double system_factor = kDefaultSystemFactor;
};

struct SynthesisResult {
  IntermittentDesign design;
  ReplacementResult replacement;  // empty for checkpoint-based schemes
  PolicyLimits limits;
};

class DiacSynthesizer {
 public:
  DiacSynthesizer(const Netlist& nl, const CellLibrary& lib,
                  SynthesisOptions options = {});

  // Runs the full flow for the DIAC scheme.
  SynthesisResult synthesize() const;

  // Runs the flow for any scheme (checkpoint baselines reuse the same
  // policy-transformed tree but carry full-state backups instead of commit
  // points): synthesize_scheme(scheme, transformed_tree()).
  SynthesisResult synthesize_scheme(Scheme scheme) const;

  // The flow's stages, for sweeps that share them across designs.  The
  // initial tree depends only on the netlist and `grouping`; the policy
  // tree additionally on `policy`, `e_max`, `instance_rho`,
  // `upper_fraction` and `lower_ratio`; the scheme stage adds
  // `budget_fraction`, `technology` and `system_factor`.
  //
  // Steps 1-3: the un-optimized levelized tree (TreeGenerator::generate).
  TaskTree initial_tree() const;
  // Step 4 (policy): derives the limits from `initial` and applies the
  // policy.  `initial` must come from initial_tree() of a synthesizer with
  // the same netlist and grouping.
  TaskTree policy_tree(const TaskTree& initial) const;
  // Step 4 for Policy3 from Policy1's tree: merge_small_nodes over
  // `split`, which must be policy_tree(initial) of a Policy1 synthesizer
  // that agrees with this one on the other policy-tree fields.  Policy3
  // is Policy2 over Policy1's tree, so this equals policy_tree(initial).
  TaskTree policy_tree(const TaskTree& initial, const TaskTree& split) const;
  // Steps 5-6 (replacement): the `scheme` design over `policy_tree`, which
  // must come from policy_tree() of a synthesizer that agrees with this one
  // on the policy-tree fields above.  The design holds its own copy of the
  // tree, which shares the tree's structure and copies only its NVM
  // annotations.
  SynthesisResult synthesize_scheme(Scheme scheme,
                                    const TaskTree& policy_tree) const;

  // The policy-transformed tree (before NVM insertion), for inspection:
  // policy_tree(initial_tree()).
  TaskTree transformed_tree() const;

  const SynthesisOptions& options() const { return options_; }

 private:
  // The policy limits `options_` derive for `initial`.
  PolicyLimits policy_limits(const TaskTree& initial) const;

  const Netlist* nl_;
  const CellLibrary* lib_;
  SynthesisOptions options_;
};

}  // namespace diac
