#include "diac/synthesizer.hpp"

#include <stdexcept>

#include "obs/obs.hpp"

namespace diac {

DiacSynthesizer::DiacSynthesizer(const Netlist& nl, const CellLibrary& lib,
                                 SynthesisOptions options)
    : nl_(&nl), lib_(&lib), options_(options) {
  if (options_.e_max <= 0 || options_.instance_rho <= 1.0) {
    throw std::invalid_argument(
        "DiacSynthesizer: need e_max > 0 and instance_rho > 1 (assumption 1: "
        "an instance never fits in storage)");
  }
}

TaskTree DiacSynthesizer::initial_tree() const {
  DIAC_TRACE_SPAN("synth.tree", "synth");
  DIAC_OBS_COUNT("synth.tree_builds", 1);
  TreeGeneratorOptions tg;
  tg.grouping = options_.grouping;
  return TreeGenerator(*nl_, *lib_, tg).generate();
}

PolicyLimits DiacSynthesizer::policy_limits(const TaskTree& initial) const {
  PolicyLimits limits;
  const double total = initial.total_energy();
  if (total <= 0) {
    throw std::invalid_argument("DiacSynthesizer: netlist has no energy");
  }
  limits.scale = options_.instance_rho * options_.e_max / total;
  limits.upper = options_.upper_fraction * options_.e_max;
  limits.lower = options_.lower_ratio * limits.upper;
  return limits;
}

TaskTree DiacSynthesizer::policy_tree(const TaskTree& initial) const {
  DIAC_TRACE_SPAN("synth.policy", "synth");
  DIAC_OBS_COUNT("synth.policy_trees", 1);
  return apply_policy(initial, options_.policy, policy_limits(initial));
}

TaskTree DiacSynthesizer::policy_tree(const TaskTree& initial,
                                      const TaskTree& split) const {
  if (options_.policy != PolicyKind::kPolicy3) {
    throw std::logic_error("DiacSynthesizer: only Policy3 merges a split tree");
  }
  DIAC_TRACE_SPAN("synth.policy", "synth");
  DIAC_OBS_COUNT("synth.policy_trees", 1);
  return merge_small_nodes(split, policy_limits(initial));
}

TaskTree DiacSynthesizer::transformed_tree() const {
  return policy_tree(initial_tree());
}

SynthesisResult DiacSynthesizer::synthesize() const {
  return synthesize_scheme(Scheme::kDiac);
}

SynthesisResult DiacSynthesizer::synthesize_scheme(Scheme scheme) const {
  return synthesize_scheme(scheme, transformed_tree());
}

SynthesisResult DiacSynthesizer::synthesize_scheme(
    Scheme scheme, const TaskTree& policy_tree) const {
  DIAC_TRACE_SPAN("synthesize", "synth");
  DIAC_OBS_COUNT("synth.runs", 1);
  SynthesisResult result;
  TaskTree tree = policy_tree;

  const double total = tree.total_energy();
  const double scale = options_.instance_rho * options_.e_max / total;
  result.limits.scale = scale;
  result.limits.upper = options_.upper_fraction * options_.e_max;
  result.limits.lower = options_.lower_ratio * result.limits.upper;

  switch (scheme) {
    case Scheme::kNvBased:
      result.design = make_nv_based(std::move(tree), options_.technology, scale,
                                    options_.system_factor);
      break;
    case Scheme::kNvClustering:
      result.design = make_nv_clustering(std::move(tree), options_.technology,
                                         scale, options_.system_factor);
      break;
    case Scheme::kDiac:
    case Scheme::kDiacOptimized: {
      ReplacementOptions ro;
      ro.budget = options_.budget_fraction * options_.e_max;
      ro.scale = scale;
      result.replacement = insert_nvm(tree, ro);

      IntermittentDesign d;
      d.scheme = scheme;
      d.technology = options_.technology;
      d.nvm = nvm_parameters(options_.technology);
      d.scale = scale;
      d.system_factor = options_.system_factor;
      d.tree = std::move(tree);
      result.design = std::move(d);
      break;
    }
  }
  return result;
}

}  // namespace diac
