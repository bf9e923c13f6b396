#include "core/fr.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "solver/qclp.h"

namespace ppfr::core {

FrOutput ComputeFairnessWeights(nn::GnnModel* model, const nn::GraphContext& ctx,
                                const std::vector<int>& train_nodes,
                                const std::vector<int>& labels,
                                const std::shared_ptr<const la::CsrMatrix>& laplacian,
                                const FrConfig& config) {
  // Cell-scoped warm-pool cache: every influence consumer in this FR compute
  // (the shared-forward TapePool, the fused probe GradLanePool) shares one
  // set of warm pools instead of rebuilding them per use-site.
  influence::ReplayCache replay_cache;
  influence::InfluenceConfig influence_config = config.influence;
  influence_config.replay_cache = &replay_cache;
  influence::InfluenceCalculator calculator(model, ctx, train_nodes, labels,
                                            influence_config);
  FrOutput out;
  // Bias and utility influences share one 2-RHS block inverse-HVP solve (and
  // the batched -SᵀG contraction) instead of two independent CG chains; with
  // influence.cg_block = 1 this reduces to the single-RHS oracle per column.
  std::vector<std::vector<double>> batched = calculator.InfluenceOnFunctions(
      {influence::InfluenceCalculator::BiasFunction(laplacian),
       calculator.UtilityFunction()});
  out.bias_influence = std::move(batched[0]);
  out.util_influence = std::move(batched[1]);
  const influence::BlockSolveStats& solve_stats = calculator.block_stats();
  out.cg_total_rhs = solve_stats.total_rhs;
  out.cg_unconverged = solve_stats.total_rhs - solve_stats.converged_rhs;
  const auto all_zero = [](const std::vector<double>& v) {
    return std::all_of(v.begin(), v.end(), [](double x) { return x == 0.0; });
  };
  if (all_zero(out.bias_influence) && all_zero(out.util_influence)) {
    // Nothing to reweight by: the QCLP below returns w = 0 and FR becomes a
    // plain fine-tune. Usually the damped Hessian was not positive definite
    // along the first CG direction, which stops the solve at x = 0.
    PPFR_LOG(Warning) << "FR: every bias and utility influence is exactly 0 ("
                      << solve_stats.nonpositive_curvature_rhs << " of "
                      << solve_stats.total_rhs
                      << " inverse-HVP solves stopped on non-positive curvature); "
                         "the reweighting reduces to a plain fine-tune";
  }

  // Sign bookkeeping. By the implicit function theorem dθ*/dw_v = -H⁻¹∇L_v,
  // so df/dw_v = -∇fᵀH⁻¹∇L_v — which is exactly what the calculator returns
  // (n·df/dw_v up to the positive 1/|Vl| loss normalisation). The QCLP
  // objective Σ_v w_v·I_f(v) therefore IS the predicted change of f under the
  // reweighting, matching Eq. 13's intent of minimising the resulting bias.
  // (The paper's Eq. 9 drops the IFT minus sign and its Eq. 13 re-uses that
  // convention; the two slips cancel, and this orientation is the one that
  // empirically debiases — see tests/core_test.cc.)
  solver::QclpProblem problem;
  problem.objective = out.bias_influence;
  problem.ball_radius_sq = config.alpha * static_cast<double>(train_nodes.size());
  problem.halfspace_u = out.util_influence;
  // Utility budget: the predicted loss increase may not exceed β times the
  // total predicted increase over all loss-harming directions.
  double positive_util = 0.0;
  for (double u : out.util_influence) {
    if (u > 0.0) positive_util += u;
  }
  problem.halfspace_offset = config.beta * positive_util;
  problem.zero_sum = config.zero_sum;

  const solver::QclpResult solution = solver::SolveQclp(problem);
  out.w = solution.w;
  out.objective = solution.objective_value;
  out.sample_weights.reserve(out.w.size());
  for (double w : out.w) out.sample_weights.push_back(1.0 + w);
  return out;
}

}  // namespace ppfr::core
