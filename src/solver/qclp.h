#ifndef PPFR_SOLVER_QCLP_H_
#define PPFR_SOLVER_QCLP_H_

#include <vector>

namespace ppfr::solver {

// The fairness-aware-reweighting program of Eq. 13:
//   min_w   cᵀ w
//   s.t.    ‖w‖² <= ball_radius_sq          (reweighting budget  α·|Vl|)
//           uᵀ w  <= halfspace_offset        (bounded utility cost β·ΣI⁺util)
//           box_lo <= w_i <= box_hi          (w_v ∈ [-1, 1])
//           Σ_i w_i = 0                      (only when zero_sum)
// The paper solves this with Gurobi. SolveQclp solves it exactly through its
// Lagrangian dual, which has three multipliers: μ >= 0 (ball), λ >= 0
// (halfspace) and ν (zero sum). For fixed multipliers with μ > 0 the
// Lagrangian's minimiser over the box is
//   w_i = clip(-(c_i + λ·u_i + ν) / (2μ), box_lo, box_hi),
// so the dual is three nested one-dimensional roots: ν makes Σw = 0 (exactly,
// on the sorted breakpoints of the piecewise-linear Σw(ν)); λ is the root of
// uᵀw − b and t = 1/(2μ) the root of ‖w‖ − √R, both by bracketed Illinois
// steps (bisecting when the secant stalls), each monotone in its multiplier.
// When the ball is inactive (μ = 0) the program is an LP over the box with at
// most two linear constraints, solved exactly with ties broken by index. The
// ball counts as inactive only when certified: the LP optimum lies in it, or
// (tied costs) a regularised minimiser inside it is LP-optimal.
struct QclpProblem {
  std::vector<double> objective;  // c
  double ball_radius_sq = 1.0;
  std::vector<double> halfspace_u;  // u (empty disables the constraint)
  double halfspace_offset = 0.0;
  double box_lo = -1.0;
  double box_hi = 1.0;
  // Adds the equality constraint Σ_i w_i = 0 (pure redistribution). The
  // fairness-aware reweighting sets it so debiasing moves loss weight between
  // nodes instead of shrinking the total loss (core::FrConfig::zero_sum; the
  // fig6 sweep's `zero_sum_off` cell ablates it).
  bool zero_sum = false;
};

struct QclpResult {
  std::vector<double> w;
  double objective_value = 0.0;
  // Lagrangian minimisations over the box: one per set of multipliers the
  // solve evaluated, LP vertices included. perfbench sums it over a workload
  // as solver.qclp_iterations.
  int iterations = 0;
  // KKT certificate: w minimises cᵀw + μ‖w‖² + λ·uᵀw + ν·Σw over the box,
  // and μ (λ) is zero unless the ball (halfspace) is tight at w. λ is 0
  // without a halfspace and ν is 0 without zero_sum.
  double ball_multiplier = 0.0;       // μ
  double halfspace_multiplier = 0.0;  // λ
  double sum_multiplier = 0.0;        // ν
};

// Aborts (PPFR_CHECK) on an infeasible problem.
QclpResult SolveQclp(const QclpProblem& problem);

// The LP training scheme of Li & Liu (ICML'22) that the paper contrasts its
// QCLP against (§VI-B1): same linear objective, but the only constraints are
// the box [-1, 1] and weight-sum preservation (Σw = 0 in our centred
// parameterisation): no reweighting-budget ball and no utility halfspace.
// Closed form: the ⌊n/2⌋ largest c get −1, the ⌊n/2⌋ smallest +1 and, for
// odd n, the middle one 0; among equal c the lower index counts as smaller.
// Exposed for the ablation benches.
QclpResult SolveLiLiuLp(const std::vector<double>& objective);

// Checks feasibility of a point up to `slack` (used in tests).
bool IsFeasible(const QclpProblem& problem, const std::vector<double>& w,
                double slack = 1e-6);

}  // namespace ppfr::solver

#endif  // PPFR_SOLVER_QCLP_H_
