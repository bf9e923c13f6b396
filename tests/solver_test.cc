#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <string>

#include "common/rng.h"
#include "solver/qclp.h"

namespace ppfr::solver {
namespace {

// ---------------------------------------------------------------------------
// The oracle: projected subgradient descent (step ∝ 1/√t, best iterate) with
// Dykstra projections onto box ∩ ball ∩ halfspace ∩ {Σw = 0}. It reaches the
// optimum only in the limit; the exact dual solver must never do worse.

// Projection onto the box [lo, hi]^n (in place).
void ProjectBox(double lo, double hi, std::vector<double>* w) {
  for (double& x : *w) x = std::clamp(x, lo, hi);
}

// Projection onto the L2 ball ‖w‖² <= radius_sq (in place).
void ProjectBall(double radius_sq, std::vector<double>* w) {
  double norm_sq = 0.0;
  for (double x : *w) norm_sq += x * x;
  if (norm_sq <= radius_sq || norm_sq == 0.0) return;
  const double scale = std::sqrt(radius_sq / norm_sq);
  for (double& x : *w) x *= scale;
}

// Projection onto {w : uᵀw <= offset}, or onto {w : uᵀw == offset} when
// `equality` (in place).
void ProjectHalfspace(const std::vector<double>& u, double offset,
                      std::vector<double>* w, bool equality = false) {
  double dot = 0.0, norm_sq = 0.0;
  for (size_t i = 0; i < u.size(); ++i) {
    dot += u[i] * (*w)[i];
    norm_sq += u[i] * u[i];
  }
  if ((!equality && dot <= offset) || norm_sq == 0.0) return;
  const double step = (dot - offset) / norm_sq;
  for (size_t i = 0; i < u.size(); ++i) (*w)[i] -= step * u[i];
}

void ProjectHyperplane(const std::vector<double>& u, double offset,
                       std::vector<double>* w) {
  ProjectHalfspace(u, offset, w, /*equality=*/true);
}

struct DykstraOptions {
  int max_sweeps = 100;
  double tolerance = 1e-10;  // on the squared change between sweeps
  // Plain cyclic-projection sweeps after the Dykstra loop clean up residual
  // constraint violations (POCS converges to a feasible point).
  int polish_sweeps = 60;
};

using ProjectionFn = std::function<void(std::vector<double>*)>;

// Dykstra's alternating projection onto the intersection of convex sets.
void DykstraProject(const std::vector<ProjectionFn>& sets,
                    const DykstraOptions& options, std::vector<double>* w) {
  const size_t n = w->size();
  std::vector<std::vector<double>> corrections(sets.size(), std::vector<double>(n, 0.0));
  for (int sweep = 0; sweep < options.max_sweeps; ++sweep) {
    double change_sq = 0.0;
    for (size_t set_idx = 0; set_idx < sets.size(); ++set_idx) {
      std::vector<double>& correction = corrections[set_idx];
      std::vector<double> y(n);
      for (size_t i = 0; i < n; ++i) y[i] = (*w)[i] + correction[i];
      std::vector<double> projected = y;
      sets[set_idx](&projected);
      for (size_t i = 0; i < n; ++i) {
        correction[i] = y[i] - projected[i];
        change_sq += (projected[i] - (*w)[i]) * (projected[i] - (*w)[i]);
        (*w)[i] = projected[i];
      }
    }
    if (change_sq < options.tolerance) break;
  }
  for (int sweep = 0; sweep < options.polish_sweeps; ++sweep) {
    for (const ProjectionFn& project : sets) project(w);
  }
}

// box ∩ ball ∩ halfspace.
void ProjectIntersection(double box_lo, double box_hi, double ball_radius_sq,
                         const std::vector<double>& halfspace_u,
                         double halfspace_offset, std::vector<double>* w) {
  DykstraProject(
      {[&](std::vector<double>* v) { ProjectBox(box_lo, box_hi, v); },
       [&](std::vector<double>* v) { ProjectBall(ball_radius_sq, v); },
       [&](std::vector<double>* v) { ProjectHalfspace(halfspace_u, halfspace_offset, v); }},
      DykstraOptions{}, w);
}

void ProjectFeasible(const QclpProblem& p, std::vector<double>* w) {
  std::vector<ProjectionFn> sets;
  sets.push_back([&p](std::vector<double>* v) { ProjectBox(p.box_lo, p.box_hi, v); });
  sets.push_back([&p](std::vector<double>* v) { ProjectBall(p.ball_radius_sq, v); });
  if (!p.halfspace_u.empty()) {
    sets.push_back([&p](std::vector<double>* v) {
      ProjectHalfspace(p.halfspace_u, p.halfspace_offset, v);
    });
  }
  const std::vector<double> ones(w->size(), 1.0);
  if (p.zero_sum) {
    sets.push_back([&ones](std::vector<double>* v) { ProjectHyperplane(ones, 0.0, v); });
  }
  DykstraProject(sets, DykstraOptions{}, w);
}

double Objective(const std::vector<double>& c, const std::vector<double>& w) {
  double s = 0.0;
  for (size_t i = 0; i < c.size(); ++i) s += c[i] * w[i];
  return s;
}

QclpResult SolveProjectedOracle(const QclpProblem& p, int iterations = 600) {
  const size_t n = p.objective.size();
  double c_norm = 0.0;
  for (double c : p.objective) c_norm += c * c;
  c_norm = std::sqrt(c_norm);
  QclpResult result;
  result.w.assign(n, 0.0);
  ProjectFeasible(p, &result.w);
  result.objective_value = Objective(p.objective, result.w);
  if (c_norm == 0.0) return result;
  const double step0 = std::sqrt(p.ball_radius_sq) / c_norm;
  std::vector<double> w = result.w;
  for (int it = 1; it <= iterations; ++it) {
    const double step = step0 / std::sqrt(static_cast<double>(it));
    for (size_t i = 0; i < n; ++i) w[i] -= step * p.objective[i];
    ProjectFeasible(p, &w);
    const double value = Objective(p.objective, w);
    if (value < result.objective_value) {
      result.objective_value = value;
      result.w = w;
    }
    result.iterations = it;
  }
  return result;
}

// Largest constraint violation of w, each relative to the magnitude of the
// terms its constraint sums: with |u| ~ 1e5, uᵀw carries rounding far above
// any fixed absolute slack.
double Infeasibility(const QclpProblem& p, const std::vector<double>& w) {
  const double corner = std::max(std::fabs(p.box_lo), std::fabs(p.box_hi));
  double worst = 0.0, norm_sq = 0.0, sum = 0.0, sum_magnitude = 0.0, dot = 0.0,
         dot_magnitude = std::fabs(p.halfspace_offset);
  for (size_t i = 0; i < w.size(); ++i) {
    worst = std::max(worst, std::max(p.box_lo - w[i], w[i] - p.box_hi) / corner);
    norm_sq += w[i] * w[i];
    sum += w[i];
    sum_magnitude += std::fabs(w[i]);
    if (!p.halfspace_u.empty()) {
      dot += p.halfspace_u[i] * w[i];
      dot_magnitude += std::fabs(p.halfspace_u[i] * w[i]);
    }
  }
  worst = std::max(worst, (norm_sq - p.ball_radius_sq) / p.ball_radius_sq);
  if (dot_magnitude > 0.0) {
    worst = std::max(worst, (dot - p.halfspace_offset) / dot_magnitude);
  }
  if (p.zero_sum && sum_magnitude > 0.0) {
    worst = std::max(worst, std::fabs(sum) / sum_magnitude);
  }
  return worst;
}

// The oracle's Dykstra projection can leave its point outside the ball or
// the halfspace (by up to ~6e-2 in uᵀw when u is ~1e4–1e5), where cᵀw may sit
// below the true optimum. Scaling the point toward 0, which is feasible when
// the offset is >= 0, keeps it in the box and on Σw = 0 and restores both.
std::vector<double> PullIntoBallAndHalfspace(const QclpProblem& p, std::vector<double> w) {
  double norm_sq = 0.0, dot = 0.0;
  for (size_t i = 0; i < w.size(); ++i) {
    norm_sq += w[i] * w[i];
    if (!p.halfspace_u.empty()) dot += p.halfspace_u[i] * w[i];
  }
  double scale = 1.0;
  if (norm_sq > p.ball_radius_sq) scale = std::sqrt(p.ball_radius_sq / norm_sq);
  if (dot > p.halfspace_offset) scale = std::min(scale, p.halfspace_offset / dot);
  for (double& x : w) x *= scale;
  return w;
}

// Largest KKT violation of a result's point and multipliers. Stationarity of
// cᵀw + μ‖w‖² + λuᵀw + νΣw over the box is measured per weight relative to
// the magnitude of its terms, plus the magnitude ν carries from the interior
// weights it is solved from (the largest |c_j| + |2μw_j| + |λu_j| there), so
// ν's own rounding never reads as a violation on a weight whose other terms
// are 0. Complementary slackness is measured relative to the constraint's
// right-hand side plus the largest its left can reach over the box.
double KktResidual(const QclpProblem& p, const QclpResult& r) {
  const double mu = r.ball_multiplier, lambda = r.halfspace_multiplier,
               nu = r.sum_multiplier;
  const bool halfspace = !p.halfspace_u.empty();
  if (mu < 0.0 || lambda < 0.0 || (!halfspace && lambda != 0.0) ||
      (!p.zero_sum && nu != 0.0)) {
    return std::numeric_limits<double>::infinity();
  }
  auto terms = [&](size_t i) {
    const double u = halfspace ? p.halfspace_u[i] : 0.0;
    return std::fabs(p.objective[i]) + std::fabs(2.0 * mu * r.w[i]) + std::fabs(lambda * u);
  };
  double nu_magnitude = std::fabs(nu);
  for (size_t i = 0; p.zero_sum && i < r.w.size(); ++i) {
    if (r.w[i] > p.box_lo && r.w[i] < p.box_hi) nu_magnitude = std::max(nu_magnitude, terms(i));
  }
  const double corner = std::max(std::fabs(p.box_lo), std::fabs(p.box_hi));
  double worst = 0.0, norm_sq = 0.0, dot = 0.0, dot_magnitude = std::fabs(p.halfspace_offset);
  for (size_t i = 0; i < r.w.size(); ++i) {
    const double w = r.w[i];
    const double u = halfspace ? p.halfspace_u[i] : 0.0;
    const double g = p.objective[i] + 2.0 * mu * w + lambda * u + nu;
    const double magnitude = terms(i) + nu_magnitude;
    const double violation = w <= p.box_lo   ? std::max(0.0, -g)
                             : w >= p.box_hi ? std::max(0.0, g)
                                             : std::fabs(g);
    if (magnitude > 0.0) worst = std::max(worst, violation / magnitude);
    norm_sq += w * w;
    dot += u * w;
    dot_magnitude += std::fabs(u) * corner;
  }
  if (mu > 0.0) {
    worst = std::max(worst, std::fabs(norm_sq - p.ball_radius_sq) / p.ball_radius_sq);
  }
  if (lambda > 0.0) {
    worst = std::max(worst, std::fabs(dot - p.halfspace_offset) / dot_magnitude);
  }
  return worst;
}

TEST(ProjectionsTest, BoxClamps) {
  std::vector<double> w{-3, 0.5, 2};
  ProjectBox(-1, 1, &w);
  EXPECT_EQ(w, (std::vector<double>{-1, 0.5, 1}));
}

TEST(ProjectionsTest, BallScalesOnlyWhenOutside) {
  std::vector<double> inside{0.3, 0.4};
  ProjectBall(1.0, &inside);
  EXPECT_DOUBLE_EQ(inside[0], 0.3);
  std::vector<double> outside{3, 4};
  ProjectBall(1.0, &outside);
  EXPECT_NEAR(std::sqrt(outside[0] * outside[0] + outside[1] * outside[1]), 1.0, 1e-12);
  EXPECT_NEAR(outside[0] / outside[1], 0.75, 1e-12);  // direction preserved
}

TEST(ProjectionsTest, HalfspaceProjectsOntoBoundary) {
  const std::vector<double> u{1, 1};
  std::vector<double> ok{0.2, 0.2};
  ProjectHalfspace(u, 1.0, &ok);
  EXPECT_DOUBLE_EQ(ok[0], 0.2);  // already feasible
  std::vector<double> bad{2, 2};
  ProjectHalfspace(u, 1.0, &bad);
  EXPECT_NEAR(bad[0] + bad[1], 1.0, 1e-12);
  EXPECT_NEAR(bad[0], bad[1], 1e-12);
}

TEST(ProjectionsTest, HyperplaneProjectsBothSides) {
  const std::vector<double> u{1, 1, 1};
  std::vector<double> w{1, 2, 3};
  ProjectHyperplane(u, 0.0, &w);
  EXPECT_NEAR(w[0] + w[1] + w[2], 0.0, 1e-12);
  std::vector<double> below{-5, 0, 0};
  ProjectHyperplane(u, 0.0, &below);
  EXPECT_NEAR(below[0] + below[1] + below[2], 0.0, 1e-12);
}

TEST(ProjectionsTest, ProjectionsAreIdempotent) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> w(4);
    for (auto& x : w) x = rng.Normal() * 3;
    ProjectBall(2.0, &w);
    std::vector<double> again = w;
    ProjectBall(2.0, &again);
    for (int i = 0; i < 4; ++i) EXPECT_NEAR(w[i], again[i], 1e-12);
  }
}

TEST(DykstraTest, IntersectionPointIsFeasible) {
  Rng rng(5);
  const std::vector<double> u{1.0, -0.5, 0.25, 1.0};
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> w(4);
    for (auto& x : w) x = rng.Normal() * 4;
    ProjectIntersection(-1, 1, 2.0, u, 0.3, &w);
    double norm_sq = 0, dot = 0;
    for (int i = 0; i < 4; ++i) {
      EXPECT_GE(w[i], -1 - 1e-8);
      EXPECT_LE(w[i], 1 + 1e-8);
      norm_sq += w[i] * w[i];
      dot += u[i] * w[i];
    }
    EXPECT_LE(norm_sq, 2.0 + 1e-6);
    EXPECT_LE(dot, 0.3 + 1e-6);
  }
}

TEST(DykstraTest, MatchesExactProjectionOnBoxBall) {
  // For the point (2, 0) with box [-1,1]² and ball radius 1, the exact
  // projection is (1, 0) ... but with ball ‖w‖ ≤ 0.5 it is (0.5, 0).
  std::vector<double> w{2, 0};
  ProjectIntersection(-1, 1, 0.25, {0.0, 0.0}, 1.0, &w);
  EXPECT_NEAR(w[0], 0.5, 1e-6);
  EXPECT_NEAR(w[1], 0.0, 1e-9);
}

TEST(QclpTest, BallOnlyAnalyticSolution) {
  // min cᵀw s.t. ‖w‖² <= r², box wide: w* = -r c/‖c‖.
  QclpProblem p;
  p.objective = {3, -4};
  p.ball_radius_sq = 4.0;
  p.box_lo = -10;
  p.box_hi = 10;
  const QclpResult result = SolveQclp(p);
  EXPECT_NEAR(result.w[0], -2.0 * 3 / 5, 1e-14);
  EXPECT_NEAR(result.w[1], 2.0 * 4 / 5, 1e-14);
  EXPECT_NEAR(result.objective_value, -2.0 * 5, 1e-13);
  EXPECT_NEAR(result.ball_multiplier, 5.0 / 4.0, 1e-13);  // ‖c‖ / (2r)
}

TEST(QclpTest, BoxBindingSolution) {
  // Large ball: solution sits at the box corner opposing c, with μ = 0.
  QclpProblem p;
  p.objective = {1, -2, 0.5};
  p.ball_radius_sq = 100.0;
  const QclpResult result = SolveQclp(p);
  EXPECT_EQ(result.w, (std::vector<double>{-1, 1, -1}));
  EXPECT_EQ(result.ball_multiplier, 0.0);
}

TEST(QclpTest, SolutionIsFeasible) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    QclpProblem p;
    const int n = 6;
    p.objective.resize(n);
    p.halfspace_u.resize(n);
    for (int i = 0; i < n; ++i) {
      p.objective[i] = rng.Normal();
      p.halfspace_u[i] = rng.Normal();
    }
    p.ball_radius_sq = 0.5 * n;
    p.halfspace_offset = 0.2;
    p.zero_sum = trial % 2 == 0;
    const QclpResult result = SolveQclp(p);
    EXPECT_TRUE(IsFeasible(p, result.w, 1e-12)) << "trial " << trial;
  }
}

TEST(QclpTest, BeatsRandomFeasiblePoints) {
  Rng rng(11);
  QclpProblem p;
  const int n = 5;
  p.objective.resize(n);
  p.halfspace_u.resize(n);
  for (int i = 0; i < n; ++i) {
    p.objective[i] = rng.Normal();
    p.halfspace_u[i] = rng.Normal();
  }
  p.ball_radius_sq = 2.0;
  p.halfspace_offset = 0.1;
  const QclpResult result = SolveQclp(p);

  // No random feasible point may do better.
  double best_random = 1e9;
  for (int trial = 0; trial < 20000; ++trial) {
    std::vector<double> w(n);
    for (auto& x : w) x = rng.Uniform(-1, 1);
    if (!IsFeasible(p, w, 0.0)) continue;
    double value = 0;
    for (int i = 0; i < n; ++i) value += p.objective[i] * w[i];
    best_random = std::min(best_random, value);
  }
  EXPECT_LE(result.objective_value, best_random);
}

TEST(QclpTest, ZeroSumConstraintHolds) {
  QclpProblem p;
  p.objective = {1.0, 0.5, -0.2, 2.0, -1.5};
  p.ball_radius_sq = 4.0;
  p.zero_sum = true;
  const QclpResult result = SolveQclp(p);
  double sum = 0;
  for (double w : result.w) sum += w;
  EXPECT_NEAR(sum, 0.0, 1e-14);
  EXPECT_TRUE(IsFeasible(p, result.w, 1e-14));
}

TEST(QclpTest, ZeroObjectiveReturnsFeasiblePoint) {
  QclpProblem p;
  p.objective = {0, 0, 0};
  p.ball_radius_sq = 1.0;
  const QclpResult result = SolveQclp(p);
  EXPECT_TRUE(IsFeasible(p, result.w, 1e-9));
  EXPECT_DOUBLE_EQ(result.objective_value, 0.0);
}

TEST(QclpTest, TiedLpFaceInsideBall) {
  // The LP optimum is not unique (c_1 = c_2 = 0): the index-ordered vertex
  // (-1, 1, -1, 1) leaves the ball, but (-1, 0, 0, 1) on the same optimal
  // face lies inside it. The regularised minimisers stop growing there.
  QclpProblem p;
  p.objective = {1.0, 0.0, 0.0, -1.0};
  p.ball_radius_sq = 3.0;
  p.zero_sum = true;
  const QclpResult result = SolveQclp(p);
  EXPECT_EQ(result.w, (std::vector<double>{-1.0, 0.0, 0.0, 1.0}));
  EXPECT_EQ(result.objective_value, -2.0);
  EXPECT_EQ(result.ball_multiplier, 0.0);
  EXPECT_EQ(KktResidual(p, result), 0.0);
}

TEST(QclpTest, BallBindsPastAStalledRegularisedPath) {
  // The LP vertex (1, 1) leaves the ball ‖w‖² <= 1.5. On the way there the
  // regularised minimisers w(t) sit at the vertex (1, 0.5) of the box and the
  // halfspace w_0 − w_1 <= 0.5, inside the ball, for t in [1.5, 50]; the
  // optimum lies further on, where the ball binds at (1, √0.5). The zero-sum
  // problem is the same one twice over, mirrored: (w, −w) with c and u
  // negated on the mirror half.
  QclpProblem plain;
  plain.objective = {-0.99, -0.01};
  plain.halfspace_u = {1.0, -1.0};
  plain.halfspace_offset = 0.5;
  plain.ball_radius_sq = 1.5;
  QclpProblem zero_sum;
  zero_sum.objective = {-0.99, -0.01, 0.99, 0.01};
  zero_sum.halfspace_u = {1.0, -1.0, -1.0, 1.0};
  zero_sum.halfspace_offset = 1.0;
  zero_sum.ball_radius_sq = 3.0;
  zero_sum.zero_sum = true;
  const double optimum = -0.99 - 0.01 * std::sqrt(0.5);
  for (const auto& [p, copies] : {std::pair{plain, 1.0}, std::pair{zero_sum, 2.0}}) {
    SCOPED_TRACE(p.zero_sum ? "zero sum" : "plain");
    const QclpResult result = SolveQclp(p);
    EXPECT_NEAR(result.objective_value, copies * optimum, 1e-14);
    EXPECT_NEAR(result.w[1], std::sqrt(0.5), 1e-14);
    EXPECT_GT(result.ball_multiplier, 0.0);
    EXPECT_LE(Infeasibility(p, result.w), 1e-12);
    EXPECT_LE(KktResidual(p, result), 1e-12);
  }
}

TEST(QclpTest, DegenerateHalfspacesAreCertified) {
  // On the box ∩ {Σw = 0}, uᵀw = 0.5·w_2 − Σw <= 0.5 = b: the first halfspace
  // holds with equality wherever w_2 = 1, so along the whole regularised path
  // uᵀw − b is 0 up to rounding and every λ in an interval is a multiplier.
  // The optimum (−1/2 + √⅛, −1/2 − √⅛, 1) has the ball binding.
  QclpProblem tight;
  tight.objective = {1.3, 1.53, -0.13};
  tight.halfspace_u = {-1.0, -1.0, -0.5};
  tight.halfspace_offset = 0.5;
  tight.ball_radius_sq = 1.75;
  tight.zero_sum = true;
  // Tied costs: the LP's optimal face {(x, −1 − x, 1)} meets the ball only at
  // its point nearest 0, (−1/2, −1/2, 1), which lies on the sphere; the
  // regularised minimisers reach it at the t where w_2 reaches 1.
  QclpProblem tangent;
  tangent.objective = {0.81, 0.81, 0.63};
  tangent.halfspace_u = {-0.5, -2.25, -0.25};
  tangent.halfspace_offset = 1.25;
  tangent.ball_radius_sq = 1.5;
  tangent.zero_sum = true;
  const std::pair<QclpProblem, double> cases[] = {
      {tight, -1.545 - 0.23 * std::sqrt(0.125)},
      {tangent, -0.18},
  };
  for (const auto& [p, optimum] : cases) {
    SCOPED_TRACE("c_0 = " + std::to_string(p.objective[0]));
    const QclpResult result = SolveQclp(p);
    EXPECT_NEAR(result.objective_value, optimum, 1e-14);
    EXPECT_EQ(result.w[2], 1.0);
    EXPECT_LE(Infeasibility(p, result.w), 1e-12);
    EXPECT_LE(KktResidual(p, result), 1e-12);
  }
}

TEST(QclpTest, HalfspaceBlendThatCancelsToZeroStaysInside) {
  // The halfspace binds at w = 0, between the LP vertex −0.5 and the λ-shifted
  // vertex 2. The blend 2 + θ·(−2.5) with θ = 0.8 rounded cancels to −1.1e-16,
  // where uᵀw = 4.1e-13 > b: a violation of 1 relative to the terms of uᵀw,
  // which are themselves that small.
  QclpProblem p;
  p.objective = {59.0};
  p.halfspace_u = {-3706.0};
  p.halfspace_offset = 0.0;
  p.box_lo = -0.5;
  p.box_hi = 2.0;
  p.ball_radius_sq = 1.0;
  const QclpResult result = SolveQclp(p);
  EXPECT_LE(p.halfspace_u[0] * result.w[0], p.halfspace_offset);
  EXPECT_LE(Infeasibility(p, result.w), 1e-12);
  EXPECT_LE(KktResidual(p, result), 1e-12);
}

TEST(QclpTest, SumMultiplierRoundingOnAWeightWithoutTerms) {
  // w_1 has c_1 = u_1 = 0, so its stationarity residual is ν alone. The exact
  // ν is 0; the solver's ν (2.8e-17) carries the rounding of the terms it is
  // solved from.
  QclpProblem p;
  p.objective = {-0.42, 0.0};
  p.halfspace_u = {0.75, 0.0};
  p.halfspace_offset = 0.25;
  p.ball_radius_sq = 1.75;
  p.zero_sum = true;
  const QclpResult result = SolveQclp(p);
  EXPECT_LE(Infeasibility(p, result.w), 1e-12);
  EXPECT_LE(KktResidual(p, result), 1e-12);
}

TEST(QclpDeathTest, InfeasibleHalfspaceAborts) {
  // On [-1, 1]² ∩ {Σw = 0}, uᵀw = 2·w_0 >= -2: no point has uᵀw <= -3.
  QclpProblem p;
  p.objective = {1.0, -1.0};
  p.halfspace_u = {1.0, -1.0};
  p.halfspace_offset = -3.0;
  p.ball_radius_sq = 2.0;
  p.zero_sum = true;
  EXPECT_DEATH(SolveQclp(p), "QCLP infeasible");
}

// Exhaustive check on a 2-D grid across several random problems.
class QclpGridSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QclpGridSweep, NearGridOptimum) {
  Rng rng(GetParam());
  QclpProblem p;
  p.objective = {rng.Normal(), rng.Normal()};
  p.halfspace_u = {rng.Normal(), rng.Normal()};
  p.ball_radius_sq = 1.2;
  p.halfspace_offset = 0.15;
  const QclpResult result = SolveQclp(p);

  double grid_best = 1e9;
  constexpr int kSteps = 400;
  for (int i = 0; i <= kSteps; ++i) {
    for (int j = 0; j <= kSteps; ++j) {
      std::vector<double> w{-1.0 + 2.0 * i / kSteps, -1.0 + 2.0 * j / kSteps};
      if (!IsFeasible(p, w, 0.0)) continue;
      grid_best = std::min(grid_best, p.objective[0] * w[0] + p.objective[1] * w[1]);
    }
  }
  EXPECT_LE(result.objective_value, grid_best + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Problems, QclpGridSweep,
                         ::testing::Values(21ull, 22ull, 23ull, 24ull, 25ull));

// The randomized sweep against the oracle: n from 1 to 500, c scaled over
// 1e-3..1e3, zero-sum on and off, the halfspace absent, inactive or binding,
// the ball active or inactive, and c = 0.
enum class Halfspace { kAbsent, kInactive, kBinding };

struct SweepCase {
  int n;
  double scale;
  bool zero_sum;
  Halfspace halfspace;
  bool ball_active;
  bool zero_objective;
};

std::string Describe(const SweepCase& s) {
  static const char* kHalfspace[] = {"absent", "inactive", "binding"};
  return "n=" + std::to_string(s.n) + " scale=" + std::to_string(s.scale) +
         " zero_sum=" + std::to_string(s.zero_sum) +
         " halfspace=" + kHalfspace[static_cast<int>(s.halfspace)] +
         " ball_active=" + std::to_string(s.ball_active) +
         " zero_objective=" + std::to_string(s.zero_objective);
}

QclpProblem MakeProblem(const SweepCase& s, Rng* rng) {
  QclpProblem p;
  p.zero_sum = s.zero_sum;
  // Mostly the FR box; every third problem an asymmetric one.
  if (rng->UniformInt(3) == 0) {
    p.box_lo = -0.5;
    p.box_hi = 2.0;
  }
  p.objective.resize(s.n);
  for (double& c : p.objective) c = s.zero_objective ? 0.0 : s.scale * rng->Normal();
  const double corner_sq = std::max(p.box_lo * p.box_lo, p.box_hi * p.box_hi);
  // An inactive ball holds the whole box; an active one a fraction of it.
  p.ball_radius_sq = (s.ball_active ? rng->Uniform(0.05, 0.5) : 1.0) * s.n * corner_sq;
  if (s.halfspace != Halfspace::kAbsent) {
    // Utility correlated against the objective, as in FR, so lowering cᵀw
    // raises uᵀw; the offset is the FR budget β·Σu⁺ (w = 0 stays feasible).
    p.halfspace_u.resize(s.n);
    double positive = 0.0, magnitude = 0.0;
    for (int i = 0; i < s.n; ++i) {
      const double c = s.zero_objective ? 0.0 : p.objective[i] / s.scale;
      p.halfspace_u[i] = 100.0 * s.scale * (rng->Normal() - 0.8 * c);
      positive += std::max(0.0, p.halfspace_u[i]);
      magnitude += std::fabs(p.halfspace_u[i]);
    }
    p.halfspace_offset = s.halfspace == Halfspace::kBinding
                             ? 0.05 * positive
                             : 2.0 * magnitude * std::sqrt(corner_sq) + 1.0;
  }
  return p;
}

TEST(QclpOracleSweep, ExactDualMatchesOrBeatsProjectedOracle) {
  const int kSizes[] = {1, 2, 3, 5, 8, 13, 34, 89, 140};
  const double kScales[] = {1e-3, 1.0, 1e3};
  std::vector<SweepCase> cases;
  for (int k = 0; k < 36; ++k) {
    cases.push_back({kSizes[k % 9], kScales[k / 12], k % 2 == 0,
                     static_cast<Halfspace>((k / 2) % 3), (k / 6) % 2 == 0,
                     k % 13 == 12});
  }
  // The oracle's cost grows with n: the largest sizes run the FR shape (zero
  // sum, binding halfspace, active ball) and its opposite.
  cases.push_back({233, 1e3, true, Halfspace::kBinding, true, false});
  cases.push_back({500, 1.0, true, Halfspace::kBinding, true, false});
  cases.push_back({500, 1e-3, false, Halfspace::kAbsent, false, false});
  Rng rng(1009);
  int problems = 0, ball_active = 0, halfspace_binding = 0;
  for (const SweepCase& s : cases) {
    const QclpProblem p = MakeProblem(s, &rng);
    const QclpResult exact = SolveQclp(p);
    const QclpResult oracle = SolveProjectedOracle(p);
    SCOPED_TRACE(Describe(s));
    ++problems;
    ASSERT_EQ(exact.w.size(), static_cast<size_t>(s.n));
    EXPECT_LE(Infeasibility(p, exact.w), 1e-10);
    EXPECT_LE(KktResidual(p, exact), 1e-10);
    EXPECT_DOUBLE_EQ(exact.objective_value, Objective(p.objective, exact.w));
    const std::vector<double> oracle_w = PullIntoBallAndHalfspace(p, oracle.w);
    ASSERT_LE(Infeasibility(p, oracle_w), 1e-10);
    EXPECT_LE(exact.objective_value,
              Objective(p.objective, oracle_w) + 1e-12 * std::fabs(exact.objective_value))
        << "oracle " << oracle.objective_value;
    if (s.zero_objective) {
      EXPECT_EQ(exact.objective_value, 0.0);
    }
    if (exact.ball_multiplier > 0.0) ++ball_active;
    if (exact.halfspace_multiplier > 0.0) ++halfspace_binding;
  }
  // The sweep reaches both branches of each constraint.
  EXPECT_GT(ball_active, 0);
  EXPECT_LT(ball_active, problems);
  EXPECT_GT(halfspace_binding, 0);
}

TEST(LiLiuLpTest, SortAndFillMatchesOracle) {
  // Odd n, tied costs and n = 1: the closed form is optimal (never above the
  // oracle, which solves the same LP with a ball that holds the whole box)
  // and breaks ties by index.
  const std::vector<std::vector<double>> objectives = {
      {0.7},                            // n = 1: w = 0
      {1.0, -0.5, 0.25},                // odd: middle weight 0
      {3.0, -1.0, 2.0, 0.5, -2.5, 0.0, 1.5},
      {1.0, 1.0, 1.0, 1.0},             // all tied
      {0.5, -1.0, 0.5, 0.5, -1.0},      // ties across the cut
  };
  const std::vector<std::vector<double>> expected = {
      {0.0},
      {-1.0, 1.0, 0.0},
      {-1.0, 1.0, -1.0, 0.0, 1.0, 1.0, -1.0},
      {1.0, 1.0, -1.0, -1.0},
      {0.0, 1.0, -1.0, -1.0, 1.0},
  };
  for (size_t k = 0; k < objectives.size(); ++k) {
    SCOPED_TRACE("objective " + std::to_string(k));
    const QclpResult lp = SolveLiLiuLp(objectives[k]);
    EXPECT_EQ(lp.w, expected[k]);
    QclpProblem box_only;
    box_only.objective = objectives[k];
    box_only.ball_radius_sq = static_cast<double>(objectives[k].size());
    box_only.zero_sum = true;
    EXPECT_LE(KktResidual(box_only, lp), 1e-15);
    EXPECT_LE(lp.objective_value,
              SolveProjectedOracle(box_only).objective_value + 1e-12);
    // SolveQclp takes the same vertex, except that a constant objective
    // (every feasible point optimal) gets the feasible point nearest 0.
    const bool constant = std::all_of(objectives[k].begin(), objectives[k].end(),
                                      [&](double c) { return c == objectives[k][0]; });
    EXPECT_EQ(SolveQclp(box_only).w,
              constant ? std::vector<double>(objectives[k].size(), 0.0) : lp.w);
  }
}

}  // namespace
}  // namespace ppfr::solver
