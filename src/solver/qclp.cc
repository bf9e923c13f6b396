#include "solver/qclp.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "common/check.h"

namespace ppfr::solver {
namespace {

// A residual within 16 ulps of the magnitude of its terms is at the rounding
// floor of its evaluation: no root step can improve on it.
constexpr double kRoundingFloor = 16.0 * std::numeric_limits<double>::epsilon();
constexpr double kInf = std::numeric_limits<double>::infinity();
// Illinois or cutting-plane steps per root: the safeguarded Illinois halves
// its bracket at least 150 times within them.
constexpr int kMaxRootSteps = 300;
constexpr int kMaxBracketSteps = 200;  // doublings or halvings per bracket

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

// A monotone function's value at a point and the rounding floor of that
// evaluation. A point is on the feasible side when its value does not exceed
// the floor: a constraint that holds to rounding holds.
struct Residual {
  double value = 0.0;
  double floor = 0.0;
  bool Inside() const { return value <= floor; }
};

// Bracketed Illinois (modified regula falsi) for a monotone f with x_in on
// the feasible side and x_out off it. Returns the last point evaluated on the
// feasible side, once f there reaches its rounding floor or the bracket
// closes to adjacent doubles. The secant can creep along a kink or a plateau
// of f; a step that finds the bracket no narrower than half its width two
// steps before bisects instead, so the bracket at least halves every other
// step.
template <typename F>
double IllinoisRoot(const F& f, double x_in, Residual r_in, double x_out,
                    double f_out) {
  double f_in = r_in.value;  // the secant runs on the Illinois-weighted ends
  int last_side = 0;
  double width_1 = kInf, width_2 = kInf;  // the bracket one and two steps ago
  for (int step = 0; r_in.value < -r_in.floor; ++step) {
    PPFR_CHECK_LT(step, kMaxRootSteps) << "QCLP: a multiplier's root did not converge";
    const double lo = std::min(x_in, x_out), hi = std::max(x_in, x_out);
    double x = x_in - f_in * (x_out - x_in) / (f_out - f_in);
    if (!(x > lo && x < hi) || hi - lo > 0.5 * width_2) x = 0.5 * (lo + hi);
    if (!(x > lo && x < hi)) break;
    width_2 = width_1;
    width_1 = hi - lo;
    const Residual r = f(x);
    if (r.Inside()) {
      x_in = x;
      r_in = r;
      f_in = r.value;
      if (last_side < 0) f_out *= 0.5;
      last_side = -1;
    } else {
      x_out = x;
      f_out = r.value;
      if (last_side > 0) f_in *= 0.5;
      last_side = 1;
    }
  }
  return x_in;
}

// A Lagrangian minimiser over the box and its halfspace and sum multipliers.
struct DualPoint {
  std::vector<double> w;
  double lambda = 0.0;
  double nu = 0.0;
};

class DualSolver {
 public:
  explicit DualSolver(const QclpProblem& problem)
      : p_(problem),
        n_(problem.objective.size()),
        has_halfspace_(!problem.halfspace_u.empty()),
        a_(problem.objective),
        order_(n_),
        scratch_(n_) {
    PPFR_CHECK_GT(n_, 0u);
    if (has_halfspace_) {
      PPFR_CHECK_EQ(p_.halfspace_u.size(), n_);
    }
    PPFR_CHECK_LE(p_.box_lo, p_.box_hi);
    PPFR_CHECK_GE(p_.ball_radius_sq, 0.0);
    PPFR_CHECK(!p_.zero_sum || (p_.box_lo <= 0.0 && p_.box_hi >= 0.0))
        << "QCLP infeasible: no point of the box sums to 0";
    std::iota(order_.begin(), order_.end(), 0);
    cur_.w.resize(n_);
  }

  QclpResult Solve() {
    DualPoint point;
    double mu = 0.0;
    if (p_.ball_radius_sq == 0.0) {
      point.w.assign(n_, 0.0);  // the ball's only point
      PPFR_CHECK(IsFeasible(p_, point.w, 0.0))
          << "QCLP infeasible: w = 0 violates the linear constraints";
    } else if (ConstantObjective()) {
      // Every feasible point is optimal: return the one nearest 0 (the
      // regularised minimiser at any t), certified by multipliers that
      // cancel c.
      SolveHalfspace(1.0);
      point.w = cur_.w;
      point.nu = p_.zero_sum ? -p_.objective[0] : 0.0;
      PPFR_CHECK_LE(SquaredNorm(point.w), p_.ball_radius_sq)
          << "QCLP infeasible: the ball misses the linear constraints";
    } else {
      SolveLp(&point);
      if (SquaredNorm(point.w) > p_.ball_radius_sq) mu = SolveBall(&point);
    }
    return Result(std::move(point), mu);
  }

  // The μ = 0 branch: min cᵀw over the box ∩ {Σw = 0} ∩ {uᵀw <= b}. With a
  // halfspace, λ maximises the concave piecewise-linear dual
  // φ(λ) = min_w (c + λu)ᵀw − λb, whose pieces are the lines of LP vertices;
  // each cutting-plane step intersects the lines of the two bracketing
  // vertices until the vertex there lies on both (the kink). The optimum is
  // then the convex combination of the two vertices with uᵀw = b.
  void SolveLp(DualPoint* out) {
    out->w.resize(n_);
    out->lambda = 0.0;
    out->nu = LpVertex(p_.objective, &out->w);
    if (!has_halfspace_) return;
    const std::vector<double>& c = p_.objective;
    const std::vector<double>& u = p_.halfspace_u;
    const double b = p_.halfspace_offset;
    double slack_a = Dot(u, out->w) - b;
    if (slack_a <= 0.0) return;

    std::vector<double> w_a = out->w, w_b(n_), w_x(n_);
    double lambda_a = 0.0, lambda_b = LambdaScale(), slack_b = 0.0;
    for (int step = 0;; ++step) {
      Shift(lambda_b);
      LpVertex(a_, &w_b);
      slack_b = Dot(u, w_b) - b;
      if (slack_b <= 0.0) break;
      PPFR_CHECK_LT(step, kMaxBracketSteps)
          << "QCLP infeasible: no point of the box satisfies uᵀw <= b";
      lambda_a = lambda_b;
      w_a.swap(w_b);
      slack_a = slack_b;
      lambda_b *= 2.0;
    }
    double lambda = lambda_b, theta = 0.0;
    for (int step = 0; slack_b < 0.0; ++step) {
      PPFR_CHECK_LT(step, kMaxRootSteps) << "QCLP: the LP's cutting plane did not converge";
      // The lines cᵀw + λ(uᵀw − b) of both ends meet at
      // λ = cᵀ(w_b − w_a) / uᵀ(w_a − w_b), summed over the differences.
      double dc = 0.0, du = 0.0, du_magnitude = std::fabs(b);
      for (size_t i = 0; i < n_; ++i) {
        const double d = w_a[i] - w_b[i];
        dc -= c[i] * d;
        du += u[i] * d;
        du_magnitude += std::fabs(u[i]) * std::max(std::fabs(w_a[i]), std::fabs(w_b[i]));
      }
      if (!(du > 0.0)) {
        // uᵀw_a > b > uᵀw_b, so du > 0 save for rounding: both vertices lie
        // on uᵀw = b to rounding, and w_b, optimal at λ_b, is the optimum.
        PPFR_CHECK_LE(slack_a - slack_b, kRoundingFloor * du_magnitude)
            << "QCLP: the LP's cutting plane lost its bracket";
        lambda = lambda_b;
        break;
      }
      lambda = std::clamp(dc / du, lambda_a, lambda_b);
      Shift(lambda);
      LpVertex(a_, &w_x);
      // The line of w_a minus φ at λ (>= 0), against the rounding of a_.
      double gap = 0.0, magnitude = 0.0;
      for (size_t i = 0; i < n_; ++i) {
        const double d = w_a[i] - w_x[i];
        gap += a_[i] * d;
        magnitude += (std::fabs(c[i]) + lambda * std::fabs(u[i])) * std::fabs(d);
      }
      if (gap <= kRoundingFloor * magnitude) {
        // Both ends are optimal at the kink λ: combine them onto uᵀw = b.
        theta = -slack_b / (slack_a - slack_b);
        break;
      }
      const double slack_x = Dot(u, w_x) - b;
      if (slack_x > 0.0) {
        lambda_a = lambda;
        w_a.swap(w_x);
        slack_a = slack_x;
      } else {
        lambda_b = lambda;
        w_b.swap(w_x);
        slack_b = slack_x;
      }
    }
    for (size_t i = 0; i < n_; ++i) out->w[i] = w_b[i] + theta * (w_a[i] - w_b[i]);
    // w lies on the optimal face at λ, where every LP-optimal sum multiplier
    // certifies every optimal point: take the vertex's.
    Shift(lambda);
    out->lambda = lambda;
    out->nu = LpVertex(a_, &w_x);
  }

  QclpResult Result(DualPoint point, double mu) const {
    QclpResult result;
    result.objective_value = Dot(p_.objective, point.w);
    result.w = std::move(point.w);
    result.iterations = evaluations_;
    result.ball_multiplier = mu;
    result.halfspace_multiplier = point.lambda;
    result.sum_multiplier = point.nu;
    return result;
  }

 private:
  static double SquaredNorm(const std::vector<double>& w) { return Dot(w, w); }

  bool ConstantObjective() const {
    const double c0 = p_.zero_sum ? p_.objective[0] : 0.0;
    return std::all_of(p_.objective.begin(), p_.objective.end(),
                       [c0](double c) { return c == c0; });
  }

  // The λ at which λu starts to compete with c.
  double LambdaScale() const {
    double c_max = 0.0, u_max = 0.0;
    for (size_t i = 0; i < n_; ++i) {
      c_max = std::max(c_max, std::fabs(p_.objective[i]));
      u_max = std::max(u_max, std::fabs(p_.halfspace_u[i]));
    }
    return c_max > 0.0 && u_max > 0.0 ? c_max / u_max : 1.0;
  }

  // The LP multipliers of `lp` price weight i at c_i + λu_i + ν, and an LP
  // optimum holds a weight with a positive (negative) price at box_lo
  // (box_hi). A regularised minimiser on the optimal face can sit a rounding
  // error short of that bound, when t is exactly where the weight reaches it:
  // move such weights onto their bound.
  void SnapToPricedBounds(const DualPoint& lp, std::vector<double>* w) const {
    const double lo = p_.box_lo, hi = p_.box_hi;
    const double near = kRoundingFloor * std::max(std::fabs(lo), std::fabs(hi));
    for (size_t i = 0; i < n_; ++i) {
      const double u = has_halfspace_ ? p_.halfspace_u[i] : 0.0;
      const double price = p_.objective[i] + lp.lambda * u + lp.nu;
      double& x = (*w)[i];
      if (price > 0.0 && x - lo <= near) x = lo;
      if (price < 0.0 && hi - x <= near) x = hi;
    }
  }

  // a_ = c + λu.
  void Shift(double lambda) {
    for (size_t i = 0; i < n_; ++i) {
      a_[i] = p_.objective[i] + lambda * p_.halfspace_u[i];
    }
  }

  // A vertex minimising aᵀw over the box (∩ {Σw = 0} when zero_sum). With
  // zero_sum every weight starts at box_lo and weights rise to box_hi in
  // ascending a, the lower index first among equal a, until the sum is 0.
  // Without it, weights with a_i = 0 take the box point nearest 0. Returns
  // the sum multiplier: −a of the last weight raised.
  double LpVertex(const std::vector<double>& a, std::vector<double>* w) {
    ++evaluations_;
    const double lo = p_.box_lo, hi = p_.box_hi;
    if (!p_.zero_sum) {
      for (size_t i = 0; i < n_; ++i) {
        (*w)[i] = a[i] > 0.0 ? lo : a[i] < 0.0 ? hi : std::clamp(0.0, lo, hi);
      }
      return 0.0;
    }
    std::sort(order_.begin(), order_.end(), [&a](int x, int y) {
      return a[x] < a[y] || (a[x] == a[y] && x < y);
    });
    std::fill(w->begin(), w->end(), lo);
    double deficit = -static_cast<double>(n_) * lo;
    int marginal = order_[0];
    for (size_t r = 0; r < n_ && deficit > 0.0; ++r) {
      marginal = order_[r];
      if (deficit >= hi - lo) {
        (*w)[marginal] = hi;
        deficit -= hi - lo;
      } else {
        (*w)[marginal] = lo + deficit;
        deficit = 0.0;
      }
    }
    return -a[marginal];
  }

  // The Lagrangian minimiser at t = 1/(2μ) and costs a_:
  // w = clip(−t(a_ + ν)), with ν making Σw = 0. Returns ν.
  double MinimizeRegularized(double t, std::vector<double>* w) {
    ++evaluations_;
    const double nu = p_.zero_sum ? SumRoot(t) : 0.0;
    for (size_t i = 0; i < n_; ++i) {
      (*w)[i] = std::clamp(-t * (a_[i] + nu), p_.box_lo, p_.box_hi);
    }
    return nu;
  }

  // Σ_i clip(−t(a_i + ν), lo, hi) is continuous, piecewise linear and
  // non-increasing in ν: weight i leaves hi at ν = −a_i − hi/t and reaches lo
  // at ν = −a_i − lo/t. With a_ sorted descending both breakpoint sequences
  // ascend, so one merge walks the pieces left to right until the sum turns
  // non-positive; the root is then solved on that linear piece.
  double SumRoot(double t) {
    std::sort(order_.begin(), order_.end(), [this](int x, int y) { return a_[x] > a_[y]; });
    const double lo = p_.box_lo, hi = p_.box_hi;
    const double free_at = hi / t, lo_at = lo / t;
    size_t freed = 0, lowered = 0;  // ranks < freed left hi; ranks < lowered reached lo
    double free_sum = 0.0;          // Σ a over ranks [lowered, freed)
    const auto bound_sum = [&] {
      return static_cast<double>(n_ - freed) * hi + static_cast<double>(lowered) * lo;
    };
    double prev = -kInf, next = 0.0;
    for (;;) {
      PPFR_CHECK_LT(lowered, n_) << "QCLP infeasible: no point of the box sums to 0";
      const bool frees =
          freed < n_ && (lowered == freed ||
                         -a_[order_[freed]] - free_at <= -a_[order_[lowered]] - lo_at);
      next = frees ? -a_[order_[freed]] - free_at : -a_[order_[lowered]] - lo_at;
      const double free_count = static_cast<double>(freed - lowered);
      if (bound_sum() - t * (free_sum + free_count * next) <= 0.0) break;
      if (frees) {
        free_sum += a_[order_[freed++]];
      } else {
        free_sum -= a_[order_[lowered++]];
      }
      prev = next;
    }
    if (freed == lowered) return next;
    free_sum = 0.0;  // resummed: the running sum carries cancellation
    for (size_t r = lowered; r < freed; ++r) free_sum += a_[order_[r]];
    const double nu =
        (bound_sum() / t - free_sum) / static_cast<double>(freed - lowered);
    return std::clamp(nu, prev, next);
  }

  // Solves λ for fixed t into cur_, bracketing from the last λ found:
  // h(λ) = uᵀw − b is non-increasing in λ.
  void SolveHalfspace(double t) {
    if (!has_halfspace_) {
      cur_.nu = MinimizeRegularized(t, &cur_.w);
      return;
    }
    const std::vector<double>& u = p_.halfspace_u;
    const double b = p_.halfspace_offset;
    const auto h = [&](double lambda) {
      Shift(lambda);
      const double nu = MinimizeRegularized(t, &scratch_);
      double dot = 0.0, magnitude = std::fabs(b);
      for (size_t i = 0; i < n_; ++i) {
        const double term = u[i] * scratch_[i];
        dot += term;
        magnitude += std::fabs(term);
      }
      const Residual r{dot - b, kRoundingFloor * magnitude};
      if (r.Inside()) {
        cur_.w.swap(scratch_);
        cur_.lambda = lambda;
        cur_.nu = nu;
      }
      return r;
    };
    const Residual at_zero = h(0.0);
    if (at_zero.Inside()) return;
    double x_out = 0.0, f_out = at_zero.value;
    double x = lambda_hint_ > 0.0 ? lambda_hint_ : LambdaScale();
    Residual r = h(x);
    for (int step = 0; !r.Inside(); ++step) {
      PPFR_CHECK_LT(step, kMaxBracketSteps)
          << "QCLP infeasible: no point of the box satisfies uᵀw <= b";
      x_out = x;
      f_out = r.value;
      x *= 2.0;
      r = h(x);
    }
    lambda_hint_ = IllinoisRoot(h, x, r, x_out, f_out);
  }

  // Given the LP optimum *point outside the ball, returns μ and leaves the
  // optimum in *point. t = 1/(2μ) is the root of ‖w(t)‖ − √R, where w(t)
  // minimises cᵀw + ‖w‖²/(2t) over the box and the linear constraints;
  // ‖w(t)‖ is non-decreasing in t. w(t) can stall at a vertex inside the
  // ball over a long range of t before it moves on, so the ball counts as
  // inactive (μ = 0) only once w(t) is inside it and LP-optimal: the LP's
  // optimal face then reaches into the ball away from the index-ordered
  // vertex (tied costs), and the LP multipliers certify w(t).
  double SolveBall(DualPoint* point) {
    const double radius = std::sqrt(p_.ball_radius_sq);
    const std::vector<double> w_lp = point->w;
    DualPoint inside;
    const auto f = [&](double t) {
      SolveHalfspace(t);
      const Residual r{std::sqrt(SquaredNorm(cur_.w)) - radius,
                       kRoundingFloor * radius};
      if (r.Inside()) inside = cur_;
      return r;
    };
    // cᵀw exceeds the LP optimum cᵀw_lp by no more than the rounding of both
    // objectives and of the constraint terms the LP multipliers tie them to.
    const auto lp_optimal = [&](const std::vector<double>& w) {
      double excess = 0.0, magnitude = 0.0;
      for (size_t i = 0; i < n_; ++i) {
        const double u = has_halfspace_ ? p_.halfspace_u[i] : 0.0;
        excess += p_.objective[i] * (w[i] - w_lp[i]);
        magnitude += (std::fabs(p_.objective[i]) + point->lambda * std::fabs(u) +
                      std::fabs(point->nu)) *
                     (std::fabs(w[i]) + std::fabs(w_lp[i]));
      }
      return excess <= kRoundingFloor * magnitude;
    };
    // Start where the unclipped minimiser −t(c − mean c) reaches the sphere.
    double mean = 0.0, spread = 0.0;
    if (p_.zero_sum) {
      for (double c : p_.objective) mean += c;
      mean /= static_cast<double>(n_);
    }
    for (double c : p_.objective) spread += (c - mean) * (c - mean);
    double t = radius / std::sqrt(spread);
    Residual r = f(t);
    double x_out = 0.0, f_out = 0.0;
    if (r.Inside()) {
      for (int step = 0;; ++step) {
        if (lp_optimal(inside.w)) {
          SnapToPricedBounds(*point, &inside.w);
          point->w = std::move(inside.w);
          return 0.0;
        }
        PPFR_CHECK_LT(step, kMaxBracketSteps) << "QCLP: the ball multiplier has no bracket";
        const Residual grown = f(2.0 * t);
        if (!grown.Inside()) {
          x_out = 2.0 * t;
          f_out = grown.value;
          break;
        }
        t *= 2.0;
        r = grown;
      }
    } else {
      for (int step = 0; !r.Inside(); ++step) {
        PPFR_CHECK_LT(step, kMaxBracketSteps)
            << "QCLP infeasible: the ball misses the linear constraints";
        x_out = t;
        f_out = r.value;
        t *= 0.5;
        r = f(t);
      }
    }
    const double root = IllinoisRoot(f, t, r, x_out, f_out);
    *point = std::move(inside);
    return 0.5 / root;
  }

  const QclpProblem& p_;
  const size_t n_;
  const bool has_halfspace_;
  std::vector<double> a_;  // c + λu at the multiplier being evaluated
  std::vector<int> order_;
  std::vector<double> scratch_;
  DualPoint cur_;  // SolveHalfspace's result
  double lambda_hint_ = 0.0;
  int evaluations_ = 0;
};

}  // namespace

QclpResult SolveQclp(const QclpProblem& problem) {
  return DualSolver(problem).Solve();
}

QclpResult SolveLiLiuLp(const std::vector<double>& objective) {
  QclpProblem problem;
  problem.objective = objective;
  problem.zero_sum = true;
  DualSolver solver(problem);
  DualPoint point;
  solver.SolveLp(&point);
  return solver.Result(std::move(point), 0.0);
}

bool IsFeasible(const QclpProblem& problem, const std::vector<double>& w,
                double slack) {
  double norm_sq = 0.0;
  for (double x : w) {
    if (x < problem.box_lo - slack || x > problem.box_hi + slack) return false;
    norm_sq += x * x;
  }
  if (norm_sq > problem.ball_radius_sq + slack) return false;
  if (!problem.halfspace_u.empty()) {
    double dot = 0.0;
    for (size_t i = 0; i < w.size(); ++i) dot += problem.halfspace_u[i] * w[i];
    if (dot > problem.halfspace_offset + slack) return false;
  }
  if (problem.zero_sum) {
    double sum = 0.0;
    for (double x : w) sum += x;
    if (std::fabs(sum) > slack * static_cast<double>(w.size())) return false;
  }
  return true;
}

}  // namespace ppfr::solver
