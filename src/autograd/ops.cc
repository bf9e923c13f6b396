#include "autograd/ops.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "la/backend.h"

namespace ppfr::ag {
namespace {

// Grain for backend-routed elementwise loops: below this many flat elements
// (or the row-count equivalent) threading doesn't pay, matching the cutoffs
// inside the parallel backend's own kernels.
constexpr int64_t kApplyGrain = 32 * 1024;

int64_t RowGrain(int cols) { return std::max<int64_t>(1, kApplyGrain / std::max(cols, 1)); }

// Creates the output node; `backward(tape, out_grad)` routes gradients to
// parents. Reduces the per-op boilerplate of discovering the output id. The
// output gradient is read through GradView so the node's own dirty/row
// bookkeeping is untouched; ops that need the row support query it with
// tape.GradRowSupport on their own Var.
template <typename BackwardFn>
Var MakeOp(Tape* tape, la::Matrix value, bool needs_grad, const std::vector<Var>& parents,
           BackwardFn backward) {
  const int out_id = tape->num_nodes();
  return tape->MakeNode(
      std::move(value), needs_grad,
      [out_id, backward](Tape& tp) {
        const la::Matrix& g = tp.GradView(Var{&tp, out_id});
        backward(tp, g);
      },
      parents);
}

bool AnyNeedsGrad(std::initializer_list<Var> vars) {
  for (Var v : vars) {
    if (v.tape->NeedsGrad(v)) return true;
  }
  return false;
}

Tape* CommonTape(std::initializer_list<Var> vars) {
  Tape* tape = nullptr;
  for (Var v : vars) {
    PPFR_CHECK(v.valid());
    if (tape == nullptr) tape = v.tape;
    PPFR_CHECK(v.tape == tape) << "ops must stay on a single tape";
  }
  return tape;
}

// dst.row(r) += scale * g.row(r) for r in rows.
void AxpyRows(la::Matrix* dst, const la::Matrix& g, const std::vector<int>& rows,
              double scale) {
  for (int r : rows) {
    double* d = dst->row(r);
    const double* s = g.row(r);
    for (int c = 0; c < g.cols(); ++c) d[c] += scale * s[c];
  }
}

// Elementwise unary op helper: out = f(a), da += g * f'(a). The forward loop
// is fanned out through the backend; the backward stays on the gradient's
// nonzero-row support when one is known (seeded influence passes), otherwise
// it sweeps the flat buffer, skipping exact-zero gradient entries — both
// paths add the same values, because a skipped entry only ever contributes
// an exact ±0 product.
template <typename F, typename DF>
Var UnaryElementwise(Var a, F f, DF df) {
  Tape* tape = CommonTape({a});
  const la::Matrix& av = a.value();
  la::Matrix out = tape->NewValue(av.rows(), av.cols(), /*zero_init=*/false);
  {
    const double* in = av.data();
    double* o = out.data();
    la::ActiveBackend().Apply(av.size(), kApplyGrain, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) o[i] = f(in[i]);
    });
  }
  const bool needs = tape->NeedsGrad(a);
  const int out_id = tape->num_nodes();
  return MakeOp(tape, std::move(out), needs, {a},
                [a, df, out_id](Tape& tp, const la::Matrix& g) {
                  if (!tp.NeedsGrad(a)) return;
                  const la::Matrix& av = tp.Value(a);
                  const std::vector<int>* supp = tp.GradRowSupport(Var{&tp, out_id});
                  if (supp != nullptr) {
                    la::Matrix& da = tp.GradRefPartial(a, *supp);
                    for (int r : *supp) {
                      const double* gr = g.row(r);
                      const double* ar = av.row(r);
                      double* dr = da.row(r);
                      for (int c = 0; c < g.cols(); ++c) {
                        if (gr[c] == 0.0) continue;
                        dr[c] += gr[c] * df(ar[c]);
                      }
                    }
                    return;
                  }
                  la::Matrix& da = tp.GradRef(a);
                  const double* gd = g.data();
                  const double* ad = av.data();
                  double* dd = da.data();
                  la::ActiveBackend().Apply(
                      av.size(), kApplyGrain, [&](int64_t lo, int64_t hi) {
                        for (int64_t i = lo; i < hi; ++i) {
                          if (gd[i] == 0.0) continue;
                          dd[i] += gd[i] * df(ad[i]);
                        }
                      });
                });
}

}  // namespace

std::shared_ptr<const SparseOperand> MakeSparseOperand(la::CsrMatrix m, bool symmetric) {
  auto op = std::make_shared<SparseOperand>();
  op->symmetric = symmetric;
  op->mat = std::move(m);
  if (!symmetric) op->mat_t = op->mat.Transposed();
  return op;
}

Var MatMul(Var a, Var b) {
  Tape* tape = CommonTape({a, b});
  const la::Matrix& av = a.value();
  const la::Matrix& bv = b.value();
  PPFR_CHECK_EQ(av.cols(), bv.rows());
  la::Matrix out = tape->NewValue(av.rows(), bv.cols(), /*zero_init=*/false);
  la::ActiveBackend().Gemm(av, bv, &out);
  const bool needs = AnyNeedsGrad({a, b});
  const int out_id = tape->num_nodes();
  return MakeOp(
      tape, std::move(out), needs, {a, b},
      [a, b, out_id](Tape& tp, const la::Matrix& g) {
        const std::vector<int>* supp = tp.GradRowSupport(Var{&tp, out_id});
        if (tp.NeedsGrad(a)) {
          if (supp != nullptr) {
            // Rows of da mirror the gradient's row support exactly.
            la::GemmTransBAccumRows(g, tp.Value(b), &tp.GradRefPartial(a, *supp),
                                    *supp);
          } else {
            tp.GradRef(a).Axpy(1.0, la::MatMulTransB(g, tp.Value(b)));
          }
        }
        if (tp.NeedsGrad(b)) {
          if (supp != nullptr) {
            // db = aᵀ g is dense but only support rows contribute.
            la::GemmTransAAccumRows(tp.Value(a), g, &tp.GradRef(b), *supp);
          } else {
            tp.GradRef(b).Axpy(1.0, la::MatMulTransA(tp.Value(a), g));
          }
        }
      });
}

Var CsrMatMulLanes(const std::shared_ptr<const la::CsrMatrix>& x, Var w, int lanes,
                   int rows) {
  Tape* tape = CommonTape({w});
  PPFR_CHECK(x != nullptr);
  PPFR_CHECK_GE(rows, 0);
  PPFR_CHECK_LE(rows, x->rows());
  const la::Matrix& wv = w.value();
  la::Matrix out = tape->NewValue(rows, wv.cols(), /*zero_init=*/false);
  la::CsrGemmLanes(*x, wv, &out, lanes);
  const bool needs = tape->NeedsGrad(w);
  const int out_id = tape->num_nodes();
  return MakeOp(tape, std::move(out), needs, {w},
                [x, w, lanes, out_id](Tape& tp, const la::Matrix& g) {
                  const std::vector<int>* supp = tp.GradRowSupport(Var{&tp, out_id});
                  if (supp != nullptr) {
                    la::CsrGemmTransAAccumRows(*x, g, &tp.GradRef(w), *supp);
                  } else {
                    tp.GradRef(w).Axpy(1.0, la::CsrMatMulLanesTransA(*x, g, lanes));
                  }
                });
}

Var MatMulLanes(Var a, Var b, int lanes) {
  if (lanes == 1) return MatMul(a, b);
  Tape* tape = CommonTape({a, b});
  const la::Matrix& av = a.value();
  const la::Matrix& bv = b.value();
  PPFR_CHECK_GE(lanes, 1);
  PPFR_CHECK_EQ(bv.cols() % lanes, 0);
  const bool a_shared = av.cols() == bv.rows();
  PPFR_CHECK(a_shared || av.cols() == bv.rows() * lanes)
      << "MatMulLanes: a is " << av.rows() << "x" << av.cols()
      << ", expected shared k=" << bv.rows() << " or wide k*L=" << bv.rows() * lanes;
  // A lane-shared left operand must be a constant (features, masks): its
  // gradient would reduce over lanes, which the fused replay never needs and
  // whose accumulation order would be a fresh bitwise contract to maintain.
  PPFR_CHECK(!(a_shared && tape->NeedsGrad(a)))
      << "MatMulLanes: lane-shared `a` must not require grad";
  la::Matrix out = tape->NewValue(av.rows(), bv.cols(), /*zero_init=*/false);
  la::ActiveBackend().GemmLanes(av, bv, &out, lanes);
  const bool needs = AnyNeedsGrad({a, b});
  const int out_id = tape->num_nodes();
  return MakeOp(
      tape, std::move(out), needs, {a, b},
      [a, b, lanes, a_shared, out_id](Tape& tp, const la::Matrix& g) {
        const std::vector<int>* supp = tp.GradRowSupport(Var{&tp, out_id});
        if (tp.NeedsGrad(a)) {
          // a is lane-wide here (the shared case is CHECKed grad-free).
          if (supp != nullptr) {
            la::GemmLanesTransBAccumRows(g, tp.Value(b), &tp.GradRefPartial(a, *supp),
                                         *supp, lanes);
          } else {
            tp.GradRef(a).Axpy(1.0, la::MatMulLanesTransB(g, tp.Value(b), lanes));
          }
        }
        if (tp.NeedsGrad(b)) {
          if (supp != nullptr) {
            la::GemmLanesTransAAccumRows(tp.Value(a), g, &tp.GradRef(b), *supp, lanes);
          } else {
            tp.GradRef(b).Axpy(
                1.0, la::MatMulLanesTransA(tp.Value(a), g, lanes, a_shared));
          }
        }
      });
}

Var SpMM(const std::shared_ptr<const SparseOperand>& sp, Var x) {
  Tape* tape = CommonTape({x});
  const la::Matrix& xv = x.value();
  la::Matrix out = tape->NewValue(sp->mat.rows(), xv.cols(), /*zero_init=*/true);
  sp->mat.MultiplyAccum(xv, 1.0, &out);
  const bool needs = tape->NeedsGrad(x);
  const int out_id = tape->num_nodes();
  return MakeOp(
      tape, std::move(out), needs, {x},
      [sp, x, out_id](Tape& tp, const la::Matrix& g) {
        if (!tp.NeedsGrad(x)) return;
        const la::CsrMatrix& at = sp->symmetric ? sp->mat : sp->mat_t;
        const std::vector<int>* supp = tp.GradRowSupport(Var{&tp, out_id});
        if (supp != nullptr) {
          // dx row r is touched iff at(r, c) != 0 for some supported c; in
          // both the symmetric and the explicit-transpose case that is
          // exactly "r appears in row c of sp->mat", so the affected rows
          // are the union of the support rows' neighbour lists.
          // (thread_local scratch: this runs once per seed per SpMM inside
          // the pooled per-node loop, which must stay allocation-free.)
          thread_local std::vector<int> targets;
          targets.clear();
          const std::vector<int64_t>& row_ptr = sp->mat.row_ptr();
          const std::vector<int>& col_idx = sp->mat.col_idx();
          for (int c : *supp) {
            for (int64_t k = row_ptr[c]; k < row_ptr[c + 1]; ++k) {
              targets.push_back(col_idx[k]);
            }
          }
          std::sort(targets.begin(), targets.end());
          targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
          // Mark the supported g rows so the kernel never streams the
          // known-zero rows between them through the cache (thread-local
          // scratch: workers under different arenas get their own).
          thread_local std::vector<uint8_t> g_row_mask;
          if (static_cast<int>(g_row_mask.size()) < g.rows()) {
            g_row_mask.assign(static_cast<size_t>(g.rows()), 0);
          }
          for (int c : *supp) g_row_mask[static_cast<size_t>(c)] = 1;
          at.MultiplyAccumRows(g, 1.0, &tp.GradRefPartial(x, targets), targets,
                               g_row_mask);
          for (int c : *supp) g_row_mask[static_cast<size_t>(c)] = 0;
        } else {
          at.MultiplyAccum(g, 1.0, &tp.GradRef(x));
        }
      });
}

Var SpMM(Tape& tape, const std::shared_ptr<const SparseOperand>& sp,
         const la::CsrMatrix& x) {
  la::Matrix out = tape.NewValue(sp->mat.rows(), x.cols(), /*zero_init=*/true);
  sp->mat.MultiplySparseAccum(x, &out);
  return tape.MakeNode(std::move(out), /*needs_grad=*/false, nullptr, {});
}

namespace {

// Shared body for Add/Sub: out = a + sign*b, with support-aware backward.
Var AddLike(Var a, Var b, double sign) {
  Tape* tape = CommonTape({a, b});
  const la::Matrix& av = a.value();
  const la::Matrix& bv = b.value();
  PPFR_CHECK(av.SameShape(bv));
  la::Matrix out = tape->NewValue(av.rows(), av.cols(), /*zero_init=*/false);
  {
    const double* pa = av.data();
    const double* pb = bv.data();
    double* po = out.data();
    la::ActiveBackend().Apply(av.size(), kApplyGrain, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) po[i] = pa[i] + sign * pb[i];
    });
  }
  const bool needs = AnyNeedsGrad({a, b});
  const int out_id = tape->num_nodes();
  return MakeOp(tape, std::move(out), needs, {a, b},
                [a, b, sign, out_id](Tape& tp, const la::Matrix& g) {
                  const std::vector<int>* supp = tp.GradRowSupport(Var{&tp, out_id});
                  if (tp.NeedsGrad(a)) {
                    if (supp != nullptr) {
                      AxpyRows(&tp.GradRefPartial(a, *supp), g, *supp, 1.0);
                    } else {
                      tp.GradRef(a).Axpy(1.0, g);
                    }
                  }
                  if (tp.NeedsGrad(b)) {
                    if (supp != nullptr) {
                      AxpyRows(&tp.GradRefPartial(b, *supp), g, *supp, sign);
                    } else {
                      tp.GradRef(b).Axpy(sign, g);
                    }
                  }
                });
}

}  // namespace

Var Add(Var a, Var b) { return AddLike(a, b, 1.0); }

Var Sub(Var a, Var b) { return AddLike(a, b, -1.0); }

Var Mul(Var a, Var b) {
  Tape* tape = CommonTape({a, b});
  const la::Matrix& av = a.value();
  const la::Matrix& bv = b.value();
  PPFR_CHECK(av.SameShape(bv));
  la::Matrix out = tape->NewValue(av.rows(), av.cols(), /*zero_init=*/false);
  la::ActiveBackend().Hadamard(av, bv, &out);
  const bool needs = AnyNeedsGrad({a, b});
  const int out_id = tape->num_nodes();
  return MakeOp(
      tape, std::move(out), needs, {a, b},
      [a, b, out_id](Tape& tp, const la::Matrix& g) {
        const la::Matrix& av = tp.Value(a);
        const la::Matrix& bv = tp.Value(b);
        const std::vector<int>* supp = tp.GradRowSupport(Var{&tp, out_id});
        auto accum = [&](Var target, const la::Matrix& other) {
          if (supp != nullptr) {
            la::Matrix& dt = tp.GradRefPartial(target, *supp);
            for (int r : *supp) {
              double* dr = dt.row(r);
              const double* gr = g.row(r);
              const double* orow = other.row(r);
              for (int c = 0; c < g.cols(); ++c) dr[c] += gr[c] * orow[c];
            }
          } else {
            tp.GradRef(target).Axpy(1.0, la::Hadamard(g, other));
          }
        };
        if (tp.NeedsGrad(a)) accum(a, bv);
        if (tp.NeedsGrad(b)) accum(b, av);
      });
}

Var Div(Var a, Var b) {
  Tape* tape = CommonTape({a, b});
  const la::Matrix& av = a.value();
  const la::Matrix& bv = b.value();
  PPFR_CHECK(av.SameShape(bv));
  la::Matrix out = tape->NewValue(av.rows(), av.cols(), /*zero_init=*/false);
  for (int64_t i = 0; i < av.size(); ++i) out.data()[i] = av.data()[i] / bv.data()[i];
  const bool needs = AnyNeedsGrad({a, b});
  return MakeOp(tape, std::move(out), needs, {a, b},
                [a, b](Tape& tp, const la::Matrix& g) {
                  const la::Matrix& av = tp.Value(a);
                  const la::Matrix& bv = tp.Value(b);
                  if (tp.NeedsGrad(a)) {
                    la::Matrix& da = tp.GradRef(a);
                    for (int64_t i = 0; i < av.size(); ++i) {
                      da.data()[i] += g.data()[i] / bv.data()[i];
                    }
                  }
                  if (tp.NeedsGrad(b)) {
                    la::Matrix& db = tp.GradRef(b);
                    for (int64_t i = 0; i < av.size(); ++i) {
                      db.data()[i] -=
                          g.data()[i] * av.data()[i] / (bv.data()[i] * bv.data()[i]);
                    }
                  }
                });
}

Var Neg(Var a) { return Scale(a, -1.0); }

Var Scale(Var a, double s) {
  return UnaryElementwise(
      a, [s](double x) { return s * x; }, [s](double) { return s; });
}

Var AddScalar(Var a, double s) {
  return UnaryElementwise(
      a, [s](double x) { return x + s; }, [](double) { return 1.0; });
}

Var AddRowVec(Var a, Var row) {
  Tape* tape = CommonTape({a, row});
  const la::Matrix& av = a.value();
  const la::Matrix& rv = row.value();
  PPFR_CHECK_EQ(rv.rows(), 1);
  PPFR_CHECK_EQ(rv.cols(), av.cols());
  la::Matrix out = tape->NewValue(av.rows(), av.cols(), /*zero_init=*/false);
  {
    const int cols = av.cols();
    la::ActiveBackend().Apply(av.rows(), RowGrain(cols), [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const double* ar = av.row(static_cast<int>(r));
        double* o = out.row(static_cast<int>(r));
        for (int c = 0; c < cols; ++c) o[c] = ar[c] + rv(0, c);
      }
    });
  }
  const bool needs = AnyNeedsGrad({a, row});
  const int out_id = tape->num_nodes();
  return MakeOp(tape, std::move(out), needs, {a, row},
                [a, row, out_id](Tape& tp, const la::Matrix& g) {
                  const std::vector<int>* supp = tp.GradRowSupport(Var{&tp, out_id});
                  if (tp.NeedsGrad(a)) {
                    if (supp != nullptr) {
                      AxpyRows(&tp.GradRefPartial(a, *supp), g, *supp, 1.0);
                    } else {
                      tp.GradRef(a).Axpy(1.0, g);
                    }
                  }
                  if (tp.NeedsGrad(row)) {
                    la::Matrix& dr = tp.GradRef(row);
                    auto add_row = [&](int r) {
                      const double* gr = g.row(r);
                      for (int c = 0; c < g.cols(); ++c) dr(0, c) += gr[c];
                    };
                    if (supp != nullptr) {
                      for (int r : *supp) add_row(r);
                    } else {
                      for (int r = 0; r < g.rows(); ++r) add_row(r);
                    }
                  }
                });
}

Var ExpandScalar(Var s, int rows, int cols) {
  Tape* tape = CommonTape({s});
  PPFR_CHECK_EQ(s.rows(), 1);
  PPFR_CHECK_EQ(s.cols(), 1);
  la::Matrix out = tape->NewValue(rows, cols, /*zero_init=*/false);
  out.Fill(s.value()(0, 0));
  const bool needs = tape->NeedsGrad(s);
  return MakeOp(tape, std::move(out), needs, {s},
                [s](Tape& tp, const la::Matrix& g) {
                  if (tp.NeedsGrad(s)) tp.GradRef(s)(0, 0) += g.SumAll();
                });
}

Var Relu(Var a) {
  return UnaryElementwise(
      a, [](double x) { return x > 0.0 ? x : 0.0; },
      [](double x) { return x > 0.0 ? 1.0 : 0.0; });
}

Var LeakyRelu(Var a, double slope) {
  return UnaryElementwise(
      a, [slope](double x) { return x > 0.0 ? x : slope * x; },
      [slope](double x) { return x > 0.0 ? 1.0 : slope; });
}

Var Elu(Var a, double alpha) {
  return UnaryElementwise(
      a, [alpha](double x) { return x > 0.0 ? x : alpha * (std::exp(x) - 1.0); },
      [alpha](double x) { return x > 0.0 ? 1.0 : alpha * std::exp(x); });
}

Var Tanh(Var a) {
  return UnaryElementwise(
      a, [](double x) { return std::tanh(x); },
      [](double x) {
        const double t = std::tanh(x);
        return 1.0 - t * t;
      });
}

Var Sigmoid(Var a) {
  return UnaryElementwise(
      a, [](double x) { return 1.0 / (1.0 + std::exp(-x)); },
      [](double x) {
        const double s = 1.0 / (1.0 + std::exp(-x));
        return s * (1.0 - s);
      });
}

Var Square(Var a) {
  return UnaryElementwise(
      a, [](double x) { return x * x; }, [](double x) { return 2.0 * x; });
}

Var Sqrt(Var a) {
  return UnaryElementwise(
      a, [](double x) { return std::sqrt(std::max(x, 0.0)); },
      [](double x) { return 0.5 / std::sqrt(std::max(x, 1e-12)); });
}

Var Abs(Var a) {
  return UnaryElementwise(
      a, [](double x) { return std::fabs(x); },
      [](double x) { return x > 0.0 ? 1.0 : (x < 0.0 ? -1.0 : 0.0); });
}

namespace {

// One row of the log-softmax / softmax backward pair. `log_space` selects
// dx = g - softmax·rowsum(g) (log-softmax, y = log-probs) versus
// dx = y ∘ (g - <g, y>) (softmax, y = probs).
inline void SoftmaxRowBackward(bool log_space, const double* gr, const double* yr,
                               double* dr, int cols) {
  if (log_space) {
    double gsum = 0.0;
    for (int c = 0; c < cols; ++c) gsum += gr[c];
    for (int c = 0; c < cols; ++c) dr[c] += gr[c] - std::exp(yr[c]) * gsum;
  } else {
    double dot = 0.0;
    for (int c = 0; c < cols; ++c) dot += gr[c] * yr[c];
    for (int c = 0; c < cols; ++c) dr[c] += yr[c] * (gr[c] - dot);
  }
}

bool RowAllZero(const double* gr, int cols) {
  for (int c = 0; c < cols; ++c) {
    if (gr[c] != 0.0) return false;
  }
  return true;
}

Var SoftmaxLike(Var logits, bool log_space) {
  Tape* tape = CommonTape({logits});
  const la::Matrix& x = logits.value();
  la::Matrix out = tape->NewValue(x.rows(), x.cols(), /*zero_init=*/false);
  {
    const int cols = x.cols();
    la::ActiveBackend().Apply(x.rows(), RowGrain(cols), [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const double* in = x.row(static_cast<int>(r));
        double* o = out.row(static_cast<int>(r));
        double mx = in[0];
        for (int c = 1; c < cols; ++c) mx = std::max(mx, in[c]);
        double sum = 0.0;
        for (int c = 0; c < cols; ++c) sum += std::exp(in[c] - mx);
        if (log_space) {
          const double lse = mx + std::log(sum);
          for (int c = 0; c < cols; ++c) o[c] = in[c] - lse;
        } else {
          for (int c = 0; c < cols; ++c) o[c] = std::exp(in[c] - mx) / sum;
        }
      }
    });
  }
  const bool needs = tape->NeedsGrad(logits);
  const int out_id = tape->num_nodes();
  return MakeOp(
      tape, std::move(out), needs, {logits},
      [logits, out_id, log_space](Tape& tp, const la::Matrix& g) {
        if (!tp.NeedsGrad(logits)) return;
        const Var out_var{&tp, out_id};
        const la::Matrix& y = tp.Value(out_var);
        const std::vector<int>* supp = tp.GradRowSupport(out_var);
        const int cols = g.cols();
        if (supp != nullptr) {
          la::Matrix& dx = tp.GradRefPartial(logits, *supp);
          for (int r : *supp) {
            SoftmaxRowBackward(log_space, g.row(r), y.row(r), dx.row(r), cols);
          }
          return;
        }
        la::Matrix& dx = tp.GradRef(logits);
        la::ActiveBackend().Apply(g.rows(), RowGrain(cols), [&](int64_t r0, int64_t r1) {
          for (int64_t r = r0; r < r1; ++r) {
            const double* gr = g.row(static_cast<int>(r));
            // An all-zero gradient row contributes exact zeros; skipping it
            // saves the exp/dot work without changing any bit.
            if (RowAllZero(gr, cols)) continue;
            SoftmaxRowBackward(log_space, gr, y.row(static_cast<int>(r)),
                               dx.row(static_cast<int>(r)), cols);
          }
        });
      });
}

}  // namespace

Var LogSoftmaxRows(Var logits) { return SoftmaxLike(logits, /*log_space=*/true); }

Var SoftmaxRows(Var logits) { return SoftmaxLike(logits, /*log_space=*/false); }

Var LogSoftmaxRowsLanes(Var logits, int lanes) {
  if (lanes == 1) return LogSoftmaxRows(logits);
  Tape* tape = CommonTape({logits});
  const la::Matrix& x = logits.value();
  PPFR_CHECK_GE(lanes, 1);
  PPFR_CHECK_EQ(x.cols() % lanes, 0);
  const int w = x.cols() / lanes;
  PPFR_CHECK_GT(w, 0);
  la::Matrix out = tape->NewValue(x.rows(), x.cols(), /*zero_init=*/false);
  {
    // Per lane window: the exact stable log-softmax loop of SoftmaxLike —
    // max, exp-sum, lse in the same order over the same w entries, so lane
    // l's output window is bitwise the narrow forward of that window.
    la::ActiveBackend().Apply(x.rows(), RowGrain(x.cols()), [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        for (int l = 0; l < lanes; ++l) {
          const double* in = x.row(static_cast<int>(r)) + l * w;
          double* o = out.row(static_cast<int>(r)) + l * w;
          double mx = in[0];
          for (int c = 1; c < w; ++c) mx = std::max(mx, in[c]);
          double sum = 0.0;
          for (int c = 0; c < w; ++c) sum += std::exp(in[c] - mx);
          const double lse = mx + std::log(sum);
          for (int c = 0; c < w; ++c) o[c] = in[c] - lse;
        }
      }
    });
  }
  const bool needs = tape->NeedsGrad(logits);
  const int out_id = tape->num_nodes();
  return MakeOp(
      tape, std::move(out), needs, {logits},
      [logits, out_id, lanes, w](Tape& tp, const la::Matrix& g) {
        if (!tp.NeedsGrad(logits)) return;
        const Var out_var{&tp, out_id};
        const la::Matrix& y = tp.Value(out_var);
        const std::vector<int>* supp = tp.GradRowSupport(out_var);
        if (supp != nullptr) {
          la::Matrix& dx = tp.GradRefPartial(logits, *supp);
          for (int r : *supp) {
            for (int l = 0; l < lanes; ++l) {
              SoftmaxRowBackward(/*log_space=*/true, g.row(r) + l * w,
                                 y.row(r) + l * w, dx.row(r) + l * w, w);
            }
          }
          return;
        }
        la::Matrix& dx = tp.GradRef(logits);
        la::ActiveBackend().Apply(
            g.rows(), RowGrain(g.cols()), [&](int64_t r0, int64_t r1) {
              for (int64_t r = r0; r < r1; ++r) {
                for (int l = 0; l < lanes; ++l) {
                  const double* gr = g.row(static_cast<int>(r)) + l * w;
                  // Per-WINDOW all-zero skip: a lane whose narrow serial
                  // backward would skip the row skips it here too, so the
                  // lanes stay bitwise independent of their batch-mates.
                  if (RowAllZero(gr, w)) continue;
                  SoftmaxRowBackward(/*log_space=*/true, gr,
                                     y.row(static_cast<int>(r)) + l * w,
                                     dx.row(static_cast<int>(r)) + l * w, w);
                }
              }
            });
      });
}

Var WeightedNll(Var logp, const std::vector<int>& rows, const std::vector<int>& labels,
                const std::vector<double>& weights, double denom) {
  Tape* tape = CommonTape({logp});
  PPFR_CHECK_EQ(rows.size(), labels.size());
  PPFR_CHECK_EQ(rows.size(), weights.size());
  PPFR_CHECK_GT(denom, 0.0);
  const la::Matrix& lp = logp.value();
  double loss = 0.0;
  for (size_t k = 0; k < rows.size(); ++k) {
    PPFR_CHECK_GE(labels[k], 0);
    PPFR_CHECK_LT(labels[k], lp.cols());
    loss -= weights[k] * lp(rows[k], labels[k]);
  }
  la::Matrix out = tape->NewValue(1, 1, /*zero_init=*/false);
  out(0, 0) = loss / denom;
  const bool needs = tape->NeedsGrad(logp);
  return MakeOp(tape, std::move(out), needs, {logp},
                [logp, rows, labels, weights, denom](Tape& tp, const la::Matrix& g) {
                  if (!tp.NeedsGrad(logp)) return;
                  // The only rows written are the loss rows — declaring them
                  // seeds the row-support propagation that keeps per-node
                  // influence backward passes on the seed's receptive field.
                  la::Matrix& dl = tp.GradRefPartial(logp, rows);
                  const double scale = g(0, 0) / denom;
                  for (size_t k = 0; k < rows.size(); ++k) {
                    dl(rows[k], labels[k]) -= scale * weights[k];
                  }
                });
}

Var WeightedNllLanes(Var logp, const std::vector<int>& rows,
                     const std::vector<int>& labels,
                     const std::vector<double>& weights, double denom, int lanes) {
  if (lanes == 1) return WeightedNll(logp, rows, labels, weights, denom);
  Tape* tape = CommonTape({logp});
  PPFR_CHECK_EQ(rows.size(), labels.size());
  PPFR_CHECK_EQ(rows.size(), weights.size());
  PPFR_CHECK_GT(denom, 0.0);
  const la::Matrix& lp = logp.value();
  PPFR_CHECK_GE(lanes, 1);
  PPFR_CHECK_EQ(lp.cols() % lanes, 0);
  const int w = lp.cols() / lanes;
  // Scalar output = Σ_l loss_l, each lane's loss accumulated in the narrow
  // op's k-order then divided by denom — the per-lane value is bitwise the
  // narrow forward; only the cross-lane sum is new (and is never
  // differentiated through: the backward below writes per-lane entries
  // directly).
  double total = 0.0;
  for (int l = 0; l < lanes; ++l) {
    double loss = 0.0;
    for (size_t k = 0; k < rows.size(); ++k) {
      PPFR_CHECK_GE(labels[k], 0);
      PPFR_CHECK_LT(labels[k], w);
      loss -= weights[k] * lp(rows[k], l * w + labels[k]);
    }
    total += loss / denom;
  }
  la::Matrix out = tape->NewValue(1, 1, /*zero_init=*/false);
  out(0, 0) = total;
  const bool needs = tape->NeedsGrad(logp);
  return MakeOp(tape, std::move(out), needs, {logp},
                [logp, rows, labels, weights, denom, lanes, w](Tape& tp,
                                                               const la::Matrix& g) {
                  if (!tp.NeedsGrad(logp)) return;
                  la::Matrix& dl = tp.GradRefPartial(logp, rows);
                  const double scale = g(0, 0) / denom;
                  for (int l = 0; l < lanes; ++l) {
                    for (size_t k = 0; k < rows.size(); ++k) {
                      dl(rows[k], l * w + labels[k]) -= scale * weights[k];
                    }
                  }
                });
}

Var GatherRows(Var a, const std::vector<int>& indices) {
  Tape* tape = CommonTape({a});
  const la::Matrix& av = a.value();
  for (int idx : indices) {
    PPFR_CHECK_GE(idx, 0);
    PPFR_CHECK_LT(idx, av.rows());
  }
  la::Matrix out =
      tape->NewValue(static_cast<int>(indices.size()), av.cols(), /*zero_init=*/false);
  {
    const int cols = av.cols();
    la::ActiveBackend().Apply(
        static_cast<int64_t>(indices.size()), RowGrain(cols), [&](int64_t k0, int64_t k1) {
          for (int64_t k = k0; k < k1; ++k) {
            const double* src = av.row(indices[static_cast<size_t>(k)]);
            std::copy(src, src + cols, out.row(static_cast<int>(k)));
          }
        });
  }
  const bool needs = tape->NeedsGrad(a);
  const int out_id = tape->num_nodes();
  return MakeOp(tape, std::move(out), needs, {a},
                [a, indices, out_id](Tape& tp, const la::Matrix& g) {
                  if (!tp.NeedsGrad(a)) return;
                  // Serial scatter: indices may repeat, so rows can collide.
                  // With a known gradient row support only those output rows
                  // are scattered (a skipped row adds exact zeros), so a
                  // seeded backward through a block's self-term gather stays
                  // O(support) instead of O(gathered rows).
                  const auto add_row = [&](la::Matrix& da, int k) {
                    const double* gr = g.row(k);
                    double* dr = da.row(indices[static_cast<size_t>(k)]);
                    for (int c = 0; c < g.cols(); ++c) dr[c] += gr[c];
                  };
                  const std::vector<int>* supp = tp.GradRowSupport(Var{&tp, out_id});
                  if (supp != nullptr) {
                    // thread_local scratch: runs once per seed inside the
                    // pooled per-node loop, which must stay allocation-free.
                    thread_local std::vector<int> rows;
                    rows.clear();
                    for (int k : *supp) rows.push_back(indices[static_cast<size_t>(k)]);
                    la::Matrix& da = tp.GradRefPartial(a, rows);
                    for (int k : *supp) add_row(da, k);
                    return;
                  }
                  la::Matrix& da = tp.GradRefPartial(a, indices);
                  for (size_t k = 0; k < indices.size(); ++k) {
                    add_row(da, static_cast<int>(k));
                  }
                });
}

Var ConcatCols(const std::vector<Var>& parts, int lanes) {
  PPFR_CHECK(!parts.empty());
  PPFR_CHECK_GE(lanes, 1);
  Tape* tape = parts[0].tape;
  int total_cols = 0;
  const int rows = parts[0].rows();
  bool needs = false;
  for (Var p : parts) {
    PPFR_CHECK(p.tape == tape);
    PPFR_CHECK_EQ(p.rows(), rows);
    PPFR_CHECK_EQ(p.cols() % lanes, 0);
    total_cols += p.cols();
    needs = needs || tape->NeedsGrad(p);
  }
  const int lane_cols = total_cols / lanes;
  la::Matrix out = tape->NewValue(rows, total_cols, /*zero_init=*/false);
  int offset = 0;  // part's column offset inside one output lane window
  for (Var p : parts) {
    const la::Matrix& pv = p.value();
    const int width = pv.cols() / lanes;
    for (int r = 0; r < rows; ++r) {
      for (int l = 0; l < lanes; ++l) {
        const double* src = pv.row(r) + l * width;
        std::copy(src, src + width, out.row(r) + l * lane_cols + offset);
      }
    }
    offset += width;
  }
  const int out_id = tape->num_nodes();
  return MakeOp(tape, std::move(out), needs, parts,
                [parts, lanes, lane_cols, out_id](Tape& tp, const la::Matrix& g) {
                  const std::vector<int>* supp = tp.GradRowSupport(Var{&tp, out_id});
                  int offset = 0;
                  for (Var p : parts) {
                    const int width = tp.Value(p).cols() / lanes;
                    if (tp.NeedsGrad(p)) {
                      la::Matrix& dp = supp != nullptr ? tp.GradRefPartial(p, *supp)
                                                       : tp.GradRef(p);
                      auto add_row = [&](int r) {
                        for (int l = 0; l < lanes; ++l) {
                          const double* gr = g.row(r) + l * lane_cols + offset;
                          double* dr = dp.row(r) + l * width;
                          for (int c = 0; c < width; ++c) dr[c] += gr[c];
                        }
                      };
                      if (supp != nullptr) {
                        for (int r : *supp) add_row(r);
                      } else {
                        for (int r = 0; r < g.rows(); ++r) add_row(r);
                      }
                    }
                    offset += width;
                  }
                });
}

Var SumAll(Var a) {
  Tape* tape = CommonTape({a});
  la::Matrix out = tape->NewValue(1, 1, /*zero_init=*/false);
  out(0, 0) = a.value().SumAll();
  const bool needs = tape->NeedsGrad(a);
  return MakeOp(tape, std::move(out), needs, {a},
                [a](Tape& tp, const la::Matrix& g) {
                  if (!tp.NeedsGrad(a)) return;
                  la::Matrix& da = tp.GradRef(a);
                  const double gg = g(0, 0);
                  for (int64_t i = 0; i < da.size(); ++i) da.data()[i] += gg;
                });
}

Var MeanAll(Var a) {
  const double n = static_cast<double>(a.value().size());
  PPFR_CHECK_GT(n, 0.0);
  return Scale(SumAll(a), 1.0 / n);
}

Var RowSums(Var a) {
  Tape* tape = CommonTape({a});
  const la::Matrix& av = a.value();
  la::Matrix out = tape->NewValue(av.rows(), 1, /*zero_init=*/false);
  {
    const int cols = av.cols();
    la::ActiveBackend().Apply(av.rows(), RowGrain(cols), [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        double s = 0.0;
        const double* row = av.row(static_cast<int>(r));
        for (int c = 0; c < cols; ++c) s += row[c];
        out(static_cast<int>(r), 0) = s;
      }
    });
  }
  const bool needs = tape->NeedsGrad(a);
  const int out_id = tape->num_nodes();
  return MakeOp(tape, std::move(out), needs, {a},
                [a, out_id](Tape& tp, const la::Matrix& g) {
                  if (!tp.NeedsGrad(a)) return;
                  const std::vector<int>* supp = tp.GradRowSupport(Var{&tp, out_id});
                  la::Matrix& da = supp != nullptr ? tp.GradRefPartial(a, *supp)
                                                   : tp.GradRef(a);
                  auto add_row = [&](int r) {
                    const double gr = g(r, 0);
                    double* dr = da.row(r);
                    for (int c = 0; c < da.cols(); ++c) dr[c] += gr;
                  };
                  if (supp != nullptr) {
                    for (int r : *supp) add_row(r);
                  } else {
                    for (int r = 0; r < da.rows(); ++r) add_row(r);
                  }
                });
}

Var LaplacianQuadratic(const std::shared_ptr<const la::CsrMatrix>& laplacian, Var y) {
  Tape* tape = CommonTape({y});
  PPFR_CHECK_EQ(laplacian->rows(), laplacian->cols());
  PPFR_CHECK_EQ(laplacian->rows(), y.rows());
  // Cache L*Y for the backward pass (dL/dY = 2 L Y, L symmetric).
  auto ly = std::make_shared<la::Matrix>(laplacian->Multiply(y.value()));
  la::Matrix out = tape->NewValue(1, 1, /*zero_init=*/false);
  out(0, 0) = la::Dot(y.value(), *ly);
  const bool needs = tape->NeedsGrad(y);
  return MakeOp(tape, std::move(out), needs, {y},
                [y, ly](Tape& tp, const la::Matrix& g) {
                  if (!tp.NeedsGrad(y)) return;
                  tp.GradRef(y).Axpy(2.0 * g(0, 0), *ly);
                });
}

namespace {

// GatAttention spells out every rounding instead of leaving multiply-adds to
// the compiler's FMA contraction, which differs between loops and
// optimisation levels. The choices reproduce the unfused graph it replaced
// (per-head score GEMMs + edge softmax) as built at -O3: MulAdd (one rounding
// on an FMA target) where that graph's loops contracted, RoundedProduct (the
// product rounded on its own, then a separate add) where they did not.
inline double MulAdd(double x, double y, double z) {
#ifdef __FMA__
  return std::fma(x, y, z);
#else
  return x * y + z;  // no FMA unit: nothing could have contracted
#endif
}

inline double RoundedProduct(double x, double y) {
#ifdef __FMA__
  return std::fma(x, y, 0.0);  // an fma result cannot contract into the next add
#else
  return x * y;
#endif
}

// dst = the (rows x cols) row-major src transposed: the GAT attention
// vectors arrive d x heads, and head-major copies keep the per-head inner
// loops contiguous.
void TransposeInto(const double* src, int rows, int cols, std::vector<double>* dst) {
  dst->resize(static_cast<size_t>(rows) * cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) (*dst)[static_cast<size_t>(c) * rows + r] = src[r * cols + c];
  }
}

// Calls fn(r) for every listed row, or for rows [0, count) when `rows` is
// null (the dense, unknown-support case).
template <typename Fn>
void ForRows(const std::vector<int>* rows, int count, const Fn& fn) {
  if (rows != nullptr) {
    for (int r : *rows) fn(r);
  } else {
    for (int r = 0; r < count; ++r) fn(r);
  }
}

}  // namespace

Var GatAttention(Var h, Var attn_left, Var attn_right,
                 const std::shared_ptr<const EdgeSet>& edges, int heads,
                 double leaky_slope) {
  Tape* tape = CommonTape({h, attn_left, attn_right});
  const int n = edges->num_dst;
  const int num_src = edges->num_src;
  const int width = h.cols();
  PPFR_CHECK_GE(heads, 1);
  PPFR_CHECK_LE(n, num_src);
  PPFR_CHECK_EQ(h.rows(), num_src);
  PPFR_CHECK_EQ(width % heads, 0);
  const int dim = width / heads;
  PPFR_CHECK_EQ(attn_left.rows(), dim);
  PPFR_CHECK_EQ(attn_left.cols(), heads);
  PPFR_CHECK_EQ(attn_right.rows(), dim);
  PPFR_CHECK_EQ(attn_right.cols(), heads);
  const int64_t m = edges->num_edges();

  // Scores [sl | sr] per source row. Each dot sums in ascending k from 0.0,
  // exactly as the naive score GEMM (n = 1 per head always dispatches there)
  // did; that GEMM skipped zero features, which for finite values changes
  // nothing (an FMA adding a ±0 product to an accumulator that started at
  // +0.0 returns the accumulator). The scores live in a grad-free tape node:
  // replay recycles its value buffer, and backward collects [dsl | dsr] in
  // its gradient buffer, which the arena resets support-aware. (Creating a
  // node may move the tape's node storage, so each Value reference below is
  // taken after the last node creation before its use.)
  la::Matrix scores = tape->NewValue(num_src, 2 * heads, /*zero_init=*/false);
  {
    const la::Matrix& hv = h.value();
    thread_local std::vector<double> left_t;
    thread_local std::vector<double> right_t;
    TransposeInto(attn_left.value().data(), dim, heads, &left_t);
    TransposeInto(attn_right.value().data(), dim, heads, &right_t);
    const double* al = left_t.data();  // head-major: al[head * dim + c]
    const double* ar = right_t.data();
    la::ActiveBackend().Apply(num_src, RowGrain(2 * width), [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const double* hr = hv.row(static_cast<int>(r));
        double* sr = scores.row(static_cast<int>(r));
        for (int head = 0; head < heads; ++head) {
          const double* hh = hr + head * dim;
          const double* lh = al + head * dim;
          const double* rh = ar + head * dim;
          double left = 0.0;
          double right = 0.0;
          for (int c = 0; c < dim; ++c) {
            left = MulAdd(hh[c], lh[c], left);
            right = MulAdd(hh[c], rh[c], right);
          }
          sr[head] = left;
          sr[heads + head] = right;
        }
      }
    });
  }
  const Var scores_var = tape->MakeNode(std::move(scores), false, nullptr, {});

  // Saved for backward, row k per edge: [alpha_k(head…) | (z_k > 0)(head…)].
  // Its node is created before the softmax runs so that the output buffer
  // can be requested next and one walk per destination fills both; the
  // buffer's storage stays put when the node takes it over.
  la::Matrix saved = tape->NewValue(static_cast<int>(m), 2 * heads, /*zero_init=*/false);
  double* const saved_data = saved.data();
  const Var saved_var = tape->MakeNode(std::move(saved), false, nullptr, {});
  const la::Matrix& sc = tape->Value(scores_var);
  const la::Matrix& hv = tape->Value(h);
  la::Matrix out = tape->NewValue(n, width, /*zero_init=*/true);
  // Destination rows are independent — each writes only its own edges' rows
  // of `saved` and its own output row — so the walk fans out over
  // destination chunks. Chunk boundaries are placed on CUMULATIVE degree
  // (row_ptr is the prefix sum), not row count: per-row cost is O(degree),
  // so hub nodes in a power-law graph would otherwise serialise one chunk.
  // The partition never affects results, only which thread computes them.
  const int64_t edge_grain = std::max<int64_t>(1, kApplyGrain / std::max(width, 1));
  const int64_t num_chunks =
      n == 0 ? 0 : std::max<int64_t>(1, std::min<int64_t>(n, m / edge_grain));
  const std::vector<int64_t> bounds =
      num_chunks > 0 ? la::NnzBalancedRowBounds(edges->row_ptr, n, num_chunks)
                     : std::vector<int64_t>{0};
  // Per destination and head: stable softmax over e_ij, then the
  // alpha-weighted sum of source rows; one walk over the destination's edges
  // serves every head.
  la::ActiveBackend().Apply(num_chunks, 1, [&](int64_t c0, int64_t c1) {
    thread_local std::vector<double> scratch;  // [max | denom] per head
    scratch.resize(2 * static_cast<size_t>(heads));
    double* const mx = scratch.data();
    double* const denom = mx + heads;
    for (int64_t i = bounds[static_cast<size_t>(c0)];
         i < bounds[static_cast<size_t>(c1)]; ++i) {
      const int64_t begin = edges->row_ptr[i];
      const int64_t end = edges->row_ptr[i + 1];
      if (begin == end) continue;
      const double* sl_i = sc.row(static_cast<int>(i));
      std::fill(mx, mx + heads, -1e300);
      std::fill(denom, denom + heads, 0.0);
      for (int64_t k = begin; k < end; ++k) {
        const double* sr_j = sc.row(edges->col_idx[k]) + heads;
        double* row = saved_data + k * 2 * heads;
        for (int head = 0; head < heads; ++head) {
          const double z = sl_i[head] + sr_j[head];
          const double e = z > 0.0 ? z : RoundedProduct(leaky_slope, z);
          row[heads + head] = z > 0.0 ? 1.0 : 0.0;
          row[head] = e;  // e for now, alpha below
          mx[head] = std::max(mx[head], e);
        }
      }
      for (int64_t k = begin; k < end; ++k) {
        double* row = saved_data + k * 2 * heads;
        for (int head = 0; head < heads; ++head) {
          row[head] = std::exp(row[head] - mx[head]);
          denom[head] += row[head];
        }
      }
      double* out_row = out.row(static_cast<int>(i));
      for (int64_t k = begin; k < end; ++k) {
        double* row = saved_data + k * 2 * heads;
        const double* hj = hv.row(edges->col_idx[k]);
        for (int head = 0; head < heads; ++head) {
          const double a = row[head] / denom[head];
          row[head] = a;
          for (int c = head * dim; c < (head + 1) * dim; ++c) {
            out_row[c] = MulAdd(a, hj[c], out_row[c]);
          }
        }
      }
    }
  });

  const bool needs = AnyNeedsGrad({h, attn_left, attn_right});
  const int out_id = tape->num_nodes();
  return MakeOp(
      tape, std::move(out), needs, {h, attn_left, attn_right},
      [h, attn_left, attn_right, scores_var, saved_var, edges, heads, dim,
       leaky_slope, out_id](Tape& tp, const la::Matrix& g) {
        const la::Matrix& hv = tp.Value(h);
        const la::Matrix& alpha = tp.Value(saved_var);
        const int n = edges->num_dst;
        const int num_src = edges->num_src;
        const bool need_h = tp.NeedsGrad(h);

        // When the output gradient's nonzero-row support is known (the
        // seeded per-node influence passes), only the supported destinations
        // carry gradient: a skipped destination's edges would contribute
        // exact ±0 products. The touched rows are then the supported
        // destinations' neighbour lists (dh and dsr source rows; self-loops
        // put i itself in its own list) plus the support rows themselves
        // (dsl), declared via GradRefPartial so resetting for the next seed
        // stays O(receptive field) — GAT per-node influence costs O(2-hop)
        // like GCN's SpMM path instead of O(n).
        const std::vector<int>* supp = tp.GradRowSupport(Var{&tp, out_id});
        // thread_local scratch: runs once per seed per layer inside the
        // pooled per-node loop, which must stay allocation-free.
        thread_local std::vector<int> targets;
        thread_local std::vector<int> touched;
        la::Matrix* dh = nullptr;
        la::Matrix* ds = nullptr;  // [dsl | dsr] per source row
        if (supp != nullptr) {
          targets.clear();
          for (int i : *supp) {
            for (int64_t k = edges->row_ptr[i]; k < edges->row_ptr[i + 1]; ++k) {
              targets.push_back(edges->col_idx[k]);
            }
          }
          std::sort(targets.begin(), targets.end());
          targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
          touched.clear();
          std::set_union(targets.begin(), targets.end(), supp->begin(), supp->end(),
                         std::back_inserter(touched));
          ds = &tp.GradRefPartial(scores_var, touched);
          if (need_h) dh = &tp.GradRefPartial(h, touched);
        } else {
          ds = &tp.GradRef(scores_var);
          if (need_h) dh = &tp.GradRef(h);
        }
        const std::vector<int>* src_rows = supp != nullptr ? &targets : nullptr;

        // Edge softmax backward, one walk over each destination's edges for
        // all heads. Source-node scatter rows collide across destinations, so
        // it stays serial; per element it accumulates in the same order as
        // a per-head pass (destinations ascending, then edges).
        // dalpha_ij = g_i · h_j per head. The unfused graph's loop summed its
        // first 4·⌊d/4⌋ terms as a vectorised in-order reduction (products
        // rounded, then added) and contracted the tail into FMAs.
        const int dot_split = dim / 4 * 4;
        thread_local std::vector<double> dalpha;  // deg x heads, this destination
        thread_local std::vector<double> weighted_sum;  // Σ_j alpha_ij dalpha_ij
        weighted_sum.resize(static_cast<size_t>(heads));
        const auto backward_dest = [&](int i) {
          const int64_t begin = edges->row_ptr[i];
          const int64_t end = edges->row_ptr[i + 1];
          if (begin == end) return;
          const double* gi = g.row(i);
          const size_t need = static_cast<size_t>(end - begin) * heads;
          if (dalpha.size() < need) dalpha.resize(need);
          double* ws = weighted_sum.data();
          std::fill(ws, ws + heads, 0.0);
          for (int64_t k = begin; k < end; ++k) {
            const int j = edges->col_idx[k];
            const double* a_row = alpha.row(static_cast<int>(k));
            const double* hj = hv.row(j);
            double* dhj = need_h ? dh->row(j) : nullptr;
            double* dak = dalpha.data() + static_cast<size_t>(k - begin) * heads;
            for (int head = 0; head < heads; ++head) {
              const int col0 = head * dim;
              const double a = a_row[head];
              double dot = 0.0;
              for (int c = 0; c < dot_split; ++c) {
                dot += RoundedProduct(gi[col0 + c], hj[col0 + c]);
              }
              for (int c = dot_split; c < dim; ++c) {
                dot = MulAdd(gi[col0 + c], hj[col0 + c], dot);
              }
              dak[head] = dot;
              ws[head] = MulAdd(a, dot, ws[head]);
              if (dhj != nullptr) {
                for (int c = col0; c < col0 + dim; ++c) dhj[c] = MulAdd(a, gi[c], dhj[c]);
              }
            }
          }
          double* dsl_i = ds->row(i);
          for (int64_t k = begin; k < end; ++k) {
            const double* a_row = alpha.row(static_cast<int>(k));
            const double* dak = dalpha.data() + static_cast<size_t>(k - begin) * heads;
            double* dsr_j = ds->row(edges->col_idx[k]) + heads;
            for (int head = 0; head < heads; ++head) {
              const double de = RoundedProduct(a_row[head], dak[head] - ws[head]);
              const double dz =
                  a_row[heads + head] != 0.0 ? de : RoundedProduct(leaky_slope, de);
              dsl_i[head] += dz;
              dsr_j[head] += dz;
            }
          }
        };
        ForRows(supp, n, backward_dest);

        // Score backward: dh += dsr ⊗ attn_right, then dh += dsl ⊗ attn_left
        // (the unfused graph's reverse node order), and the attention-vector
        // gradients Σ_r h_r dsr(r) / Σ_r h_r dsl(r) over ascending rows. A
        // zero score gradient adds only ±0, so rows without one are skipped:
        // the dense and support-pruned passes produce the same bits.
        // Both run on head-major copies of the d x heads attention matrices
        // (the gradient copied in and back out), so per-element operation
        // sequences are unchanged.
        thread_local std::vector<double> attn_t;
        thread_local std::vector<double> grad_t;
        const auto score_terms = [&](const std::vector<int>* rows, int count,
                                     int ds_col0, Var attn) {
          TransposeInto(tp.Value(attn).data(), dim, heads, &attn_t);
          const double* av = attn_t.data();
          if (need_h) {
            ForRows(rows, count, [&](int r) {
              const double* dsr = ds->row(r) + ds_col0;
              double* dp = dh->row(r);
              for (int head = 0; head < heads; ++head) {
                const double t = dsr[head];
                if (t == 0.0) continue;
                for (int c = head * dim; c < (head + 1) * dim; ++c) {
                  dp[c] += RoundedProduct(t, av[c]);
                }
              }
            });
          }
          if (!tp.NeedsGrad(attn)) return;
          la::Matrix& da = tp.GradRef(attn);
          TransposeInto(da.data(), dim, heads, &grad_t);
          double* dt = grad_t.data();
          ForRows(rows, count, [&](int r) {
            const double* dsr = ds->row(r) + ds_col0;
            const double* hr = hv.row(r);
            for (int head = 0; head < heads; ++head) {
              const double t = dsr[head];
              if (t == 0.0) continue;
              for (int c = head * dim; c < (head + 1) * dim; ++c) {
                dt[c] = MulAdd(hr[c], t, dt[c]);
              }
            }
          });
          for (int head = 0; head < heads; ++head) {
            for (int c = 0; c < dim; ++c) da(c, head) = dt[head * dim + c];
          }
        };
        score_terms(src_rows, num_src, heads, attn_right);
        score_terms(supp, n, 0, attn_left);
      });
}

}  // namespace ppfr::ag
