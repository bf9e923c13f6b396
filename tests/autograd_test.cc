#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "autograd/tape.h"
#include "common/rng.h"
#include "test_util.h"

namespace ppfr::ag {
namespace {

using ::ppfr::testing::RandomMatrix;

constexpr double kTol = 1e-5;

Parameter MakeParam(const std::string& name, int rows, int cols, Rng* rng) {
  return Parameter(name, RandomMatrix(rows, cols, rng));
}

TEST(TapeTest, LeafExposesParameterValue) {
  Rng rng(1);
  Parameter p = MakeParam("p", 2, 3, &rng);
  Tape tape;
  Var v = tape.Leaf(&p);
  EXPECT_EQ(v.rows(), 2);
  EXPECT_EQ(v.cols(), 3);
  EXPECT_DOUBLE_EQ(v.value()(1, 2), p.value(1, 2));
  EXPECT_TRUE(tape.NeedsGrad(v));
}

TEST(TapeTest, ConstantsDoNotRequireGrad) {
  Tape tape;
  Var c = tape.Constant(la::Matrix(2, 2, 1.0));
  EXPECT_FALSE(tape.NeedsGrad(c));
}

TEST(TapeTest, BackwardAccumulatesIntoParameter) {
  Rng rng(2);
  Parameter p = MakeParam("p", 3, 1, &rng);
  p.ZeroGrad();
  Tape tape;
  Var loss = SumAll(tape.Leaf(&p));
  tape.Backward(loss);
  for (int i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(p.grad(i, 0), 1.0);
  // Backward again accumulates (caller is responsible for zeroing).
  Tape tape2;
  Var loss2 = SumAll(tape2.Leaf(&p));
  tape2.Backward(loss2);
  for (int i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(p.grad(i, 0), 2.0);
}

TEST(TapeTest, BackwardWithSeedMatchesScaledBackward) {
  Rng rng(3);
  Parameter p = MakeParam("p", 2, 2, &rng);
  p.ZeroGrad();
  {
    Tape tape;
    Var loss = MeanAll(Square(tape.Leaf(&p)));
    la::Matrix seed(1, 1);
    seed(0, 0) = 2.0;
    tape.BackwardWithSeed(loss, seed);
  }
  la::Matrix grad_seeded = p.grad;
  p.ZeroGrad();
  {
    Tape tape;
    Var loss = Scale(MeanAll(Square(tape.Leaf(&p))), 2.0);
    tape.Backward(loss);
  }
  EXPECT_LT(la::Sub(grad_seeded, p.grad).MaxAbs(), 1e-12);
}

TEST(TapeTest, ZeroAllGradsEnablesReplay) {
  Rng rng(4);
  Parameter p = MakeParam("p", 3, 2, &rng);
  Tape tape;
  Var x = tape.Leaf(&p);
  Var loss = MeanAll(Square(x));

  p.ZeroGrad();
  tape.Backward(loss);
  const la::Matrix first = p.grad;

  p.ZeroGrad();
  tape.ZeroAllGrads();
  tape.Backward(loss);
  EXPECT_LT(la::Sub(first, p.grad).MaxAbs(), 1e-12);
}

// ---- Gradient checks per op ----

TEST(TapeTest, BackwardSkipsNodesUnreachableFromOutput) {
  // Two disjoint sub-expressions on one tape: back-propagating one must not
  // sweep — or write any gradient into — the other.
  Rng rng(40);
  Parameter used = MakeParam("used", 3, 2, &rng);
  Parameter untouched = MakeParam("untouched", 4, 4, &rng);
  used.ZeroGrad();
  untouched.ZeroGrad();

  Tape tape;
  Var loss_a = MeanAll(Square(tape.Leaf(&used)));
  Var loss_b = MeanAll(Square(Tanh(tape.Leaf(&untouched))));
  (void)loss_b;

  la::Matrix seed(1, 1);
  seed(0, 0) = 1.0;
  tape.BackwardWithSeed(loss_a, seed);

  EXPECT_GT(used.grad.MaxAbs(), 0.0);
  EXPECT_EQ(untouched.grad.MaxAbs(), 0.0);
  // The pruned sweep must visit only loss_a's ancestry (leaf + square +
  // sum + scale + the loss node itself), not the whole tape.
  EXPECT_LT(tape.last_backward_visited(), tape.num_nodes());
  EXPECT_LE(tape.last_backward_visited(), 4);
}

TEST(TapeTest, SparseSeedMatchesDenseSeed) {
  Rng rng(41);
  Parameter p = MakeParam("p", 5, 3, &rng);

  p.ZeroGrad();
  {
    Tape tape;
    Var out = Tanh(tape.Leaf(&p));
    la::Matrix seed(5, 3);
    seed(2, 1) = -1.5;
    seed(4, 0) = 0.75;
    tape.BackwardWithSeed(out, seed);
  }
  const la::Matrix dense = p.grad;

  p.ZeroGrad();
  {
    Tape tape;
    Var out = Tanh(tape.Leaf(&p));
    tape.BackwardWithSparseSeed(out, {2, 4}, {1, 0}, {-1.5, 0.75});
  }
  for (int64_t i = 0; i < dense.size(); ++i) {
    EXPECT_EQ(dense.data()[i], p.grad.data()[i]) << "component " << i;
  }
}

TEST(TapeTest, ReplayRebuildsValuesAndGradsBitwise) {
  Rng rng(42);
  Parameter w = MakeParam("w", 4, 3, &rng);
  Parameter b = MakeParam("b", 1, 3, &rng);
  auto build = [&](Tape& t) {
    return MeanAll(Square(AddRowVec(Sigmoid(t.Leaf(&w)), t.Leaf(&b))));
  };

  Tape reused;
  for (int round = 0; round < 3; ++round) {
    // Fresh-tape oracle at the current parameter values.
    w.ZeroGrad();
    b.ZeroGrad();
    Tape fresh;
    Var fresh_loss = build(fresh);
    fresh.Backward(fresh_loss);
    const double want_loss = fresh_loss.scalar();
    const la::Matrix want_dw = w.grad;
    const la::Matrix want_db = b.grad;

    w.ZeroGrad();
    b.ZeroGrad();
    if (round > 0) reused.BeginReplay();
    Var loss = build(reused);
    reused.Backward(loss);

    EXPECT_EQ(loss.scalar(), want_loss) << "round " << round;
    EXPECT_EQ(la::Sub(w.grad, want_dw).MaxAbs(), 0.0) << "round " << round;
    EXPECT_EQ(la::Sub(b.grad, want_db).MaxAbs(), 0.0) << "round " << round;
    // The replay must not have grown the tape.
    EXPECT_EQ(reused.num_nodes(), fresh.num_nodes());

    for (int64_t i = 0; i < w.value.size(); ++i) w.value.data()[i] *= 1.0 + 0.1 * round;
  }
}

TEST(TapeTest, ReplayRecyclesValueBuffers) {
  Rng rng(43);
  Parameter p = MakeParam("p", 32, 32, &rng);
  auto build = [&](Tape& t) { return MeanAll(Square(Relu(t.Leaf(&p)))); };

  Tape tape;
  tape.Backward(build(tape));
  p.ZeroGrad();
  tape.BeginReplay();
  const int64_t alloc0 = la::MatrixAllocCount();
  tape.Backward(build(tape));
  // Ops route their outputs through Tape::NewValue, so a replayed pass runs
  // allocation-free on the dense-buffer side (grads were allocated in round
  // one and are recycled too).
  EXPECT_EQ(la::MatrixAllocCount() - alloc0, 1);  // the 1x1 backward seed
}

TEST(TapeTest, GradArenasIsolateBackwardState) {
  // Two arenas over one tape: seeding different rows under each must yield
  // the same per-seed gradients as running both seeds in one arena
  // sequentially — and neither arena sees the other's dirty rows.
  Rng rng(44);
  Parameter p = MakeParam("p", 6, 2, &rng);

  Tape tape;
  tape.set_accumulate_param_grads(false);
  Var out = Square(tape.Leaf(&p));

  auto flat = [&](const std::vector<Parameter*>& params) {
    std::vector<double> v;
    tape.FlattenLeafGrads(params, &v);
    return v;
  };

  tape.BackwardWithSparseSeed(out, {1}, {0}, {2.0});
  const std::vector<double> want_seed1 = flat({&p});
  tape.ZeroDirtyNodeGrads();
  tape.BackwardWithSparseSeed(out, {4}, {1}, {-1.0});
  const std::vector<double> want_seed2 = flat({&p});
  tape.ZeroDirtyNodeGrads();

  GradArena arena_a(&tape);
  GradArena arena_b(&tape);
  std::vector<double> got_seed1, got_seed2;
  {
    ArenaScope scope(&arena_a);
    tape.BackwardWithSparseSeed(out, {1}, {0}, {2.0});
    got_seed1 = flat({&p});
  }
  {
    ArenaScope scope(&arena_b);
    tape.BackwardWithSparseSeed(out, {4}, {1}, {-1.0});
    got_seed2 = flat({&p});
  }
  {
    // arena_a's state is untouched by arena_b's backward pass.
    ArenaScope scope(&arena_a);
    EXPECT_EQ(flat({&p}), got_seed1);
  }
  EXPECT_EQ(got_seed1, want_seed1);
  EXPECT_EQ(got_seed2, want_seed2);
}

TEST(GradCheckTest, MatMulBothSides) {
  Rng rng(10);
  Parameter a = MakeParam("a", 3, 4, &rng);
  Parameter b = MakeParam("b", 4, 2, &rng);
  auto build = [&](Tape& t) { return MeanAll(Square(MatMul(t.Leaf(&a), t.Leaf(&b)))); };
  const GradCheckResult r = GradCheck(build, {&a, &b}, &rng);
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheckTest, SpMM) {
  Rng rng(11);
  Parameter x = MakeParam("x", 5, 3, &rng);
  std::vector<la::Triplet> triplets;
  for (int i = 0; i < 12; ++i) {
    triplets.push_back({static_cast<int>(rng.UniformInt(5)),
                        static_cast<int>(rng.UniformInt(5)), rng.Normal()});
  }
  auto sp = MakeSparseOperand(la::CsrMatrix::FromTriplets(5, 5, triplets),
                              /*symmetric=*/false);
  auto build = [&](Tape& t) { return MeanAll(Square(SpMM(sp, t.Leaf(&x)))); };
  const GradCheckResult r = GradCheck(build, {&x}, &rng);
  EXPECT_LT(r.max_rel_error, kTol);
}

// A sparse 0/1 bag-of-words-like constant with one all-zero row.
std::shared_ptr<const la::CsrMatrix> SparseFeatures(int rows, int cols, Rng* rng) {
  la::Matrix dense(rows, cols);
  for (int r = 1; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (rng->Bernoulli(0.3)) dense(r, c) = 1.0;
    }
  }
  return std::make_shared<const la::CsrMatrix>(la::CsrMatrix::FromDense(dense));
}

TEST(GradCheckTest, CsrMatMulLanes) {
  Rng rng(12);
  const auto x = SparseFeatures(6, 5, &rng);
  Parameter w = MakeParam("w", 5, 6, &rng);
  for (const int lanes : {1, 3}) {
    for (const int rows : {6, 4}) {  // all rows and a leading prefix
      auto build = [&](Tape& t) {
        return MeanAll(Square(CsrMatMulLanes(x, t.Leaf(&w), lanes, rows)));
      };
      const GradCheckResult r = GradCheck(build, {&w}, &rng);
      EXPECT_LT(r.max_rel_error, kTol) << "lanes=" << lanes << " rows=" << rows;
    }
  }
}

// The sparse projection is the dense MatMulLanes over the same constant, bit
// for bit: forward values, and weight gradients with and without a known
// gradient row support.
TEST(CsrMatMulLanesTest, BitwiseEqualToDenseMatMulLanes) {
  Rng rng(13);
  const auto x = SparseFeatures(300, 40, &rng);
  const la::Matrix dense = x->ToDense();
  for (const int lanes : {1, 4}) {
    Parameter w = MakeParam("w", 40, 8 * lanes, &rng);
    const la::Matrix seed = RandomMatrix(300, 8 * lanes, &rng);
    auto grads = [&](bool sparse, bool support) {
      w.ZeroGrad();
      Tape t;
      Var out = sparse ? CsrMatMulLanes(x, t.Leaf(&w), lanes, 300)
                       : MatMulLanes(t.Constant(dense), t.Leaf(&w), lanes);
      if (support) {
        t.BackwardWithSparseSeed(out, {2, 7, 150}, {0, 1, 5}, {0.5, -1.0, 2.0});
      } else {
        t.BackwardWithSeed(out, seed);
      }
      return std::make_pair(out.value(), w.grad);
    };
    for (const bool support : {false, true}) {
      const auto want = grads(false, support);
      const auto got = grads(true, support);
      for (int64_t i = 0; i < want.first.size(); ++i) {
        ASSERT_EQ(want.first.data()[i], got.first.data()[i]);
      }
      for (int64_t i = 0; i < want.second.size(); ++i) {
        ASSERT_EQ(want.second.data()[i], got.second.data()[i])
            << "lanes=" << lanes << " support=" << support;
      }
    }
  }
}

TEST(GradCheckTest, ElementwiseBinaryOps) {
  Rng rng(12);
  Parameter a = MakeParam("a", 3, 3, &rng);
  Parameter b = MakeParam("b", 3, 3, &rng);
  // Keep b away from zero for Div.
  for (int64_t i = 0; i < b.size(); ++i) {
    b.value.data()[i] = 1.5 + std::fabs(b.value.data()[i]);
  }
  auto build = [&](Tape& t) {
    Var av = t.Leaf(&a);
    Var bv = t.Leaf(&b);
    Var mix = Add(Sub(Mul(av, bv), av), Div(av, bv));
    return MeanAll(Square(mix));
  };
  const GradCheckResult r = GradCheck(build, {&a, &b}, &rng);
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheckTest, BroadcastAndScalarOps) {
  Rng rng(13);
  Parameter a = MakeParam("a", 4, 3, &rng);
  Parameter row = MakeParam("row", 1, 3, &rng);
  Parameter s = MakeParam("s", 1, 1, &rng);
  auto build = [&](Tape& t) {
    Var out = AddRowVec(t.Leaf(&a), t.Leaf(&row));
    out = Add(out, ExpandScalar(t.Leaf(&s), 4, 3));
    out = AddScalar(Scale(out, 0.7), -0.3);
    return MeanAll(Square(out));
  };
  const GradCheckResult r = GradCheck(build, {&a, &row, &s}, &rng);
  EXPECT_LT(r.max_rel_error, kTol);
}

// Unary nonlinearity sweep. Inputs are nudged away from the kink at 0 so the
// finite-difference probe stays on one side.
using UnaryFactory = Var (*)(Var);
class UnaryGradSweep : public ::testing::TestWithParam<int> {};

TEST_P(UnaryGradSweep, MatchesNumericGradient) {
  Rng rng(100 + GetParam());
  Parameter a = MakeParam("a", 4, 4, &rng);
  for (int64_t i = 0; i < a.size(); ++i) {
    double& v = a.value.data()[i];
    if (std::fabs(v) < 0.05) v = v < 0 ? v - 0.1 : v + 0.1;
  }
  auto apply = [&](Var x) {
    switch (GetParam()) {
      case 0:
        return Relu(x);
      case 1:
        return LeakyRelu(x, 0.2);
      case 2:
        return Elu(x);
      case 3:
        return Tanh(x);
      case 4:
        return Sigmoid(x);
      case 5:
        return Square(x);
      case 6:
        return Abs(x);
      default:
        return Sqrt(Square(x));  // positive-domain sqrt
    }
  };
  auto build = [&](Tape& t) { return MeanAll(Square(apply(t.Leaf(&a)))); };
  const GradCheckResult r = GradCheck(build, {&a}, &rng);
  EXPECT_LT(r.max_rel_error, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(AllUnaryOps, UnaryGradSweep, ::testing::Range(0, 8));

TEST(GradCheckTest, LogSoftmaxAndNll) {
  Rng rng(14);
  Parameter logits = MakeParam("logits", 6, 4, &rng);
  const std::vector<int> rows{0, 2, 5};
  const std::vector<int> labels{1, 3, 0};
  const std::vector<double> weights{1.0, 0.5, 2.0};
  auto build = [&](Tape& t) {
    return WeightedNll(LogSoftmaxRows(t.Leaf(&logits)), rows, labels, weights, 3.0);
  };
  const GradCheckResult r = GradCheck(build, {&logits}, &rng);
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheckTest, SoftmaxRows) {
  Rng rng(15);
  Parameter logits = MakeParam("logits", 5, 3, &rng);
  auto build = [&](Tape& t) {
    Var p = SoftmaxRows(t.Leaf(&logits));
    // Non-trivial downstream so the softmax Jacobian matters.
    return MeanAll(Square(Sub(p, t.Constant(la::Matrix(5, 3, 0.2)))));
  };
  const GradCheckResult r = GradCheck(build, {&logits}, &rng);
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheckTest, GatherConcatRowSums) {
  Rng rng(16);
  Parameter a = MakeParam("a", 6, 3, &rng);
  const std::vector<int> idx{0, 0, 4, 5, 2};
  auto build = [&](Tape& t) {
    Var x = t.Leaf(&a);
    Var g = GatherRows(x, idx);
    Var cat = ConcatCols({g, Square(g)});
    return MeanAll(Square(RowSums(cat)));
  };
  const GradCheckResult r = GradCheck(build, {&a}, &rng);
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheckTest, LaplacianQuadratic) {
  Rng rng(17);
  Parameter y = MakeParam("y", 6, 2, &rng);
  // Symmetric Laplacian of a small similarity graph.
  std::vector<la::Triplet> sim{{0, 1, 0.5}, {1, 0, 0.5}, {2, 3, 1.0},
                               {3, 2, 1.0}, {1, 4, 0.25}, {4, 1, 0.25}};
  la::CsrMatrix s = la::CsrMatrix::FromTriplets(6, 6, sim);
  std::vector<la::Triplet> lap;
  for (int i = 0; i < 6; ++i) {
    double degree = 0.0;
    for (int j = 0; j < 6; ++j) {
      const double v = s.At(i, j);
      if (v != 0.0) {
        lap.push_back({i, j, -v});
        degree += v;
      }
    }
    lap.push_back({i, i, degree});
  }
  auto laplacian =
      std::make_shared<la::CsrMatrix>(la::CsrMatrix::FromTriplets(6, 6, lap));
  auto build = [&](Tape& t) { return LaplacianQuadratic(laplacian, t.Leaf(&y)); };
  const GradCheckResult r = GradCheck(build, {&y}, &rng);
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(LaplacianQuadraticTest, EqualsPairwiseForm) {
  // Tr(YᵀLY) must equal ½ Σ_ij S_ij ‖y_i − y_j‖² for symmetric S.
  Rng rng(18);
  la::Matrix y = RandomMatrix(4, 3, &rng);
  std::vector<la::Triplet> sim{{0, 1, 0.7}, {1, 0, 0.7}, {2, 3, 0.2}, {3, 2, 0.2}};
  la::CsrMatrix s = la::CsrMatrix::FromTriplets(4, 4, sim);
  std::vector<la::Triplet> lap;
  for (int i = 0; i < 4; ++i) {
    double degree = 0.0;
    for (int j = 0; j < 4; ++j) {
      const double v = s.At(i, j);
      if (v != 0.0) {
        lap.push_back({i, j, -v});
        degree += v;
      }
    }
    lap.push_back({i, i, degree});
  }
  auto laplacian =
      std::make_shared<la::CsrMatrix>(la::CsrMatrix::FromTriplets(4, 4, lap));
  Tape tape;
  Var quad = LaplacianQuadratic(laplacian, tape.Constant(y));
  double pairwise = 0.0;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      const double sij = s.At(i, j);
      if (sij == 0.0) continue;
      double dist_sq = 0.0;
      for (int c = 0; c < 3; ++c) dist_sq += (y(i, c) - y(j, c)) * (y(i, c) - y(j, c));
      pairwise += 0.5 * sij * dist_sq;
    }
  }
  EXPECT_NEAR(quad.scalar(), pairwise, 1e-10);
}

// Small destination-grouped graph with self-loops (square: every node is a
// destination).
std::shared_ptr<EdgeSet> SmallEdgeSet() {
  auto edges = std::make_shared<EdgeSet>();
  const std::vector<std::vector<int>> nbrs{{0, 1, 2}, {1, 0}, {2, 0, 3}, {3, 2, 4}, {4, 3}};
  edges->num_dst = static_cast<int>(nbrs.size());
  edges->num_src = edges->num_dst;
  edges->row_ptr.assign(nbrs.size() + 1, 0);
  for (size_t i = 0; i < nbrs.size(); ++i) {
    edges->row_ptr[i + 1] = edges->row_ptr[i] + static_cast<int64_t>(nbrs[i].size());
    for (int j : nbrs[i]) edges->col_idx.push_back(j);
  }
  return edges;
}

TEST(GradCheckTest, GatAttention) {
  // Four independent heads — two replay lanes of two heads each in the
  // lane-wide layout — with gradients into the projected features and both
  // attention-vector matrices.
  Rng rng(19);
  const int n = 5, heads = 4, dim = 3;
  Parameter h = MakeParam("h", n, heads * dim, &rng);
  Parameter al = MakeParam("attn_l", dim, heads, &rng);
  Parameter ar = MakeParam("attn_r", dim, heads, &rng);
  const auto edges = SmallEdgeSet();
  auto build = [&](Tape& t) {
    Var out = GatAttention(t.Leaf(&h), t.Leaf(&al), t.Leaf(&ar), edges, heads, 0.2);
    return MeanAll(Square(out));
  };
  const GradCheckResult r = GradCheck(build, {&h, &al, &ar}, &rng, 30);
  EXPECT_LT(r.max_rel_error, 1e-4);
}

TEST(GatAttentionTest, UniformAttentionAverages) {
  // With zero attention vectors every neighbour gets weight 1/deg, so the op
  // reduces to a plain neighbourhood mean.
  const int n = 3;
  Tape tape;
  la::Matrix h(3, 2);
  h(0, 0) = 1;
  h(1, 0) = 3;
  h(2, 0) = 5;
  auto edges = std::make_shared<EdgeSet>();
  edges->num_dst = n;
  edges->num_src = n;
  edges->row_ptr = {0, 3, 4, 5};
  edges->col_idx = {0, 1, 2, 1, 2};
  Var out = GatAttention(tape.Constant(h), tape.Constant(la::Matrix(2, 1)),
                         tape.Constant(la::Matrix(2, 1)), edges, 1, 0.2);
  EXPECT_NEAR(out.value()(0, 0), 3.0, 1e-12);  // (1+3+5)/3
  EXPECT_NEAR(out.value()(1, 0), 3.0, 1e-12);
  EXPECT_NEAR(out.value()(2, 0), 5.0, 1e-12);
}

TEST(GatAttentionTest, WideCallEqualsPerLaneCallsBitwise) {
  // One call over L·H heads in the [lane][head][d] layout must reproduce L
  // narrow H-head calls on the lanes' column windows bit for bit — output
  // and every gradient — since the fused replay rests on it.
  Rng rng(29);
  const int n = 5, lanes = 3, heads = 2, dim = 4;
  const int wide_heads = lanes * heads;
  la::Matrix h = RandomMatrix(n, wide_heads * dim, &rng);
  la::Matrix al = RandomMatrix(dim, wide_heads, &rng);
  la::Matrix ar = RandomMatrix(dim, wide_heads, &rng);
  la::Matrix seed = RandomMatrix(n, wide_heads * dim, &rng);
  h(2, 5) = 0.0;  // exercises the zero-feature skips
  const auto edges = SmallEdgeSet();

  Parameter hp("h", h), lp("attn_l", al), rp("attn_r", ar);
  Tape wide;
  wide.set_accumulate_param_grads(false);
  Var wide_out =
      GatAttention(wide.Leaf(&hp), wide.Leaf(&lp), wide.Leaf(&rp), edges, wide_heads, 0.2);
  wide.BackwardWithSeed(wide_out, seed);
  std::vector<double> wide_grads;
  wide.FlattenLeafGrads({&hp, &lp, &rp}, &wide_grads);
  const la::Matrix& wide_value = wide_out.value();

  auto window = [](const la::Matrix& m, int col0, int cols) {
    la::Matrix w(m.rows(), cols);
    for (int r = 0; r < m.rows(); ++r) {
      for (int c = 0; c < cols; ++c) w(r, c) = m(r, col0 + c);
    }
    return w;
  };
  const int hw = heads * dim;
  for (int l = 0; l < lanes; ++l) {
    SCOPED_TRACE("lane " + std::to_string(l));
    Parameter hl("h", window(h, l * hw, hw));
    Parameter ll("attn_l", window(al, l * heads, heads));
    Parameter rl("attn_r", window(ar, l * heads, heads));
    Tape narrow;
    narrow.set_accumulate_param_grads(false);
    Var out = GatAttention(narrow.Leaf(&hl), narrow.Leaf(&ll), narrow.Leaf(&rl), edges,
                           heads, 0.2);
    narrow.BackwardWithSeed(out, window(seed, l * hw, hw));
    std::vector<double> grads;
    narrow.FlattenLeafGrads({&hl, &ll, &rl}, &grads);
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < hw; ++c) {
        ASSERT_EQ(out.value()(r, c), wide_value(r, l * hw + c)) << r << "," << c;
      }
    }
    // Flat order: h (n x wide), attn_l (dim x wide_heads), attn_r likewise.
    const size_t al0 = static_cast<size_t>(n) * wide_heads * dim;
    const size_t ar0 = al0 + static_cast<size_t>(dim) * wide_heads;
    const size_t nl0 = static_cast<size_t>(n) * hw;
    const size_t nr0 = nl0 + static_cast<size_t>(dim) * heads;
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < hw; ++c) {
        ASSERT_EQ(grads[static_cast<size_t>(r) * hw + c],
                  wide_grads[static_cast<size_t>(r) * wide_heads * dim + l * hw + c])
            << "dh " << r << "," << c;
      }
    }
    for (int c = 0; c < dim; ++c) {
      for (int k = 0; k < heads; ++k) {
        const size_t narrow_at = static_cast<size_t>(c) * heads + k;
        const size_t wide_at = static_cast<size_t>(c) * wide_heads + l * heads + k;
        ASSERT_EQ(grads[nl0 + narrow_at], wide_grads[al0 + wide_at]) << "dattn_l";
        ASSERT_EQ(grads[nr0 + narrow_at], wide_grads[ar0 + wide_at]) << "dattn_r";
      }
    }
  }
}

TEST(GradCheckTest, RiskSurrogateShapedExpression) {
  // Composite expression mirroring the risk surrogate: means, variances,
  // Abs and Div of 1x1 nodes.
  Rng rng(20);
  Parameter logits = MakeParam("logits", 8, 3, &rng);
  const std::vector<int> us{0, 1, 2, 3};
  const std::vector<int> vs{4, 5, 6, 7};
  auto build = [&](Tape& t) {
    Var p = SoftmaxRows(t.Leaf(&logits));
    Var d = RowSums(Square(Sub(GatherRows(p, us), GatherRows(p, vs))));
    Var mean = MeanAll(d);
    Var var = MeanAll(Square(Sub(d, ExpandScalar(mean, d.rows(), 1))));
    return Div(Abs(mean), AddScalar(var, 1e-3));
  };
  const GradCheckResult r = GradCheck(build, {&logits}, &rng, 20, 1e-6);
  EXPECT_LT(r.max_rel_error, 1e-3);
}

TEST(OpsTest, NegAndSubConsistency) {
  Rng rng(21);
  Parameter a = MakeParam("a", 2, 2, &rng);
  Tape tape;
  Var x = tape.Leaf(&a);
  Var lhs = Neg(x);
  Var rhs = Sub(tape.Constant(la::Matrix(2, 2, 0.0)), x);
  EXPECT_LT(la::Sub(lhs.value(), rhs.value()).MaxAbs(), 1e-15);
}

}  // namespace
}  // namespace ppfr::ag
