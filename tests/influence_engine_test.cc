// Tests for the influence-engine hot path: TapePool (parallel per-seed
// backward over one shared forward tape), the ReusableLossGraph tape arena,
// the trainer's cross-epoch tape replay, the block-CG solver (including its
// collapse finisher) and the lane-fused probe-gradient engine every
// inverse-HVP solve runs on. The central contract is BITWISE determinism:
// the pooled/replayed paths must reproduce the serial reference
// implementations bit for bit, for any lane count and under every compute
// backend.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "autograd/ops.h"
#include "autograd/tape.h"
#include "common/recoverable.h"
#include "data/split.h"
#include "fairness/bias_metric.h"
#include "influence/influence.h"
#include "influence/param_vector.h"
#include "influence/tape_pool.h"
#include "la/backend.h"
#include "nn/adam.h"
#include "nn/models.h"
#include "nn/trainer.h"
#include "test_util.h"

namespace ppfr::influence {
namespace {

struct EngineFixture {
  data::NodeClassificationData data;
  nn::GraphContext ctx;
  data::Split split;
  std::unique_ptr<nn::GnnModel> model;

  explicit EngineFixture(nn::ModelKind kind, uint64_t seed = 31)
      : data(ppfr::testing::SmallSbm(seed, 140, 3)),
        ctx(nn::GraphContext::Build(data.graph, data.features)),
        split(data::MakeSplit(data.graph.num_nodes(), 40, 0, 3)),
        model(nn::MakeModel(kind, ctx.feature_dim(), data.num_classes, 5)) {
    nn::TrainConfig cfg;
    cfg.epochs = 30;
    nn::Train(model.get(), ctx, split.train, data.labels, cfg);
  }

  std::vector<std::vector<double>> PerNodeGrads(const InfluenceConfig& config) {
    InfluenceCalculator calc(model.get(), ctx, split.train, data.labels, config);
    return calc.PerNodeLossGrads();
  }

  std::vector<std::vector<double>> SerialReferencePerNodeGrads() {
    InfluenceCalculator calc(model.get(), ctx, split.train, data.labels,
                             InfluenceConfig{});
    return calc.PerNodeLossGradsSerialReference();
  }
};

void ExpectBitwiseEqual(const std::vector<std::vector<double>>& want,
                        const std::vector<std::vector<double>>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t k = 0; k < want.size(); ++k) {
    ASSERT_EQ(want[k].size(), got[k].size()) << "seed " << k;
    for (size_t i = 0; i < want[k].size(); ++i) {
      ASSERT_EQ(want[k][i], got[k][i])
          << "seed " << k << " component " << i << " differs";
    }
  }
}

class TapePoolBitwise : public ::testing::TestWithParam<la::BackendKind> {};

TEST_P(TapePoolBitwise, PooledEqualsSerialReferenceAcrossLaneCounts) {
  la::ScopedBackend scoped(GetParam(), 4);
  EngineFixture fx(nn::ModelKind::kGcn);

  const auto want = fx.SerialReferencePerNodeGrads();
  ASSERT_EQ(want.size(), fx.split.train.size());

  for (int lanes : {1, 2, 4}) {
    InfluenceConfig pooled_cfg;
    pooled_cfg.tape_pool_lanes = lanes;
    const auto got = fx.PerNodeGrads(pooled_cfg);
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    ExpectBitwiseEqual(want, got);
  }
}

TEST_P(TapePoolBitwise, PooledEqualsSerialReferenceOnGat) {
  // GAT's fused attention backward propagates per-edge row supports (the
  // seeded destination rows and the union of their neighbour lists), so the
  // pooled per-node path prunes to the seed's receptive field just like
  // GCN's SpMM path — and must still match the serial reference bit for bit.
  la::ScopedBackend scoped(GetParam(), 3);
  EngineFixture fx(nn::ModelKind::kGat);

  const auto want = fx.SerialReferencePerNodeGrads();

  InfluenceConfig pooled_cfg;
  pooled_cfg.tape_pool_lanes = 3;
  ExpectBitwiseEqual(want, fx.PerNodeGrads(pooled_cfg));
}

TEST(GatAttentionSupportTest, SparseSeedEqualsDenseSeedBitwise) {
  // Drives the fused GAT op directly: a sparse-seeded backward (known row
  // support → support-pruned path) must reproduce a dense whole-matrix seed
  // with the same nonzeros (unknown support → dense path) exactly, for every
  // parent (h, attn_left, attn_right). Four heads — two replay lanes of two
  // heads — so the seeds land in different (lane, head) blocks.
  Rng rng(21);
  const int n = 7;
  const int heads = 4;
  const int dim = 3;
  auto edges = std::make_shared<ag::EdgeSet>();
  edges->num_dst = n;
  edges->num_src = n;
  edges->row_ptr.push_back(0);
  for (int i = 0; i < n; ++i) {  // ring + self-loops
    edges->col_idx.push_back(i);
    edges->col_idx.push_back((i + 1) % n);
    edges->col_idx.push_back((i + n - 1) % n);
    edges->row_ptr.push_back(static_cast<int64_t>(edges->col_idx.size()));
  }
  ag::Parameter hp("h", ppfr::testing::RandomMatrix(n, heads * dim, &rng));
  ag::Parameter lp("attn_l", ppfr::testing::RandomMatrix(dim, heads, &rng));
  ag::Parameter rp("attn_r", ppfr::testing::RandomMatrix(dim, heads, &rng));
  const std::vector<ag::Parameter*> params{&hp, &lp, &rp};

  auto run = [&](bool sparse_seed) {
    for (ag::Parameter* p : params) p->ZeroGrad();
    ag::Tape tape;
    ag::Var out = ag::GatAttention(tape.Leaf(&hp), tape.Leaf(&lp), tape.Leaf(&rp),
                                   edges, heads, /*leaky_slope=*/0.2);
    if (sparse_seed) {
      tape.BackwardWithSparseSeed(out, {3, 3, 5}, {2, 7, 10}, {1.5, -0.5, 0.25});
    } else {
      la::Matrix seed(n, heads * dim);
      seed(3, 2) = 1.5;
      seed(3, 7) = -0.5;
      seed(5, 10) = 0.25;
      tape.BackwardWithSeed(out, seed);
    }
    return FlattenGrads(params);
  };

  const std::vector<double> sparse = run(true);
  const std::vector<double> dense = run(false);
  ASSERT_EQ(sparse.size(), dense.size());
  for (size_t i = 0; i < sparse.size(); ++i) {
    ASSERT_EQ(sparse[i], dense[i]) << "component " << i;
  }
}

TEST(GatherRowsSupportTest, SparseSeedEqualsDenseSeedBitwise) {
  // The block self-term gather (a repeated index included): a sparse-seeded
  // backward must scatter only the supported rows yet reproduce the dense
  // whole-matrix seed exactly.
  Rng rng(23);
  ag::Parameter ap("a", ppfr::testing::RandomMatrix(6, 3, &rng));
  const std::vector<int> indices = {4, 0, 4, 2, 5};
  auto run = [&](bool sparse_seed) {
    ap.ZeroGrad();
    ag::Tape tape;
    ag::Var out = ag::Tanh(ag::GatherRows(tape.Leaf(&ap), indices));
    if (sparse_seed) {
      tape.BackwardWithSparseSeed(out, {0, 2, 2}, {1, 0, 2}, {0.75, -1.25, 2.0});
    } else {
      la::Matrix seed(5, 3);
      seed(0, 1) = 0.75;
      seed(2, 0) = -1.25;
      seed(2, 2) = 2.0;
      tape.BackwardWithSeed(out, seed);
    }
    return FlattenGrads({&ap});
  };
  EXPECT_EQ(run(true), run(false));
}

INSTANTIATE_TEST_SUITE_P(Backends, TapePoolBitwise,
                         ::testing::Values(la::BackendKind::kReference,
                                           la::BackendKind::kParallel),
                         [](const ::testing::TestParamInfo<la::BackendKind>& info) {
                           return la::BackendKindName(info.param);
                         });

TEST(TapePoolTest, SparseSeedMatchesMaterialisedLossNode) {
  // Seeding -w/denom at (v, label) must equal building the WeightedNll node
  // and back-propagating a unit seed through it.
  Rng rng(7);
  ag::Parameter logits_param("logits", ppfr::testing::RandomMatrix(9, 4, &rng));

  auto grads_via_loss_node = [&] {
    logits_param.ZeroGrad();
    ag::Tape tape;
    ag::Var logp = ag::LogSoftmaxRows(tape.Leaf(&logits_param));
    ag::Var loss = ag::WeightedNll(logp, {3}, {2}, {1.0}, 1.0);
    tape.Backward(loss);
    return FlattenGrads({&logits_param});
  }();

  TapePool pool(
      [&](ag::Tape& tape) { return ag::LogSoftmaxRows(tape.Leaf(&logits_param)); },
      {&logits_param}, /*num_lanes=*/1);
  const auto pooled = pool.PerSeedGrads(
      1, [](int, std::vector<int>* rows, std::vector<int>* cols,
            std::vector<double>* values) {
        rows->push_back(3);
        cols->push_back(2);
        values->push_back(-1.0);
      });

  ASSERT_EQ(pooled.size(), 1u);
  ASSERT_EQ(pooled[0].size(), grads_via_loss_node.size());
  for (size_t i = 0; i < pooled[0].size(); ++i) {
    EXPECT_EQ(pooled[0][i], grads_via_loss_node[i]) << "component " << i;
  }
}

TEST(TapePoolTest, DoesNotTouchParameterGrads) {
  Rng rng(8);
  ag::Parameter p("p", ppfr::testing::RandomMatrix(5, 3, &rng));
  p.grad.Fill(42.0);
  TapePool pool([&](ag::Tape& tape) { return ag::LogSoftmaxRows(tape.Leaf(&p)); },
                {&p}, /*num_lanes=*/2);
  pool.PerSeedGrads(4, [](int k, std::vector<int>* rows, std::vector<int>* cols,
                          std::vector<double>* values) {
    rows->push_back(k % 5);
    cols->push_back(0);
    values->push_back(-1.0);
  });
  for (int64_t i = 0; i < p.grad.size(); ++i) {
    EXPECT_EQ(p.grad.data()[i], 42.0) << "Parameter::grad clobbered at " << i;
  }
}

TEST(ReusableLossGraphTest, ReplayedGradMatchesFreshTapeBitwise) {
  Rng rng(9);
  ag::Parameter w("w", ppfr::testing::RandomMatrix(6, 4, &rng));
  ag::Parameter b("b", ppfr::testing::RandomMatrix(1, 4, &rng));
  const std::vector<ag::Parameter*> params{&w, &b};
  auto build = [&](ag::Tape& tape) {
    ag::Var h = ag::AddRowVec(ag::Tanh(tape.Leaf(&w)), tape.Leaf(&b));
    return ag::MeanAll(ag::Square(h));
  };

  auto fresh_grad = [&] {
    for (ag::Parameter* p : params) p->ZeroGrad();
    ag::Tape tape;
    tape.Backward(build(tape));
    return FlattenGrads(params);
  };

  ReusableLossGraph graph(build, params);
  const std::vector<double> want = fresh_grad();
  // Several replays, including after a parameter update, must track the
  // fresh-tape gradient exactly.
  for (int round = 0; round < 3; ++round) {
    const std::vector<double> got = graph.Grad();
    const std::vector<double> expect = fresh_grad();
    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], expect[i]) << "round " << round << " component " << i;
    }
    for (int64_t i = 0; i < w.value.size(); ++i) w.value.data()[i] += 0.01 * (round + 1);
  }
  (void)want;
}

class TrainerReplay : public ::testing::TestWithParam<nn::ModelKind> {};

TEST_P(TrainerReplay, ReplayedEpochsMatchFreshTapesBitwise) {
  const auto data = ppfr::testing::SmallSbm(12, 90, 3);
  auto ctx = nn::GraphContext::Build(data.graph, data.features);
  const auto split = data::MakeSplit(data.graph.num_nodes(), 25, 0, 3);

  auto run = [&](bool reuse) {
    auto model = nn::MakeModel(GetParam(), ctx.feature_dim(), data.num_classes, 5);
    nn::TrainConfig cfg;
    cfg.epochs = 12;
    cfg.reuse_tape = reuse;
    const nn::TrainStats stats = nn::Train(model.get(), ctx, split.train,
                                           data.labels, cfg);
    std::vector<double> flat = FlattenValues(model->Params());
    flat.insert(flat.end(), stats.epoch_losses.begin(), stats.epoch_losses.end());
    return flat;
  };

  const std::vector<double> replayed = run(true);
  const std::vector<double> fresh = run(false);
  ASSERT_EQ(replayed.size(), fresh.size());
  for (size_t i = 0; i < replayed.size(); ++i) {
    ASSERT_EQ(replayed[i], fresh[i]) << "component " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Models, TrainerReplay,
                         ::testing::Values(nn::ModelKind::kGcn, nn::ModelKind::kGat,
                                           nn::ModelKind::kGraphSage),
                         [](const ::testing::TestParamInfo<nn::ModelKind>& info) {
                           return nn::ModelKindName(info.param);
                         });

// ---------------------------------------------------------------------------
// Block-CG multi-RHS solver. Contracts under test (see influence/hvp.h):
// k = 1 equals the single-RHS oracle bit for bit; k > 1 agrees per column to
// solver tolerance; a fixed block is bitwise invariant across thread and lane
// counts; converged columns deflate individually; zero and duplicate RHS
// columns are handled exactly.
// ---------------------------------------------------------------------------

// Quadratic test bed L(θ) = ½θᵀAθ - bᵀθ (exact Hessian A), same shape as the
// fixture in influence_test.cc, plus the batch evaluation the block solver
// consumes: ∇L at an absolute point p is A·p - c, independent of θ.
struct BlockQuadratic {
  ag::Parameter theta;
  la::Matrix a;  // SPD (n x n)
  std::vector<double> c;

  explicit BlockQuadratic(int n, uint64_t seed) : theta("theta", la::Matrix(n, 1)) {
    Rng rng(seed);
    la::Matrix m = ppfr::testing::RandomMatrix(n, n, &rng);
    a = la::MatMulTransA(m, m);
    for (int i = 0; i < n; ++i) a(i, i) += 1.0;
    c.resize(static_cast<size_t>(n));
    for (auto& v : c) v = rng.Normal();
    for (int i = 0; i < n; ++i) theta.value(i, 0) = rng.Normal();
  }

  std::vector<double> GradAt(const std::vector<double>& point) const {
    std::vector<double> g(static_cast<size_t>(a.rows()));
    for (int i = 0; i < a.rows(); ++i) {
      double s = -c[static_cast<size_t>(i)];
      for (int j = 0; j < a.cols(); ++j) s += a(i, j) * point[static_cast<size_t>(j)];
      g[static_cast<size_t>(i)] = s;
    }
    return g;
  }

  BatchGradFn MakeBatchGradFn() {
    return [this](const std::vector<std::vector<double>>& points) {
      std::vector<std::vector<double>> grads;
      grads.reserve(points.size());
      for (const auto& p : points) grads.push_back(GradAt(p));
      return grads;
    };
  }

  std::vector<double> Theta() { return FlattenValues({&theta}); }
};

MultiVector RandomRhs(int64_t dim, int k, uint64_t seed) {
  Rng rng(seed);
  MultiVector b(dim, k);
  for (int j = 0; j < k; ++j) {
    for (int64_t i = 0; i < dim; ++i) b.col(j)[i] = rng.Normal();
  }
  return b;
}

class BlockCgBackend : public ::testing::TestWithParam<la::BackendKind> {};

TEST_P(BlockCgBackend, SingleColumnBlockEqualsOracleBitwise) {
  la::ScopedBackend scoped(GetParam(), 4);
  BlockQuadratic problem(10, 17);
  const MultiVector b = RandomRhs(10, 1, 18);
  CgOptions options;
  options.max_iterations = 60;
  options.tolerance = 1e-10;

  const CgResult oracle = ConjugateGradientSolve(
      problem.Theta(), problem.MakeBatchGradFn(), b.Column(0), options);
  const BlockCgResult block = BlockConjugateGradientSolve(
      problem.Theta(), problem.MakeBatchGradFn(), b, options);

  ASSERT_EQ(block.x.k(), 1);
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_EQ(block.x.col(0)[i], oracle.x[static_cast<size_t>(i)]) << "component " << i;
  }
  EXPECT_EQ(block.residual_norm[0], oracle.residual_norm);
  EXPECT_EQ(block.iterations[0], oracle.iterations);
}

TEST_P(BlockCgBackend, BlockMatchesOraclePerColumnWithinTolerance) {
  la::ScopedBackend scoped(GetParam(), 2);
  const int n = 12;
  BlockQuadratic problem(n, 23);
  CgOptions options;
  options.max_iterations = 80;
  options.tolerance = 1e-10;

  for (int k : {2, 3, 8}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    const MultiVector b = RandomRhs(n, k, 100 + static_cast<uint64_t>(k));
    const BlockCgResult block = BlockConjugateGradientSolve(
        problem.Theta(), problem.MakeBatchGradFn(), b, options);
    for (int j = 0; j < k; ++j) {
      EXPECT_TRUE(block.converged[static_cast<size_t>(j)]) << "column " << j;
      const CgResult oracle = ConjugateGradientSolve(
          problem.Theta(), problem.MakeBatchGradFn(), b.Column(j), options);
      double num = 0.0;
      double den = 0.0;
      for (int64_t i = 0; i < n; ++i) {
        const double d = block.x.col(j)[i] - oracle.x[static_cast<size_t>(i)];
        num += d * d;
        den += oracle.x[static_cast<size_t>(i)] * oracle.x[static_cast<size_t>(i)];
      }
      EXPECT_LT(std::sqrt(num / std::max(den, 1e-30)), 1e-6)
          << "column " << j << " diverges from the single-RHS oracle";
    }
  }
}

TEST_P(BlockCgBackend, FixedBlockIsBitwiseInvariantAcrossThreadCounts) {
  const int n = 14;
  const int k = 4;
  CgOptions options;
  options.max_iterations = 80;
  options.tolerance = 1e-10;

  std::vector<std::vector<double>> runs;
  for (int threads : {1, 2, 4}) {
    la::ScopedBackend scoped(GetParam(), threads);
    BlockQuadratic problem(n, 41);  // rebuilt identically per run
    const MultiVector b = RandomRhs(n, k, 42);
    const BlockCgResult block = BlockConjugateGradientSolve(
        problem.Theta(), problem.MakeBatchGradFn(), b, options);
    std::vector<double> flat;
    for (int j = 0; j < k; ++j) {
      const std::vector<double> col = block.x.Column(j);
      flat.insert(flat.end(), col.begin(), col.end());
      flat.push_back(block.residual_norm[static_cast<size_t>(j)]);
      flat.push_back(static_cast<double>(block.iterations[static_cast<size_t>(j)]));
    }
    runs.push_back(std::move(flat));
  }
  for (size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (size_t i = 0; i < runs[0].size(); ++i) {
      ASSERT_EQ(runs[r][i], runs[0][i]) << "thread-count run " << r << " entry " << i;
    }
  }
}

TEST(BlockCgTest, DeflationRetiresEasyColumnsEarly) {
  // Diagonal Hessian: a single-coordinate RHS lives in a 1-dimensional Krylov
  // space and converges on the first block iteration, while a dense RHS needs
  // one iteration per distinct eigenvalue — so the easy column must deflate
  // out with a strictly smaller per-RHS iteration count.
  const int n = 10;
  BlockQuadratic problem(n, 55);
  problem.a = la::Matrix(n, n);
  for (int i = 0; i < n; ++i) problem.a(i, i) = 1.0 + 0.37 * i;

  MultiVector b(n, 2);
  for (int64_t i = 0; i < n; ++i) b.col(0)[i] = 1.0;  // dense: needs n eigenvalues
  b.col(1)[3] = 2.5;                                  // single coordinate: 1 iteration

  CgOptions options;
  options.max_iterations = 60;
  options.tolerance = 1e-10;
  const BlockCgResult block = BlockConjugateGradientSolve(
      problem.Theta(), problem.MakeBatchGradFn(), b, options);

  EXPECT_TRUE(block.converged[0]);
  EXPECT_TRUE(block.converged[1]);
  EXPECT_LT(block.iterations[1], block.iterations[0]);
  // Exact solutions of (A + λI) x = b for the diagonal A.
  for (int64_t i = 0; i < n; ++i) {
    const double denom = problem.a(static_cast<int>(i), static_cast<int>(i)) +
                         options.damping;
    EXPECT_NEAR(block.x.col(0)[i], 1.0 / denom, 1e-7) << "dense column entry " << i;
    EXPECT_NEAR(block.x.col(1)[i], (i == 3 ? 2.5 : 0.0) / denom, 1e-7)
        << "sparse column entry " << i;
  }
}

TEST(BlockCgTest, ZeroAndDuplicateColumnsAreExact) {
  const int n = 9;
  BlockQuadratic problem(n, 71);
  const MultiVector base = RandomRhs(n, 2, 72);
  MultiVector b(n, 4);
  // col 0: zero. col 1 and col 3: bitwise duplicates. col 2: independent.
  b.SetColumn(1, base.Column(0));
  b.SetColumn(2, base.Column(1));
  b.SetColumn(3, base.Column(0));

  CgOptions options;
  options.max_iterations = 60;
  options.tolerance = 1e-10;
  const BlockCgResult block = BlockConjugateGradientSolve(
      problem.Theta(), problem.MakeBatchGradFn(), b, options);

  EXPECT_TRUE(block.converged[0]);
  EXPECT_EQ(block.iterations[0], 0);
  EXPECT_EQ(block.residual_norm[0], 0.0);
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(block.x.col(0)[i], 0.0) << "zero RHS must yield the zero solution";
    ASSERT_EQ(block.x.col(1)[i], block.x.col(3)[i])
        << "duplicate RHS columns must share the representative's bits";
  }
  EXPECT_EQ(block.iterations[1], block.iterations[3]);
  EXPECT_EQ(block.residual_norm[1], block.residual_norm[3]);
}

// Total collapse: on an indefinite quadratic whose right-hand sides all sit
// in the negative-curvature subspace, every direction of the first block
// fails its PᵀAP pivot, so every column is frozen before any block update
// and finished through the single-RHS oracle.
struct CollapseCase {
  BlockQuadratic problem{8, 61};
  MultiVector b{8, 3};
  CgOptions options;
  int points_evaluated = 0;

  CollapseCase() {
    problem.a = la::Matrix(8, 8);
    for (int i = 0; i < 8; ++i) {
      problem.a(i, i) = (i % 2 == 0 ? 1.0 : -1.0) * (1.0 + 0.3 * i);
    }
    Rng rng(62);
    for (int j = 0; j < b.k(); ++j) {
      for (int64_t i = 1; i < b.dim(); i += 2) b.col(j)[i] = rng.Normal();
    }
    options.damping = 0.01;
    options.max_iterations = 20;
    options.tolerance = 1e-10;
  }

  // The quadratic's gradients, counting every point evaluated.
  BatchGradFn CountingGrad() {
    const BatchGradFn inner = problem.MakeBatchGradFn();
    return [this, inner](const std::vector<std::vector<double>>& points) {
      points_evaluated += static_cast<int>(points.size());
      return inner(points);
    };
  }
};

TEST(BlockCgTest, TotalCollapseFinishesThroughTheSingleRhsOracle) {
  CollapseCase c;
  const BlockCgResult block =
      BlockConjugateGradientSolve(c.problem.Theta(), c.CountingGrad(), c.b, c.options);

  // One block iteration probes all 3 directions; each finisher solve then
  // spends 2 probe points per iteration, and grad_evals counts both.
  int finisher_evals = 0;
  for (int j = 0; j < c.b.k(); ++j) {
    SCOPED_TRACE("column " + std::to_string(j));
    const CgResult oracle = ConjugateGradientSolve(
        c.problem.Theta(), c.problem.MakeBatchGradFn(), c.b.Column(j), c.options);
    finisher_evals += 2 * oracle.iterations;
    ASSERT_EQ(block.x.Column(j), oracle.x);
    EXPECT_EQ(block.residual_norm[static_cast<size_t>(j)], oracle.residual_norm);
    EXPECT_EQ(block.iterations[static_cast<size_t>(j)], oracle.iterations);
    EXPECT_FALSE(block.converged[static_cast<size_t>(j)]);
  }
  EXPECT_EQ(block.stats.block_iterations, 1);
  EXPECT_EQ(block.stats.grad_evals, 2 * c.b.k() + finisher_evals);
  EXPECT_EQ(block.stats.grad_evals, c.points_evaluated);
}

TEST(BlockCgTest, NonFiniteFinisherResidualIsRecoverableNotTransient) {
  // The block phase sees the collapsing quadratic; the finisher's one-column
  // HVPs (2 probe points each) see NaN gradients.
  CollapseCase c;
  const BatchGradFn grads = c.problem.MakeBatchGradFn();
  const BatchGradFn poisoned = [&](const std::vector<std::vector<double>>& points) {
    std::vector<std::vector<double>> out = grads(points);
    if (points.size() == 2) {
      for (auto& g : out) g.assign(g.size(), std::numeric_limits<double>::quiet_NaN());
    }
    return out;
  };
  try {
    BlockConjugateGradientSolve(c.problem.Theta(), poisoned, c.b, c.options);
    FAIL() << "a non-finite finisher residual must throw";
  } catch (const RecoverableError& e) {
    EXPECT_FALSE(e.transient()) << e.what();
  }
}

TEST(BlockInfluenceTest, CgBlockOneReproducesSingleRhsOracleBitwise) {
  // On the real GNN pipeline: cg_block = 1 routes every RHS through the
  // single-RHS oracle, so InfluenceOnFunctions must equal the per-function
  // entry points bit for bit.
  EngineFixture fx(nn::ModelKind::kGcn, /*seed=*/37);
  InfluenceConfig cfg;
  cfg.cg_block = 1;
  // A PD regime where the solve actually converges (the default damping of
  // 0.01 leaves this trained model's Hessian indefinite, and the oracle
  // truncates via its p_ap <= 0 safeguard), so converged_rhs is checkable.
  cfg.cg.damping = 1.0;
  cfg.cg.max_iterations = 300;
  cfg.cg.tolerance = 1e-6;
  InfluenceCalculator calc(fx.model.get(), fx.ctx, fx.split.train, fx.data.labels,
                           cfg);
  InfluenceCalculator oracle(fx.model.get(), fx.ctx, fx.split.train, fx.data.labels,
                             cfg);
  const auto batched = calc.InfluenceOnFunctions({calc.UtilityFunction()});
  const auto single = oracle.InfluenceOnFunction(oracle.UtilityFunction());
  ASSERT_EQ(batched.size(), 1u);
  ASSERT_EQ(batched[0].size(), single.size());
  for (size_t v = 0; v < single.size(); ++v) {
    ASSERT_EQ(batched[0][v], single[v]) << "node " << v;
  }
  EXPECT_EQ(calc.block_stats().total_rhs, 1);
  EXPECT_EQ(calc.block_stats().converged_rhs, 1);
}

TEST(BlockInfluenceTest, SolvesLeaveModelParametersAndGradsUntouched) {
  // Every Hessian-vector product evaluates probe gradients on pooled model
  // clones, and the RHS gradients are read from their tapes: neither the
  // batched nor the single-RHS path writes the model's values or grads.
  EngineFixture fx(nn::ModelKind::kGcn, /*seed=*/41);
  Rng rng(42);
  for (ag::Parameter* p : fx.model->Params()) {
    for (int64_t i = 0; i < p->grad.size(); ++i) p->grad.data()[i] = rng.Normal();
  }
  const std::vector<ag::Parameter*> params = fx.model->Params();
  const std::vector<double> values = FlattenValues(params);
  const std::vector<double> grads = FlattenGrads(params);

  InfluenceConfig cfg;
  cfg.cg.max_iterations = 5;
  InfluenceCalculator calc(fx.model.get(), fx.ctx, fx.split.train, fx.data.labels, cfg);
  const auto batched = calc.InfluenceOnFunctions(
      {calc.UtilityFunction(), InfluenceCalculator::BiasFunction(
                                   fairness::SimilarityContext::FromGraph(fx.data.graph)
                                       .laplacian)});
  ASSERT_EQ(batched.size(), 2u);
  calc.InfluenceOnFunction(calc.UtilityFunction());

  EXPECT_EQ(FlattenValues(params), values);
  EXPECT_EQ(FlattenGrads(params), grads);
}

TEST(BlockInfluenceTest, SingleRhsInfluenceIsBitwiseInvariantToReplayWidth) {
  // Single-RHS CG evaluates 2 probe points per call on a width-min(replay
  // lanes, 2) pool; width 1 and width 2 must give the same bits.
  EngineFixture fx(nn::ModelKind::kGcn, /*seed=*/45);
  auto run = [&](int replay_lanes) {
    InfluenceConfig cfg;
    cfg.cg.max_iterations = 6;
    cfg.replay_lanes = replay_lanes;
    InfluenceCalculator calc(fx.model.get(), fx.ctx, fx.split.train, fx.data.labels,
                             cfg);
    return calc.InfluenceOnFunction(calc.UtilityFunction());
  };
  EXPECT_EQ(run(1), run(8));
}

TEST(BlockInfluenceTest, BlockedInfluenceMatchesOracleWithinTolerance) {
  EngineFixture fx(nn::ModelKind::kGcn, /*seed=*/39);
  InfluenceConfig cfg;
  cfg.cg_block = 8;
  // Damping that keeps the trained model's damped Hessian positive definite,
  // so both sides run CONVERGED solves (unconverged truncations of the two
  // Krylov processes would differ arbitrarily).
  cfg.cg.damping = 1.0;
  cfg.cg.max_iterations = 200;
  cfg.cg.tolerance = 1e-9;
  InfluenceCalculator calc(fx.model.get(), fx.ctx, fx.split.train, fx.data.labels,
                           cfg);
  InfluenceConfig oracle_cfg = cfg;
  oracle_cfg.cg_block = 1;
  InfluenceCalculator oracle(fx.model.get(), fx.ctx, fx.split.train, fx.data.labels,
                             oracle_cfg);

  std::vector<int> targets;
  for (int t = 0; t < 12; ++t) targets.push_back(fx.split.train[static_cast<size_t>(t)]);
  const auto blocked = calc.InfluenceOnNodeLosses(targets);
  const auto single = oracle.InfluenceOnNodeLosses(targets);
  ASSERT_EQ(blocked.size(), single.size());
  double max_rel = 0.0;
  for (size_t t = 0; t < blocked.size(); ++t) {
    double num = 0.0;
    double den = 0.0;
    ASSERT_EQ(blocked[t].size(), single[t].size());
    for (size_t v = 0; v < blocked[t].size(); ++v) {
      const double d = blocked[t][v] - single[t][v];
      num += d * d;
      den += single[t][v] * single[t][v];
    }
    max_rel = std::max(max_rel, std::sqrt(num / std::max(den, 1e-30)));
  }
  // Both sides are converged solves of the same systems; they differ only in
  // Krylov-space roundoff, far below the solver tolerance's effect on I.
  EXPECT_LT(max_rel, 1e-4) << "blocked influence sweep diverges from the oracle";
  EXPECT_GT(calc.block_stats().grad_evals, 0);
  EXPECT_EQ(calc.block_stats().total_rhs, static_cast<int>(targets.size()));
}

TEST(BlockInfluenceTest, FixedBlockIsBitwiseInvariantAcrossLaneCounts) {
  EngineFixture fx(nn::ModelKind::kGcn, /*seed=*/43);
  std::vector<int> targets;
  for (int t = 0; t < 6; ++t) targets.push_back(fx.split.train[static_cast<size_t>(t)]);

  auto run = [&](int lanes) {
    InfluenceConfig cfg;
    cfg.cg_block = 6;
    cfg.tape_pool_lanes = lanes;
    InfluenceCalculator calc(fx.model.get(), fx.ctx, fx.split.train, fx.data.labels,
                             cfg);
    return calc.InfluenceOnNodeLosses(targets);
  };

  const auto want = run(1);
  for (int lanes : {2, 4}) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    ExpectBitwiseEqual(want, run(lanes));
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, BlockCgBackend,
                         ::testing::Values(la::BackendKind::kReference,
                                           la::BackendKind::kParallel),
                         [](const ::testing::TestParamInfo<la::BackendKind>& info) {
                           return la::BackendKindName(info.param);
                         });

// setenv/restore guard for the PPFR_* influence environment variables.
class ScopedEnvVar {
 public:
  ScopedEnvVar(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) previous_ = old;
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnvVar() {
    if (previous_.has_value()) {
      ::setenv(name_, previous_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> previous_;
};

TEST(InfluenceEnvTest, ValidValuesResolveAsDocumented) {
  {
    ScopedEnvVar block("PPFR_CG_BLOCK", "");  // empty means the default
    ScopedEnvVar lanes("PPFR_REPLAY_LANES", "");
    EXPECT_EQ(ResolveCgBlock(0), 8);
    EXPECT_EQ(ResolveReplayLanes(0), 8);
  }
  ScopedEnvVar block("PPFR_CG_BLOCK", "16");
  ScopedEnvVar lanes("PPFR_REPLAY_LANES", "4");
  EXPECT_EQ(ResolveCgBlock(0), 16);
  EXPECT_EQ(ResolveReplayLanes(0), 4);
  EXPECT_EQ(ResolveCgBlock(3), 3);  // a configured value wins
  EXPECT_EQ(ResolveReplayLanes(2), 2);
}

TEST(InfluenceEnvDeathTest, MalformedValuesAbortNamingTheVariable) {
  {
    ScopedEnvVar env("PPFR_CG_BLOCK", "16x");
    EXPECT_DEATH(ResolveCgBlock(0), "PPFR_CG_BLOCK.*'16x'");
  }
  {
    ScopedEnvVar env("PPFR_CG_BLOCK", "abc");
    EXPECT_DEATH(ResolveCgBlock(0), "PPFR_CG_BLOCK.*'abc'");
  }
  {
    ScopedEnvVar env("PPFR_REPLAY_LANES", "8 lanes");
    EXPECT_DEATH(ResolveReplayLanes(0), "PPFR_REPLAY_LANES.*'8 lanes'");
  }
  {
    ScopedEnvVar env("PPFR_REPLAY_LANES", "eight");
    EXPECT_DEATH(ResolveReplayLanes(0), "PPFR_REPLAY_LANES.*'eight'");
  }
  {
    ScopedEnvVar env("PPFR_CG_BLOCK", "0");  // not a block width
    EXPECT_DEATH(ResolveCgBlock(0), "PPFR_CG_BLOCK.*'0'");
  }
}

// ---- Lane-fused tape replay: the batched probe-gradient engine ----

// Deterministic probe points around the trained parameters: small absolute
// perturbations so every point stays in the model's smooth regime.
std::vector<std::vector<double>> ProbePoints(const std::vector<double>& theta0,
                                             int count, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> normal(0.0, 1e-3);
  std::vector<std::vector<double>> points(static_cast<size_t>(count), theta0);
  for (auto& p : points) {
    for (double& v : p) v += normal(rng);
  }
  return points;
}

std::vector<std::vector<double>> FusedGradsAt(
    EngineFixture& fx, int replay_lanes, int pool_lanes,
    const std::vector<std::vector<double>>& points) {
  InfluenceConfig cfg;
  cfg.replay_lanes = replay_lanes;
  cfg.tape_pool_lanes = pool_lanes;
  // cg_block bounds the fused width (probe budget clamp); keep it wide
  // enough that replay_lanes is the binding knob in these tests.
  cfg.cg_block = 8;
  InfluenceCalculator calc(fx.model.get(), fx.ctx, fx.split.train, fx.data.labels,
                           cfg);
  return calc.BatchTrainGrad()(points);
}

class FusedReplayBitwise
    : public ::testing::TestWithParam<std::tuple<la::BackendKind, nn::ModelKind>> {
 protected:
  la::BackendKind backend() const { return std::get<0>(GetParam()); }
  nn::ModelKind model_kind() const { return std::get<1>(GetParam()); }
};

TEST_P(FusedReplayBitwise, FusedWidthsReproduceSerialReplayBitwise) {
  // The load-bearing fusion contract: for every lane width, chunk-worker
  // count, and thread count, the fused wide replay returns the width-1
  // serial replay's gradients bit for bit.
  la::ScopedBackend scoped(backend(), 4);
  EngineFixture fx(model_kind(), /*seed=*/47);
  const auto points =
      ProbePoints(FlattenValues(fx.model->Params()), /*count=*/5, /*seed=*/417);

  const auto want = FusedGradsAt(fx, /*replay_lanes=*/1, /*pool_lanes=*/1, points);
  ASSERT_EQ(want.size(), points.size());
  for (const int width : {2, 8}) {
    for (const int pool_lanes : {1, 3}) {
      SCOPED_TRACE("width=" + std::to_string(width) +
                   " pool_lanes=" + std::to_string(pool_lanes));
      ExpectBitwiseEqual(want, FusedGradsAt(fx, width, pool_lanes, points));
    }
  }
  {
    // Thread-count invariance: the same fused width under a single-threaded
    // backend of the same kind.
    la::ScopedBackend single(backend(), 1);
    SCOPED_TRACE("width=8 threads=1");
    ExpectBitwiseEqual(want, FusedGradsAt(fx, 8, 1, points));
  }
}

TEST_P(FusedReplayBitwise, WidthOneMatchesDirectSerialReplayBitwise) {
  // replay_lanes = 1 must reproduce the pre-fusion engine exactly: a plain
  // ReusableLossGraph over a model clone and the train set's exact block
  // (outputs: the distinct train nodes, ascending), evaluated one point at a
  // time.
  la::ScopedBackend scoped(backend(), 2);
  EngineFixture fx(model_kind(), /*seed=*/53);
  const auto points =
      ProbePoints(FlattenValues(fx.model->Params()), /*count=*/3, /*seed=*/31);

  std::unique_ptr<nn::GnnModel> clone = fx.model->Clone();
  nn::GnnModel* m = clone.get();
  std::vector<int> outputs = fx.split.train;
  std::sort(outputs.begin(), outputs.end());
  outputs.erase(std::unique(outputs.begin(), outputs.end()), outputs.end());
  const nn::Block block = fx.ctx.ExactBlock(model_kind(), outputs);
  la::Matrix features(block.num_inputs(), fx.ctx.feature_dim());
  for (int i = 0; i < block.num_inputs(); ++i) {
    for (int c = 0; c < features.cols(); ++c) {
      features(i, c) = fx.ctx.features(block.frontier[static_cast<size_t>(i)], c);
    }
  }
  std::vector<int> rows;
  std::vector<int> labels;
  for (int v : fx.split.train) {
    rows.push_back(static_cast<int>(
        std::lower_bound(outputs.begin(), outputs.end(), v) - outputs.begin()));
    labels.push_back(fx.data.labels[static_cast<size_t>(v)]);
  }
  const std::vector<double> ones(rows.size(), 1.0);
  ReusableLossGraph graph(
      [m, &block, &features, &rows, &labels, &ones](ag::Tape& tape) {
        ag::Var logits =
            m->ForwardBlock(tape, block, tape.StaticConstant(features), 1);
        return ag::WeightedNll(ag::LogSoftmaxRows(logits), rows, labels, ones,
                               static_cast<double>(rows.size()));
      },
      m->Params());
  std::vector<std::vector<double>> want;
  for (const auto& p : points) {
    SetValues(m->Params(), p);
    want.push_back(graph.Grad());
  }

  ExpectBitwiseEqual(want, FusedGradsAt(fx, /*replay_lanes=*/1,
                                        /*pool_lanes=*/1, points));
}

TEST(FusedReplayTest, FusedGradsMatchCentralDifferencesOfTheLoss) {
  // Gradient correctness, not just parity: at each probe point the fused
  // width-8 gradient must reproduce directional central differences of the
  // training loss evaluated from scratch.
  la::ScopedBackend scoped(la::BackendKind::kParallel, 2);
  EngineFixture fx(nn::ModelKind::kGcn, /*seed=*/59);
  const std::vector<double> theta0 = FlattenValues(fx.model->Params());
  const auto points = ProbePoints(theta0, /*count=*/3, /*seed=*/73);
  const auto grads = FusedGradsAt(fx, /*replay_lanes=*/8, /*pool_lanes=*/1, points);

  std::unique_ptr<nn::GnnModel> clone = fx.model->Clone();
  nn::GnnModel* m = clone.get();
  std::vector<int> labels;
  for (int v : fx.split.train) {
    labels.push_back(fx.data.labels[static_cast<size_t>(v)]);
  }
  const std::vector<double> ones(fx.split.train.size(), 1.0);
  auto loss_at = [&](const std::vector<double>& p) {
    SetValues(m->Params(), p);
    ag::Tape tape;
    ag::Var logits = m->Forward(tape, fx.ctx, nn::ForwardOptions{});
    ag::Var loss =
        ag::WeightedNll(ag::LogSoftmaxRows(logits), fx.split.train, labels, ones,
                        static_cast<double>(fx.split.train.size()));
    return loss.scalar();
  };

  std::mt19937_64 rng(97);
  std::normal_distribution<double> normal(0.0, 1.0);
  const double eps = 1e-5;
  for (size_t i = 0; i < points.size(); ++i) {
    std::vector<double> dir(theta0.size());
    double norm = 0.0;
    for (double& d : dir) {
      d = normal(rng);
      norm += d * d;
    }
    norm = std::sqrt(norm);
    std::vector<double> plus = points[i];
    std::vector<double> minus = points[i];
    double want_dot = 0.0;
    for (size_t j = 0; j < dir.size(); ++j) {
      dir[j] /= norm;
      plus[j] += eps * dir[j];
      minus[j] -= eps * dir[j];
      want_dot += grads[i][j] * dir[j];
    }
    const double fd = (loss_at(plus) - loss_at(minus)) / (2.0 * eps);
    EXPECT_NEAR(fd, want_dot, 1e-6 * std::max(1.0, std::fabs(fd)))
        << "probe point " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, FusedReplayBitwise,
    ::testing::Combine(::testing::Values(la::BackendKind::kReference,
                                         la::BackendKind::kParallel),
                       ::testing::Values(nn::ModelKind::kGcn, nn::ModelKind::kGat,
                                         nn::ModelKind::kGraphSage)),
    [](const ::testing::TestParamInfo<FusedReplayBitwise::ParamType>& info) {
      return la::BackendKindName(std::get<0>(info.param)) + "_" +
             nn::ModelKindName(std::get<1>(info.param));
    });

}  // namespace
}  // namespace ppfr::influence
