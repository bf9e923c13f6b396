#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "data/split.h"
#include "nn/adam.h"
#include "nn/graph_context.h"
#include "nn/init.h"
#include "nn/models.h"
#include "nn/trainer.h"
#include "test_util.h"

namespace ppfr::nn {
namespace {

struct Fixture {
  data::NodeClassificationData data;
  GraphContext ctx;
  data::Split split;

  explicit Fixture(uint64_t seed = 42) : data(ppfr::testing::SmallSbm(seed)) {
    ctx = GraphContext::Build(data.graph, data.features);
    split = data::MakeSplit(data.graph.num_nodes(), 40, 20, seed);
  }
};

TEST(InitTest, GlorotBoundsAndSpread) {
  Rng rng(1);
  const la::Matrix w = GlorotUniform(50, 30, &rng);
  const double limit = std::sqrt(6.0 / 80.0);
  double max_abs = 0.0, sum = 0.0;
  for (int64_t i = 0; i < w.size(); ++i) {
    max_abs = std::max(max_abs, std::fabs(w.data()[i]));
    sum += w.data()[i];
  }
  EXPECT_LE(max_abs, limit);
  EXPECT_GT(max_abs, 0.5 * limit);          // actually spread out
  EXPECT_NEAR(sum / w.size(), 0.0, 0.02);   // centred
}

TEST(GraphContextTest, SparseFeaturesRoundTripIncludingZeroRowAndColumn) {
  data::NodeClassificationData data = ppfr::testing::SmallSbm(5);
  for (int c = 0; c < data.features.cols(); ++c) data.features(7, c) = 0.0;
  for (int v = 0; v < data.features.rows(); ++v) data.features(v, 3) = 0.0;
  const GraphContext ctx = GraphContext::Build(data.graph, data.features);
  const std::shared_ptr<const la::CsrMatrix>& csr = ctx.SparseFeatures();
  ASSERT_NE(csr, nullptr);
  EXPECT_EQ(csr->rows(), ctx.num_nodes());
  EXPECT_EQ(csr->cols(), ctx.feature_dim());
  EXPECT_EQ(csr->row_ptr()[8], csr->row_ptr()[7]);
  const la::Matrix back = csr->ToDense();
  for (int64_t i = 0; i < back.size(); ++i) {
    ASSERT_EQ(back.data()[i], ctx.features.data()[i]) << "flat index " << i;
  }
  // Built once: later calls and copies of the context share it.
  EXPECT_EQ(ctx.SparseFeatures().get(), csr.get());
  const GraphContext copy = ctx;
  EXPECT_EQ(copy.SparseFeatures().get(), csr.get());
}

TEST(GraphContextTest, BuildsAllOperators) {
  Fixture f;
  EXPECT_EQ(f.ctx.num_nodes(), f.data.graph.num_nodes());
  EXPECT_EQ(f.ctx.feature_dim(), f.data.features.cols());
  EXPECT_NE(f.ctx.gcn_adj, nullptr);
  EXPECT_NE(f.ctx.mean_adj, nullptr);
  ASSERT_NE(f.ctx.edges_with_self, nullptr);
  // Every node has its self-loop first in the edge set.
  for (int v = 0; v < f.ctx.num_nodes(); ++v) {
    EXPECT_EQ(f.ctx.edges_with_self->col_idx[f.ctx.edges_with_self->row_ptr[v]], v);
    EXPECT_EQ(f.ctx.edges_with_self->row_ptr[v + 1] - f.ctx.edges_with_self->row_ptr[v],
              f.data.graph.Degree(v) + 1);
  }
}

class ModelForwardSweep : public ::testing::TestWithParam<ModelKind> {};

TEST_P(ModelForwardSweep, ForwardShapeAndFiniteValues) {
  Fixture f;
  auto model = MakeModel(GetParam(), f.ctx.feature_dim(), f.data.num_classes, 3);
  const la::Matrix logits = model->Logits(f.ctx);
  EXPECT_EQ(logits.rows(), f.ctx.num_nodes());
  EXPECT_EQ(logits.cols(), f.data.num_classes);
  for (int64_t i = 0; i < logits.size(); ++i) {
    ASSERT_TRUE(std::isfinite(logits.data()[i]));
  }
}

TEST_P(ModelForwardSweep, TrainingReducesLossAndBeatsChance) {
  Fixture f;
  auto model = MakeModel(GetParam(), f.ctx.feature_dim(), f.data.num_classes, 3);
  TrainConfig cfg;
  cfg.epochs = 60;
  const TrainStats stats =
      Train(model.get(), f.ctx, f.split.train, f.data.labels, cfg);
  EXPECT_LT(stats.final_loss, 0.7 * stats.epoch_losses.front());
  const double acc = Accuracy(model->Logits(f.ctx), f.data.labels, f.split.test);
  EXPECT_GT(acc, 1.5 / f.data.num_classes) << "should beat chance comfortably";
}

TEST_P(ModelForwardSweep, DeterministicTraining) {
  Fixture f;
  TrainConfig cfg;
  cfg.epochs = 15;
  auto m1 = MakeModel(GetParam(), f.ctx.feature_dim(), f.data.num_classes, 3);
  auto m2 = MakeModel(GetParam(), f.ctx.feature_dim(), f.data.num_classes, 3);
  Train(m1.get(), f.ctx, f.split.train, f.data.labels, cfg);
  Train(m2.get(), f.ctx, f.split.train, f.data.labels, cfg);
  EXPECT_LT(la::Sub(m1->Logits(f.ctx), m2->Logits(f.ctx)).MaxAbs(), 1e-12);
}

TEST_P(ModelForwardSweep, CloneIsDeepCopy) {
  Fixture f;
  auto model = MakeModel(GetParam(), f.ctx.feature_dim(), f.data.num_classes, 3);
  auto clone = model->Clone();
  const la::Matrix before = model->Logits(f.ctx);
  TrainConfig cfg;
  cfg.epochs = 10;
  Train(clone.get(), f.ctx, f.split.train, f.data.labels, cfg);
  // Training the clone must not touch the original.
  EXPECT_LT(la::Sub(model->Logits(f.ctx), before).MaxAbs(), 1e-15);
  EXPECT_GT(la::Sub(clone->Logits(f.ctx), before).MaxAbs(), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelForwardSweep,
                         ::testing::Values(ModelKind::kGcn, ModelKind::kGat,
                                           ModelKind::kGraphSage),
                         [](const auto& info) { return ModelKindName(info.param); });

TEST(ModelGradientTest, GcnEndToEndGradCheck) {
  Fixture f(7);
  Gcn model(f.ctx.feature_dim(), 8, f.data.num_classes, 11);
  const std::vector<int> rows{0, 5, 9};
  const std::vector<int> labels{f.data.labels[0], f.data.labels[5], f.data.labels[9]};
  Rng rng(1);
  auto build = [&](ag::Tape& tape) {
    ag::Var logits = model.Forward(tape, f.ctx, ForwardOptions{});
    return ag::WeightedNll(ag::LogSoftmaxRows(logits), rows, labels, {1, 1, 1}, 3.0);
  };
  const ag::GradCheckResult r = ag::GradCheck(build, model.Params(), &rng, 6);
  EXPECT_LT(r.max_rel_error, 1e-4);
}

TEST(ModelGradientTest, GatEndToEndGradCheck) {
  Fixture f(8);
  Gat model(f.ctx.feature_dim(), 4, f.data.num_classes, 2, 11);
  const std::vector<int> rows{1, 3};
  const std::vector<int> labels{f.data.labels[1], f.data.labels[3]};
  Rng rng(2);
  auto build = [&](ag::Tape& tape) {
    ag::Var logits = model.Forward(tape, f.ctx, ForwardOptions{});
    return ag::WeightedNll(ag::LogSoftmaxRows(logits), rows, labels, {1, 1}, 2.0);
  };
  const ag::GradCheckResult r = ag::GradCheck(build, model.Params(), &rng, 4);
  EXPECT_LT(r.max_rel_error, 1e-3);
}

TEST(GatConvTest, WarmReplayAndBackwardAllocateNoMatrices) {
  // The fused attention op keeps its scores, attention coefficients and sign
  // mask in tape node buffers — values recycled by replay, [dsl | dsr] in the
  // arena's gradient buffers — so once a GAT loss graph is recorded, a replay
  // plus a backward pass allocates no dense matrix. Covered for the narrow
  // full-graph loss and for a lane-wide (3 replay lanes) exact-block loss.
  // The loss is seeded through BackwardWithSparseSeed, whose unit row
  // support keeps every GEMM backward on its in-place row-support kernels.
  Fixture f(9);
  std::vector<int> outputs(f.split.train.begin(), f.split.train.begin() + 12);
  std::sort(outputs.begin(), outputs.end());
  std::vector<int> rows;
  std::vector<int> labels;
  for (int i = 0; i < static_cast<int>(outputs.size()); ++i) {
    rows.push_back(i);
    labels.push_back(f.data.labels[static_cast<size_t>(outputs[static_cast<size_t>(i)])]);
  }
  const std::vector<double> ones(rows.size(), 1.0);
  const Block block = f.ctx.ExactBlock(ModelKind::kGat, outputs);
  const auto block_features = std::make_shared<const la::CsrMatrix>(
      la::CsrMatrix::FromDenseRows(f.ctx.features, block.frontier));

  for (const int lanes : {1, 3}) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    std::unique_ptr<GnnModel> model =
        MakeModel(ModelKind::kGat, f.ctx.feature_dim(), f.data.num_classes, 13);
    WidenModelParams(model.get(), lanes);
    for (ag::Parameter* p : model->Params()) {  // widened params start at zero
      for (int64_t i = 0; i < p->value.size(); ++i) {
        p->value.data()[i] = 0.05 * static_cast<double>(i % 7 - 3);
      }
    }
    auto build = [&](ag::Tape& tape) {
      if (lanes == 1) {
        ag::Var logits = model->Forward(tape, f.ctx, ForwardOptions{});
        return ag::WeightedNll(ag::LogSoftmaxRows(logits), outputs, labels, ones,
                               static_cast<double>(rows.size()));
      }
      ag::Var logits =
          model->ForwardBlock(tape, block, block_features, lanes);
      return ag::WeightedNllLanes(ag::LogSoftmaxRowsLanes(logits, lanes), rows, labels,
                                  ones, static_cast<double>(rows.size()), lanes);
    };
    ag::Tape tape;
    tape.set_accumulate_param_grads(false);
    tape.BackwardWithSparseSeed(build(tape), {0}, {0}, {1.0});
    std::vector<double> recorded;
    tape.FlattenLeafGrads(model->Params(), &recorded);

    tape.BeginReplay();
    const int64_t alloc0 = la::MatrixAllocCount();
    ag::Var loss = build(tape);
    tape.BackwardWithSparseSeed(loss, {0}, {0}, {1.0});
    EXPECT_EQ(la::MatrixAllocCount() - alloc0, 0);
    std::vector<double> replayed;
    tape.FlattenLeafGrads(model->Params(), &replayed);
    EXPECT_EQ(replayed, recorded);  // same parameters, same bits
  }
}

TEST(ModelGradientTest, SageEndToEndGradCheck) {
  Fixture f(9);
  GraphSage model(f.ctx.feature_dim(), 8, f.data.num_classes, 11);
  const std::vector<int> rows{2, 4};
  const std::vector<int> labels{f.data.labels[2], f.data.labels[4]};
  Rng rng(3);
  auto build = [&](ag::Tape& tape) {
    ag::Var logits = model.Forward(tape, f.ctx, ForwardOptions{});
    return ag::WeightedNll(ag::LogSoftmaxRows(logits), rows, labels, {1, 1}, 2.0);
  };
  const ag::GradCheckResult r = ag::GradCheck(build, model.Params(), &rng, 6);
  EXPECT_LT(r.max_rel_error, 1e-4);
}

TEST(AdamTest, MinimizesQuadratic) {
  // f(x) = ||x - 3||²; Adam should drive x to ~3.
  ag::Parameter x("x", la::Matrix(1, 1, 0.0));
  Adam adam({&x}, {.lr = 0.1});
  for (int step = 0; step < 300; ++step) {
    x.ZeroGrad();
    x.grad(0, 0) = 2.0 * (x.value(0, 0) - 3.0);
    adam.Step();
  }
  EXPECT_NEAR(x.value(0, 0), 3.0, 1e-3);
}

TEST(AdamTest, WeightDecayShrinksUnusedParameter) {
  ag::Parameter x("x", la::Matrix(1, 1, 5.0));
  Adam adam({&x}, {.lr = 0.05, .weight_decay = 1.0});
  for (int step = 0; step < 200; ++step) {
    x.ZeroGrad();  // gradient zero; only decay acts
    adam.Step();
  }
  EXPECT_LT(std::fabs(x.value(0, 0)), 0.5);
}

TEST(TrainerTest, SampleWeightsChangeTheOptimum) {
  Fixture f;
  TrainConfig base;
  base.epochs = 40;
  auto uniform = MakeModel(ModelKind::kGcn, f.ctx.feature_dim(), f.data.num_classes, 3);
  Train(uniform.get(), f.ctx, f.split.train, f.data.labels, base);

  TrainConfig weighted = base;
  weighted.sample_weights.assign(f.split.train.size(), 1.0);
  for (size_t i = 0; i < weighted.sample_weights.size(); i += 2) {
    weighted.sample_weights[i] = 0.0;  // drop half the supervision
  }
  auto reweighted =
      MakeModel(ModelKind::kGcn, f.ctx.feature_dim(), f.data.num_classes, 3);
  Train(reweighted.get(), f.ctx, f.split.train, f.data.labels, weighted);
  EXPECT_GT(la::Sub(uniform->Logits(f.ctx), reweighted->Logits(f.ctx)).MaxAbs(), 1e-4);
}

TEST(TrainerTest, ZeroWeightEqualsExclusion) {
  Fixture f;
  TrainConfig cfg;
  cfg.epochs = 25;
  // Weight zero on the second half of train nodes ...
  TrainConfig weighted = cfg;
  weighted.sample_weights.assign(f.split.train.size(), 1.0);
  const size_t half = f.split.train.size() / 2;
  for (size_t i = half; i < f.split.train.size(); ++i) weighted.sample_weights[i] = 0.0;
  auto a = MakeModel(ModelKind::kGcn, f.ctx.feature_dim(), f.data.num_classes, 3);
  Train(a.get(), f.ctx, f.split.train, f.data.labels, weighted);
  // ... must equal training on the first half only, with matching
  // normalisation (weights scaled so the denominators agree).
  std::vector<int> first_half(f.split.train.begin(), f.split.train.begin() + half);
  TrainConfig subset = cfg;
  subset.sample_weights.assign(first_half.size(),
                               static_cast<double>(first_half.size()) /
                                   static_cast<double>(f.split.train.size()));
  auto b = MakeModel(ModelKind::kGcn, f.ctx.feature_dim(), f.data.num_classes, 3);
  Train(b.get(), f.ctx, first_half, f.data.labels, subset);
  EXPECT_LT(la::Sub(a->Logits(f.ctx), b->Logits(f.ctx)).MaxAbs(), 1e-9);
}

TEST(TrainerTest, AccuracyHelper) {
  la::Matrix logits = la::Matrix::FromRows({{2, 1}, {0, 3}, {5, 4}});
  const std::vector<int> labels{0, 1, 1};
  EXPECT_DOUBLE_EQ(Accuracy(logits, labels, {0, 1, 2}), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(Accuracy(logits, labels, {0, 1}), 1.0);
}

}  // namespace
}  // namespace ppfr::nn
