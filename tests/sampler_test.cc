// Tests for k-hop computation blocks: the fanout-capped block sampler
// (nn/sampler) and the sampled mini-batch training path it feeds
// (nn::TrainSampled), and the exact per-kind blocks
// (nn::GraphContext::ExactBlock) the influence engine runs on. Pins the
// properties the scale axis stands on: blocks are pure functions of
// (seed, epoch, batch, targets) — identical across runs and threads; the
// fanout cap binds; at fanout >= max degree the block is EXACTLY the dense
// 2-hop neighbourhood; sampled training at full fanout matches full-batch
// training within float-summation tolerance; and for every model kind, block
// forwards, gradients and influence rows match the full graph within
// summation-order tolerance while staying bitwise deterministic themselves.

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "data/scale_gen.h"
#include "data/split.h"
#include "fairness/bias_metric.h"
#include "graph/graph.h"
#include "influence/hvp.h"
#include "influence/influence.h"
#include "influence/param_vector.h"
#include "la/backend.h"
#include "nn/graph_context.h"
#include "nn/models.h"
#include "nn/sampler.h"
#include "nn/trainer.h"
#include "test_util.h"

namespace ppfr {
namespace {

graph::Graph TestAdjacency(uint64_t seed = 5, int64_t nodes = 600) {
  data::ScaleGraphConfig cfg;
  cfg.num_nodes = nodes;
  cfg.num_blocks = 3;
  cfg.feature_dim = 24;
  cfg.average_degree = 6.0;
  return data::ScaleDataset(cfg, seed).adjacency();
}

bool BlocksEqual(const nn::Block& a, const nn::Block& b) {
  if (a.frontier != b.frontier || a.hop_sizes != b.hop_sizes ||
      a.hops.size() != b.hops.size()) {
    return false;
  }
  for (size_t h = 0; h < a.hops.size(); ++h) {
    const la::CsrMatrix& ma = a.hops[h].agg->mat;
    const la::CsrMatrix& mb = b.hops[h].agg->mat;
    if (ma.rows() != mb.rows() || ma.cols() != mb.cols() ||
        ma.row_ptr() != mb.row_ptr() || ma.col_idx() != mb.col_idx() ||
        ma.values() != mb.values()) {
      return false;
    }
  }
  return true;
}

TEST(NeighborSamplerTest, BlocksAreDeterministicAcrossInstancesAndThreads) {
  const graph::Graph adj = TestAdjacency();
  const nn::SamplerConfig cfg{.fanout = 3, .num_hops = 2, .seed = 17};
  const std::vector<int> targets = {5, 99, 311, 42};

  const nn::NeighborSampler sampler(&adj, cfg);
  const nn::Block want = sampler.SampleBlock(targets, /*epoch=*/2,
                                                    /*batch=*/4);

  // A fresh sampler instance reproduces the block bit for bit.
  const nn::NeighborSampler other(&adj, cfg);
  EXPECT_TRUE(BlocksEqual(want, other.SampleBlock(targets, 2, 4)));

  // Concurrent sampling from many threads: each (epoch, batch) stream is
  // independent, so parallel calls must reproduce the serial blocks exactly.
  std::vector<nn::Block> serial;
  for (int b = 0; b < 8; ++b) {
    serial.push_back(sampler.SampleBlock(targets, /*epoch=*/b / 4,
                                         /*batch=*/b % 4));
  }
  std::vector<nn::Block> parallel(8);
  std::vector<std::thread> workers;
  for (int b = 0; b < 8; ++b) {
    workers.emplace_back([&, b] {
      parallel[static_cast<size_t>(b)] =
          sampler.SampleBlock(targets, b / 4, b % 4);
    });
  }
  for (std::thread& t : workers) t.join();
  for (int b = 0; b < 8; ++b) {
    EXPECT_TRUE(BlocksEqual(serial[static_cast<size_t>(b)],
                            parallel[static_cast<size_t>(b)]))
        << "epoch " << b / 4 << " batch " << b % 4;
  }

  // Different (epoch, batch) coordinates draw different samples.
  EXPECT_FALSE(BlocksEqual(want, sampler.SampleBlock(targets, 3, 4)));
}

TEST(NeighborSamplerTest, FanoutCapBindsAndWeightsAreRowStochastic) {
  const graph::Graph adj = TestAdjacency();
  const int fanout = 3;
  const nn::NeighborSampler sampler(&adj, {.fanout = fanout, .num_hops = 2,
                                           .seed = 9});
  const std::vector<int> targets = {1, 50, 200, 301, 599};
  const nn::Block block = sampler.SampleBlock(targets, 0, 0);

  ASSERT_EQ(block.hops.size(), 2u);
  ASSERT_EQ(block.hop_sizes.size(), 3u);
  EXPECT_EQ(block.num_targets(), static_cast<int>(targets.size()));
  // Prefix property: targets are the leading frontier entries; frontiers nest.
  for (size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(block.frontier[i], targets[i]);
  }
  EXPECT_GE(block.hop_sizes[0], block.hop_sizes[1]);
  EXPECT_GE(block.hop_sizes[1], block.hop_sizes[2]);

  for (size_t h = 0; h < block.hops.size(); ++h) {
    const la::CsrMatrix& agg = block.hops[h].agg->mat;
    ASSERT_EQ(agg.rows(), block.hop_sizes[h + 1]);
    ASSERT_EQ(agg.cols(), block.hop_sizes[h]);
    for (int r = 0; r < agg.rows(); ++r) {
      const int64_t begin = agg.row_ptr()[static_cast<size_t>(r)];
      const int64_t end = agg.row_ptr()[static_cast<size_t>(r) + 1];
      const int64_t nnz = end - begin;
      const int out_node = block.frontier[static_cast<size_t>(r)];
      const int deg = adj.Degree(out_node);
      ASSERT_LE(nnz, std::min<int64_t>(fanout, deg));
      if (deg <= fanout) {
        ASSERT_EQ(nnz, deg);  // under the cap: keep all
      }
      double row_sum = 0.0;
      for (int64_t k = begin; k < end; ++k) {
        const double w = agg.values()[static_cast<size_t>(k)];
        ASSERT_DOUBLE_EQ(w, 1.0 / static_cast<double>(nnz));
        row_sum += w;
      }
      if (nnz > 0) {
        ASSERT_NEAR(row_sum, 1.0, 1e-12);
      }
    }
  }
}

TEST(NeighborSamplerTest, FullFanoutBlockIsTheExactTwoHopNeighbourhood) {
  const graph::Graph adj = TestAdjacency();
  const nn::NeighborSampler sampler(&adj, {.fanout = nn::kAllNeighbors,
                                           .num_hops = 2, .seed = 1});
  const std::vector<int> targets = {7, 123, 456};
  const nn::Block block = sampler.SampleBlock(targets, 0, 0);

  // Dense reference: F_1 = targets ∪ N(targets), F_0 = F_1 ∪ N(F_1).
  std::set<int> one_hop(targets.begin(), targets.end());
  for (int t : targets) {
    for (int u : adj.Neighbors(t)) one_hop.insert(u);
  }
  std::set<int> two_hop = one_hop;
  for (int v : one_hop) {
    for (int u : adj.Neighbors(v)) two_hop.insert(u);
  }

  ASSERT_EQ(block.hop_sizes[1], static_cast<int>(one_hop.size()));
  ASSERT_EQ(block.hop_sizes[0], static_cast<int>(two_hop.size()));
  const std::set<int> f1(block.frontier.begin(),
                         block.frontier.begin() + block.hop_sizes[1]);
  const std::set<int> f0(block.frontier.begin(),
                         block.frontier.begin() + block.hop_sizes[0]);
  EXPECT_EQ(f1, one_hop);
  EXPECT_EQ(f0, two_hop);

  // Each hop row must hold ALL neighbours of its output node, weight 1/deg.
  for (size_t h = 0; h < 2; ++h) {
    const la::CsrMatrix& agg = block.hops[h].agg->mat;
    for (int r = 0; r < agg.rows(); ++r) {
      const int out_node = block.frontier[static_cast<size_t>(r)];
      const auto want = adj.Neighbors(out_node);
      const int64_t begin = agg.row_ptr()[static_cast<size_t>(r)];
      const int64_t end = agg.row_ptr()[static_cast<size_t>(r) + 1];
      ASSERT_EQ(end - begin, static_cast<int64_t>(want.size()));
      // CSR columns sort by LOCAL frontier index (frontier order interleaves
      // rows), so map them back to global ids and compare as sorted sets.
      std::vector<int> got;
      for (int64_t k = begin; k < end; ++k) {
        const int local = agg.col_idx()[static_cast<size_t>(k)];
        got.push_back(block.frontier[static_cast<size_t>(local)]);
        ASSERT_DOUBLE_EQ(agg.values()[static_cast<size_t>(k)],
                         1.0 / static_cast<double>(want.size()));
      }
      std::sort(got.begin(), got.end());
      ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
          << "row " << r << " neighbour set mismatch";
    }
  }
}

TEST(NeighborSamplerTest, EpochBatchesPartitionAndReshuffle) {
  const std::vector<int> nodes = {3, 1, 4, 1 + 10, 5, 9, 2, 6};
  const auto batches = nn::NeighborSampler::EpochBatches(nodes, 3, /*seed=*/5,
                                                         /*epoch=*/0);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].size(), 3u);
  EXPECT_EQ(batches[1].size(), 3u);
  EXPECT_EQ(batches[2].size(), 2u);

  std::vector<int> flattened;
  for (const auto& batch : batches) {
    flattened.insert(flattened.end(), batch.begin(), batch.end());
  }
  std::vector<int> sorted_nodes = nodes;
  std::sort(sorted_nodes.begin(), sorted_nodes.end());
  std::sort(flattened.begin(), flattened.end());
  EXPECT_EQ(flattened, sorted_nodes);  // exact cover

  EXPECT_EQ(batches, nn::NeighborSampler::EpochBatches(nodes, 3, 5, 0));
  EXPECT_NE(batches, nn::NeighborSampler::EpochBatches(nodes, 3, 5, 1));

  // batch_nodes <= 0: one batch, original order.
  const auto whole = nn::NeighborSampler::EpochBatches(nodes, 0, 5, 0);
  ASSERT_EQ(whole.size(), 1u);
  EXPECT_EQ(whole[0], nodes);
}

// Sampled-vs-full-batch parity: at fanout >= max degree and batch_nodes = 0,
// TrainSampled computes the same loss sequence as full-batch Train() on the
// materialised context — both aggregate ALL neighbours with mean weights and
// share the WeightedNll denominator. The two paths sum the same float terms
// in different orders (local CSR layout vs full-graph CSR), so the parity is
// tolerance-based, not bitwise; the documented tolerance is 1e-6 on every
// epoch loss.
TEST(SampledTrainingTest, FullFanoutMatchesFullBatchWithinTolerance) {
  data::ScaleGraphConfig cfg;
  cfg.num_nodes = 300;
  cfg.num_blocks = 3;
  cfg.feature_dim = 24;
  cfg.average_degree = 6.0;
  const data::ScaleDataset dataset(cfg, 13);

  const std::vector<int> train_nodes = dataset.StridedNodes(60, /*salt=*/1);
  const std::vector<int> train_labels = dataset.LabelsFor(train_nodes);
  const std::vector<int> full_labels = dataset.MaterializeLabels();

  nn::TrainConfig tc;
  tc.epochs = 12;
  tc.sage_fanout = nn::kAllNeighbors;
  tc.batch_nodes = 0;
  tc.seed = 3;

  auto full_model = nn::MakeModel(nn::ModelKind::kGraphSage, cfg.feature_dim,
                                  dataset.num_classes(), /*seed=*/21);
  nn::GraphContext ctx = nn::GraphContext::Build(
      dataset.adjacency(), dataset.MaterializeFeatures());
  const nn::TrainStats full =
      nn::Train(full_model.get(), ctx, train_nodes, full_labels, tc);

  auto sampled_model = nn::MakeModel(nn::ModelKind::kGraphSage, cfg.feature_dim,
                                     dataset.num_classes(), /*seed=*/21);
  nn::SampledTrainSpec spec;
  spec.adj = &dataset.adjacency();
  spec.gather_features = [&dataset](const std::vector<int>& nodes) {
    return dataset.GatherFeatures(nodes);
  };
  const nn::TrainStats sampled = nn::TrainSampled(sampled_model.get(), spec,
                                                  train_nodes, train_labels, tc);

  ASSERT_EQ(full.epoch_losses.size(), sampled.epoch_losses.size());
  for (size_t e = 0; e < full.epoch_losses.size(); ++e) {
    EXPECT_NEAR(sampled.epoch_losses[e], full.epoch_losses[e], 1e-6)
        << "epoch " << e;
  }

  // Inference parity through the exact sampled blocks.
  const std::vector<int> probe = dataset.StridedNodes(40, /*salt=*/2);
  const la::Matrix sampled_logits =
      nn::SampledLogits(sampled_model.get(), spec, probe);
  const la::Matrix full_logits = full_model->Logits(ctx);
  for (size_t i = 0; i < probe.size(); ++i) {
    for (int c = 0; c < sampled_logits.cols(); ++c) {
      EXPECT_NEAR(sampled_logits(static_cast<int>(i), c),
                  full_logits(probe[i], c), 1e-5);
    }
  }
}

TEST(SampledTrainingTest, MiniBatchRunsAreDeterministicAndLearn) {
  data::ScaleGraphConfig cfg;
  cfg.num_nodes = 900;
  cfg.num_blocks = 3;
  cfg.feature_dim = 24;
  cfg.average_degree = 6.0;
  const data::ScaleDataset dataset(cfg, 41);

  const std::vector<int> train_nodes = dataset.StridedNodes(180, /*salt=*/1);
  const std::vector<int> train_labels = dataset.LabelsFor(train_nodes);
  nn::SampledTrainSpec spec;
  spec.adj = &dataset.adjacency();
  spec.gather_features = [&dataset](const std::vector<int>& nodes) {
    return dataset.GatherFeatures(nodes);
  };

  nn::TrainConfig tc;
  tc.epochs = 20;
  tc.sage_fanout = 4;
  tc.batch_nodes = 64;
  tc.seed = 7;

  auto model_a = nn::MakeModel(nn::ModelKind::kGraphSage, cfg.feature_dim,
                               dataset.num_classes(), /*seed=*/33);
  auto model_b = nn::MakeModel(nn::ModelKind::kGraphSage, cfg.feature_dim,
                               dataset.num_classes(), /*seed=*/33);
  const nn::TrainStats a =
      nn::TrainSampled(model_a.get(), spec, train_nodes, train_labels, tc);
  const nn::TrainStats b =
      nn::TrainSampled(model_b.get(), spec, train_nodes, train_labels, tc);
  EXPECT_EQ(a.epoch_losses, b.epoch_losses);  // bitwise: same sampling stream

  EXPECT_LT(a.final_loss, a.epoch_losses.front());

  // The trained model beats chance on held-out nodes through exact blocks.
  const std::vector<int> val_nodes = dataset.StridedNodes(120, /*salt=*/2);
  const la::Matrix logits = nn::SampledLogits(model_a.get(), spec, val_nodes);
  const std::vector<int> pred = la::ArgmaxRows(logits);
  const std::vector<int> val_labels = dataset.LabelsFor(val_nodes);
  int correct = 0;
  for (size_t i = 0; i < val_nodes.size(); ++i) {
    if (pred[i] == val_labels[i]) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(val_nodes.size()),
            0.6);
}

TEST(SampledTrainingDeathTest, GuardsMisuse) {
  const graph::Graph adj = TestAdjacency();
  // Zero fanout is a configuration bug, not a request for isolated nodes.
  EXPECT_DEATH(nn::NeighborSampler(&adj, {.fanout = 0, .num_hops = 2,
                                          .seed = 1}),
               "CHECK failed");
  // Duplicate targets would alias logits rows.
  const nn::NeighborSampler sampler(&adj, {.fanout = 2, .num_hops = 2,
                                           .seed = 1});
  EXPECT_DEATH(sampler.SampleBlock({4, 4}, 0, 0), "CHECK failed");
  // Sampled blocks carry GraphSAGE mean operators; another kind's layers
  // must refuse them rather than aggregate with the wrong weights.
  const nn::Block block = sampler.SampleBlock({4, 9}, 0, 0);
  auto gcn = nn::MakeModel(nn::ModelKind::kGcn, 24, 3, 1);
  ag::Tape tape;
  ag::Var x = tape.Constant(la::Matrix(block.num_inputs(), 24));
  EXPECT_DEATH(gcn->ForwardBlock(tape, block, x, 1),
               "GCN cannot run a GraphSage block");
}

// ---- Exact blocks: per-kind parity with the full graph ----

// A small trained model of each kind plus its graph: the block path and a
// test-side full-graph oracle both run against it.
struct ParityFixture {
  data::NodeClassificationData data;
  nn::GraphContext ctx;
  data::Split split;
  std::unique_ptr<nn::GnnModel> model;
  std::vector<int> train_labels;

  explicit ParityFixture(nn::ModelKind kind)
      : data(ppfr::testing::SmallSbm(61, 140, 3)),
        ctx(nn::GraphContext::Build(data.graph, data.features)),
        split(data::MakeSplit(data.graph.num_nodes(), 30, 0, 7)),
        model(nn::MakeModel(kind, ctx.feature_dim(), data.num_classes, 11)) {
    nn::TrainConfig cfg;
    cfg.epochs = 20;
    nn::Train(model.get(), ctx, split.train, data.labels, cfg);
    for (int v : split.train) train_labels.push_back(data.labels[static_cast<size_t>(v)]);
  }

  // Targets of the node-loss sweep: train and non-train nodes alike.
  std::vector<int> Targets() const { return {split.train[0], 5, 77, split.train[3]}; }

  la::Matrix BlockFeatures(const nn::Block& block) const {
    la::Matrix x(block.num_inputs(), ctx.feature_dim());
    for (int i = 0; i < x.rows(); ++i) {
      for (int c = 0; c < x.cols(); ++c) {
        x(i, c) = ctx.features(block.frontier[static_cast<size_t>(i)], c);
      }
    }
    return x;
  }

  // Full-graph ∇θ of f(logits) for `m` at its current parameters.
  std::vector<double> FullGraphGrad(nn::GnnModel* m,
                                    const influence::FunctionBuilder& f) const {
    for (ag::Parameter* p : m->Params()) p->ZeroGrad();
    ag::Tape tape;
    tape.Backward(f(tape, m->Forward(tape, ctx, nn::ForwardOptions{})));
    return influence::FlattenGrads(m->Params());
  }

  // The mean training loss, or one node's loss, as a function of the logits.
  influence::FunctionBuilder TrainLoss() const {
    return [this](ag::Tape&, ag::Var logits) {
      const std::vector<double> ones(split.train.size(), 1.0);
      return ag::WeightedNll(ag::LogSoftmaxRows(logits), split.train, train_labels,
                             ones, static_cast<double>(split.train.size()));
    };
  }
  influence::FunctionBuilder NodeLoss(int v) const {
    return [this, v](ag::Tape&, ag::Var logits) {
      return ag::WeightedNll(ag::LogSoftmaxRows(logits), {v},
                             {data.labels[static_cast<size_t>(v)]}, {1.0}, 1.0);
    };
  }
};

// Influence configuration shared by the block path and the oracle: a fixed
// number of block iterations in the damped positive-definite regime, so both
// sides run the same solver steps on systems that differ only in roundoff.
influence::InfluenceConfig ParityConfig(int replay_lanes, int pool_lanes) {
  influence::InfluenceConfig cfg;
  cfg.cg.damping = 1.0;
  cfg.cg.tolerance = 0.0;
  cfg.cg.max_iterations = 3;
  cfg.cg_block = 2;
  cfg.replay_lanes = replay_lanes;
  cfg.tape_pool_lanes = pool_lanes;
  return cfg;
}

// The influence rows the block path is checked against, computed entirely on
// the full graph: full-graph training-loss gradients feed the same block-CG
// solver, and the solutions are contracted against full-graph per-node
// gradients.
std::vector<std::vector<double>> FullGraphInfluence(
    ParityFixture& fx, const std::vector<influence::FunctionBuilder>& builders,
    const influence::InfluenceConfig& cfg) {
  nn::GnnModel* model = fx.model.get();
  const std::vector<double> theta = influence::FlattenValues(model->Params());
  std::unique_ptr<nn::GnnModel> probe = model->Clone();
  const influence::BatchGradFn batch_grad =
      [&](const std::vector<std::vector<double>>& points) {
        std::vector<std::vector<double>> grads;
        for (const std::vector<double>& point : points) {
          influence::SetValues(probe->Params(), point);
          grads.push_back(fx.FullGraphGrad(probe.get(), fx.TrainLoss()));
        }
        return grads;
      };

  std::vector<std::vector<double>> rhs;
  for (const influence::FunctionBuilder& f : builders) {
    rhs.push_back(fx.FullGraphGrad(model, f));
  }
  const influence::MultiVector b = influence::MultiVector::FromColumns(rhs);
  std::vector<std::vector<double>> solutions;
  for (int begin = 0; begin < b.k(); begin += cfg.cg_block) {
    std::vector<int> cols;
    for (int j = begin; j < std::min(b.k(), begin + cfg.cg_block); ++j) cols.push_back(j);
    const influence::BlockCgResult chunk = influence::BlockConjugateGradientSolve(
        theta, batch_grad, b.SelectColumns(cols), cfg.cg);
    for (int j = 0; j < chunk.x.k(); ++j) solutions.push_back(chunk.x.Column(j));
  }

  std::vector<std::vector<double>> rows;
  for (const std::vector<double>& s_f : solutions) {
    std::vector<double> row;
    for (int v : fx.split.train) {
      const std::vector<double> g_v = fx.FullGraphGrad(model, fx.NodeLoss(v));
      double dot = 0.0;
      for (size_t d = 0; d < g_v.size(); ++d) dot += s_f[d] * g_v[d];
      row.push_back(-dot);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

// max |got - want| / max |want| over one vector.
double MaxRelDiff(const std::vector<double>& got, const std::vector<double>& want) {
  EXPECT_EQ(got.size(), want.size());
  double diff = 0.0;
  double scale = 0.0;
  for (size_t i = 0; i < want.size() && i < got.size(); ++i) {
    diff = std::max(diff, std::fabs(got[i] - want[i]));
    scale = std::max(scale, std::fabs(want[i]));
  }
  return diff / std::max(scale, 1e-300);
}

void ExpectRowsNear(const std::vector<std::vector<double>>& got,
                    const std::vector<std::vector<double>>& want, double rel_tol) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t r = 0; r < want.size(); ++r) {
    EXPECT_LE(MaxRelDiff(got[r], want[r]), rel_tol) << "row " << r;
  }
}

// Scatters per-lane parameter points into a lane-widened model's column
// blocks (the layout nn::WidenModelParams describes).
void SetLaneValues(nn::GnnModel* wide, const std::vector<std::vector<double>>& points) {
  const int lanes = static_cast<int>(points.size());
  int64_t offset = 0;
  for (ag::Parameter* p : wide->Params()) {
    const int cols = p->value.cols() / lanes;
    for (int l = 0; l < lanes; ++l) {
      for (int r = 0; r < p->value.rows(); ++r) {
        for (int c = 0; c < cols; ++c) {
          p->value(r, l * cols + c) =
              points[static_cast<size_t>(l)][static_cast<size_t>(offset + r * cols + c)];
        }
      }
    }
    offset += static_cast<int64_t>(p->value.rows()) * cols;
  }
}

using ParityParam = std::tuple<nn::ModelKind, int, la::BackendKind>;

class ExactBlockParity : public ::testing::TestWithParam<ParityParam> {
 protected:
  nn::ModelKind kind() const { return std::get<0>(GetParam()); }
  int lanes() const { return std::get<1>(GetParam()); }
  la::BackendKind backend() const { return std::get<2>(GetParam()); }

  // `lanes()` parameter points: the trained parameters, then small
  // deterministic perturbations of them.
  std::vector<std::vector<double>> Points(const ParityFixture& fx) const {
    const std::vector<double> theta = influence::FlattenValues(fx.model->Params());
    std::vector<std::vector<double>> points;
    for (int l = 0; l < lanes(); ++l) {
      std::vector<double> p = theta;
      for (size_t i = 0; i < p.size(); ++i) {
        p[i] += 1e-3 * l * std::sin(static_cast<double>(i) + 0.5);
      }
      points.push_back(std::move(p));
    }
    return points;
  }
};

TEST_P(ExactBlockParity, BlockForwardAndTrainingLossGradMatchFullGraph) {
  la::ScopedBackend scoped(backend(), 3);
  ParityFixture fx(kind());
  const std::vector<std::vector<double>> points = Points(fx);

  // Logits: the lane-wide block forward against the narrow full-graph
  // forward at each lane's point, on the block's output rows (the train
  // nodes, in call order).
  const nn::Block block = fx.ctx.ExactBlock(kind(), fx.split.train);
  ASSERT_EQ(block.num_targets(), static_cast<int>(fx.split.train.size()));
  std::unique_ptr<nn::GnnModel> wide = fx.model->Clone();
  nn::WidenModelParams(wide.get(), lanes());
  SetLaneValues(wide.get(), points);
  ag::Tape tape;
  const la::Matrix block_logits =
      wide->ForwardBlock(tape, block, tape.Constant(fx.BlockFeatures(block)), lanes())
          .value();
  std::unique_ptr<nn::GnnModel> narrow = fx.model->Clone();
  for (int l = 0; l < lanes(); ++l) {
    influence::SetValues(narrow->Params(), points[static_cast<size_t>(l)]);
    const la::Matrix full = narrow->Logits(fx.ctx);
    const int classes = full.cols();
    std::vector<double> got;
    std::vector<double> want;
    for (size_t i = 0; i < fx.split.train.size(); ++i) {
      for (int c = 0; c < classes; ++c) {
        got.push_back(block_logits(static_cast<int>(i), l * classes + c));
        want.push_back(full(fx.split.train[i], c));
      }
    }
    EXPECT_LE(MaxRelDiff(got, want), 1e-12) << "logits, lane " << l;
  }

  // Training-loss gradients: the calculator's block probe replays against
  // full-graph gradients at the same points.
  influence::InfluenceCalculator calc(fx.model.get(), fx.ctx, fx.split.train,
                                      fx.data.labels, ParityConfig(lanes(), 2));
  const std::vector<std::vector<double>> grads = calc.BatchTrainGrad()(points);
  for (int l = 0; l < lanes(); ++l) {
    influence::SetValues(narrow->Params(), points[static_cast<size_t>(l)]);
    EXPECT_LE(MaxRelDiff(grads[static_cast<size_t>(l)],
                         fx.FullGraphGrad(narrow.get(), fx.TrainLoss())),
              1e-12)
        << "training-loss gradient, lane " << l;
  }
}

TEST_P(ExactBlockParity, InfluenceRowsMatchFullGraphOracle) {
  la::ScopedBackend scoped(backend(), 3);
  ParityFixture fx(kind());
  const influence::InfluenceConfig cfg = ParityConfig(lanes(), 2);
  const auto laplacian = fairness::SimilarityContext::FromGraph(fx.data.graph).laplacian;

  influence::InfluenceCalculator calc(fx.model.get(), fx.ctx, fx.split.train,
                                      fx.data.labels, cfg);
  // FR's Bias + Utility solve.
  const std::vector<influence::FunctionBuilder> fr = {
      influence::InfluenceCalculator::BiasFunction(laplacian), fx.TrainLoss()};
  {
    SCOPED_TRACE("FR bias + utility");
    ExpectRowsNear(calc.InfluenceOnFunctions(fr), FullGraphInfluence(fx, fr, cfg), 1e-9);
  }
  // The node-loss sweep.
  std::vector<influence::FunctionBuilder> node_losses;
  for (int t : fx.Targets()) node_losses.push_back(fx.NodeLoss(t));
  {
    SCOPED_TRACE("node-loss sweep");
    ExpectRowsNear(calc.InfluenceOnNodeLosses(fx.Targets()),
                   FullGraphInfluence(fx, node_losses, cfg), 1e-9);
  }
}

TEST_P(ExactBlockParity, BlockPathIsBitwiseAcrossThreadsAndLaneWidths) {
  la::ScopedBackend scoped(backend(), 1);
  ParityFixture fx(kind());
  const auto laplacian = fairness::SimilarityContext::FromGraph(fx.data.graph).laplacian;
  const auto run = [&](int threads, int replay_lanes, int pool_lanes) {
    la::ScopedBackend inner(backend(), threads);
    influence::InfluenceCalculator calc(fx.model.get(), fx.ctx, fx.split.train,
                                        fx.data.labels,
                                        ParityConfig(replay_lanes, pool_lanes));
    std::vector<std::vector<double>> out = calc.PerNodeLossGrads();
    for (auto& row : calc.InfluenceOnFunctions(
             {influence::InfluenceCalculator::BiasFunction(laplacian),
              calc.UtilityFunction()})) {
      out.push_back(std::move(row));
    }
    for (auto& row : calc.InfluenceOnNodeLosses(fx.Targets())) out.push_back(std::move(row));
    return out;
  };
  const auto want = run(1, 1, 1);
  const auto got = run(4, lanes(), 3);
  ASSERT_EQ(got.size(), want.size());
  for (size_t r = 0; r < want.size(); ++r) {
    ASSERT_EQ(got[r], want[r]) << "row " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsLanesBackends, ExactBlockParity,
    ::testing::Combine(::testing::Values(nn::ModelKind::kGcn, nn::ModelKind::kGat,
                                         nn::ModelKind::kGraphSage),
                       ::testing::Values(1, 2),
                       ::testing::Values(la::BackendKind::kReference,
                                         la::BackendKind::kParallel)),
    [](const ::testing::TestParamInfo<ParityParam>& info) {
      return nn::ModelKindName(std::get<0>(info.param)) + "_lanes" +
             std::to_string(std::get<1>(info.param)) + "_" +
             la::BackendKindName(std::get<2>(info.param));
    });

}  // namespace
}  // namespace ppfr
