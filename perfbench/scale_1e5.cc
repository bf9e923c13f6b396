// scale-1e5: the streamed scale pipeline at 10^5 nodes — generate and CSR
// build (set-up), then sampled mini-batch GraphSAGE, the dense bridge and the
// frontier-partitioned node-loss influence sweep. The influence layer is used
// per target here: each right-hand side has a small 2-hop support, so the
// full-graph forward it runs is overhead. The dense bridge is inside wall_s.

#include <algorithm>
#include <optional>
#include <set>

#include "bench.h"
#include "common/recoverable.h"
#include "data/scale_gen.h"
#include "influence/frontier.h"
#include "influence/influence.h"
#include "la/matrix.h"
#include "nn/trainer.h"

namespace ppfr::perfbench {
namespace {

// The sizes of bench_scale's committed 10^5 point, except 2048 validation
// nodes (accuracy steadier across seeds) and the influence sweep: 16 targets
// in one frontier chunk, solved at a fixed 4 block iterations (damping 1
// converges in about 8, and past that the residuals reach round-off). With
// bench_scale's 4096-node budget the chunk count (2 to 8 for 8 targets)
// follows the hubs each seed puts near the targets, and the unit's time and
// peak memory with it.
constexpr int64_t kNodes = 100000;
constexpr int kTrainCount = 1024;
constexpr int kValCount = 2048;
constexpr int kInfluenceTrain = 96;
constexpr int kInfluenceTargets = 16;
constexpr int64_t kSupportBudget = kNodes;
constexpr int kCgIterations = 4;

class Scale1e5 final : public Workload {
 public:
  explicit Scale1e5(const WorkloadOptions& options) : options_(options) {
    config_.num_nodes = kNodes;
  }

  double NominalUnitSeconds() const override { return 13.0; }

  void Setup(Tracer* tracer) override {
    dataset_.reset();
    edges_streamed_ = 0;
    {
      ScopedSpan span(tracer, "data.generate");
      data::StreamScaleEdges(config_, options_.seed,
                             [this](int64_t, int64_t) { ++edges_streamed_; });
    }
    ScopedSpan span(tracer, "graph.csr_build");
    dataset_.emplace(config_, options_.seed);
  }

  void RunUnit(Tracer* tracer, Report* report) override {
    const graph::CsrAdjacency& adj = dataset_->adjacency();
    report->Check(adj.num_edges() > 0 && adj.num_edges() <= edges_streamed_,
                  "CSR edge count outside (0, edges streamed]");
    const std::vector<int> train_nodes = dataset_->StridedNodes(kTrainCount, 1);
    // Strided picks of different counts can coincide; validate on the rest.
    std::vector<int> val_nodes;
    for (int v : dataset_->StridedNodes(kValCount, 2)) {
      if (!std::binary_search(train_nodes.begin(), train_nodes.end(), v)) {
        val_nodes.push_back(v);
      }
    }

    auto model = nn::MakeModel(nn::ModelKind::kGraphSage, config_.feature_dim,
                               dataset_->num_classes(), options_.seed);
    nn::SampledTrainSpec spec;
    spec.adj = &adj;
    spec.gather_features = [this](const std::vector<int>& nodes) {
      return dataset_->GatherFeatures(nodes);
    };
    nn::TrainConfig train_config;
    train_config.epochs = 3;
    train_config.sage_fanout = 5;
    train_config.batch_nodes = 256;
    train_config.seed = options_.seed;
    nn::TrainStats train_stats;
    {
      ScopedSpan span(tracer, "nn.train_sampled");
      train_stats = nn::TrainSampled(model.get(), spec, train_nodes,
                                     dataset_->LabelsFor(train_nodes), train_config);
    }
    report->CountUnit(AllFinite(train_stats.epoch_losses), "sampled SAGE training");

    la::Matrix val_logits;
    {
      ScopedSpan span(tracer, "nn.sampled_logits");
      val_logits = nn::SampledLogits(model.get(), spec, val_nodes);
    }
    const std::vector<int> predicted = la::ArgmaxRows(val_logits);
    const std::vector<int> val_labels = dataset_->LabelsFor(val_nodes);
    int64_t correct = 0;
    for (size_t i = 0; i < val_nodes.size(); ++i) {
      if (predicted[i] == val_labels[i]) ++correct;
    }
    const double accuracy =
        static_cast<double>(correct) / static_cast<double>(val_nodes.size());
    report->CountUnit(
        val_logits.rows() == static_cast<int>(val_nodes.size()) &&
            AllFinite(std::vector<double>(val_logits.data(),
                                          val_logits.data() + val_logits.size())),
        "sampled validation logits");
    report->Check(accuracy > 0.0, "validation accuracy is 0");
    report->metrics["accuracy"] = accuracy;

    // The dense bridge: full feature matrix and propagation operators.
    // nn.context_build_mb is what the built context holds; the arena peak
    // stays the whole unit's (la.arena_peak_mb).
    const int64_t arena_before = la::ArenaBytesInUse();
    graph::Graph graph;
    {
      ScopedSpan span(tracer, "graph.to_graph");
      graph = adj.ToGraph();
    }
    la::Matrix features;
    std::vector<int> labels;
    {
      ScopedSpan span(tracer, "data.materialize");
      features = dataset_->MaterializeFeatures();
      labels = dataset_->MaterializeLabels();
    }
    std::optional<nn::GraphContext> ctx;
    {
      ScopedSpan span(tracer, "nn.context_build");
      ctx.emplace(nn::GraphContext::Build(std::move(graph), std::move(features)));
    }
    context_mb_ = static_cast<double>(la::ArenaBytesInUse() - arena_before) / (1 << 20);

    // The frontier-partitioned node-loss sweep: damping in the
    // positive-definite regime as in bench_scale, and narrow pools (every
    // lane carries full-graph activations).
    const std::vector<int> inf_train = dataset_->StridedNodes(kInfluenceTrain, 3);
    const std::vector<int> targets = dataset_->StridedNodes(kInfluenceTargets, 4);
    influence::InfluenceConfig inf_config = FixedWorkSolves({}, kCgIterations);
    inf_config.cg.damping = 1.0;
    inf_config.tape_pool_lanes = 2;
    inf_config.replay_lanes = 2;
    influence::FrontierPartition partition;
    {
      ScopedSpan span(tracer, "influence.partition");
      partition = influence::PartitionByTwoHopSupport(ctx->graph, targets, kSupportBudget);
    }
    std::set<int> support;
    for (const influence::FrontierChunk& chunk : partition.chunks) {
      support.insert(chunk.support.begin(), chunk.support.end());
    }
    support_frac_ = static_cast<double>(support.size()) / static_cast<double>(kNodes);

    influence::InfluenceCalculator calc(model.get(), *ctx, inf_train, labels, inf_config);
    influence::FrontierSweepResult sweep;
    bool ok = true;
    try {
      {
        ScopedSpan span(tracer, "influence.per_node_grads");
        calc.PerNodeLossGrads();
      }
      ScopedSpan span(tracer, "influence.sweep");
      sweep = influence::RunFrontierSweep(&calc, partition, {});
    } catch (const RecoverableError&) {
      ok = false;
    }
    stats_ = calc.block_stats();
    ok = ok && sweep.targets.size() == targets.size() &&
         sweep.influence.size() == targets.size();
    for (const std::vector<double>& row : sweep.influence) {
      ok = ok && row.size() == inf_train.size() && AllFinite(row);
    }
    report->CountUnit(ok, "frontier influence sweep");
  }

  void Probe(Tracer* tracer, Report* report) override {
    auto& m = report->metrics;
    m["data.generate_s"] = tracer->TotalSeconds("data.generate");
    m["graph.csr_build_s"] = tracer->TotalSeconds("graph.csr_build");
    m["nn.train_sampled_s"] = tracer->TotalSeconds("nn.train_sampled");
    m["nn.sampled_logits_s"] = tracer->TotalSeconds("nn.sampled_logits");
    m["nn.context_build_s"] = tracer->TotalSeconds("nn.context_build");
    m["nn.context_build_mb"] = context_mb_;
    m["influence.partition_s"] = tracer->TotalSeconds("influence.partition");
    m["influence.per_node_grads_s"] = tracer->TotalSeconds("influence.per_node_grads");
    m["influence.sweep_s"] = tracer->TotalSeconds("influence.sweep");
    m["influence.support_frac"] = support_frac_;
    m["influence.grad_evals"] = stats_.grad_evals;
    m["influence.block_iterations"] = stats_.block_iterations;
    m["influence.algebra_s"] = stats_.algebra_seconds;

    // Layer probes on the full graph, rebuilt here (the unit's bridge is gone).
    nn::GraphContext ctx = nn::GraphContext::Build(dataset_->adjacency().ToGraph(),
                                                   dataset_->MaterializeFeatures());
    auto model = nn::MakeModel(nn::ModelKind::kGraphSage, config_.feature_dim,
                               dataset_->num_classes(), options_.seed);
    std::vector<double> forward_ms;
    {
      ScopedSpan span(tracer, "nn.full_forward");
      for (int r = 0; r < 3; ++r) {
        const double start = NowSeconds();
        model->Logits(ctx);
        forward_ms.push_back(1e3 * (NowSeconds() - start));
      }
    }
    m["nn.full_forward_ms"] = Median(forward_ms);
    ProbeGemm(ctx.num_nodes(), ctx.feature_dim(),
              model->Params().front()->value.cols(), tracer, report);
    m["la.spmm_ms"] = ProbeSpmmMs(ctx, tracer);
  }

 private:
  WorkloadOptions options_;
  data::ScaleGraphConfig config_;
  std::optional<data::ScaleDataset> dataset_;
  int64_t edges_streamed_ = 0;
  double context_mb_ = 0.0;
  double support_frac_ = 0.0;
  influence::BlockSolveStats stats_;
};

}  // namespace

std::unique_ptr<Workload> MakeScale1e5(const WorkloadOptions& options) {
  return std::make_unique<Scale1e5>(options);
}

}  // namespace ppfr::perfbench
