#include "influence/influence.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "common/flags.h"
#include "fairness/bias_metric.h"
#include "influence/param_vector.h"
#include "la/backend.h"
#include "privacy/risk_metric.h"

namespace ppfr::influence {

// An exact block (nn::GraphContext::ExactBlock) with its feature rows
// gathered once: the input every node-local influence forward replays.
struct BlockInput {
  nn::Block block;
  std::shared_ptr<const la::CsrMatrix> features;  // ctx.features at block.frontier
};

namespace {

std::shared_ptr<const BlockInput> MakeBlockInput(const nn::GraphContext& ctx,
                                                 nn::ModelKind kind,
                                                 const std::vector<int>& outputs) {
  auto input = std::make_shared<BlockInput>();
  input->block = ctx.ExactBlock(kind, outputs);
  input->features = std::make_shared<const la::CsrMatrix>(
      la::CsrMatrix::FromDenseRows(ctx.features, input->block.frontier));
  return input;
}

// Logits over the block's outputs; the features are shared by every replay.
ag::Var BlockLogits(nn::GnnModel* model, ag::Tape& tape, const BlockInput& input,
                    int replay_lanes) {
  return model->ForwardBlock(tape, input.block, input.features, replay_lanes);
}

}  // namespace

InfluenceCalculator::InfluenceCalculator(nn::GnnModel* model,
                                         const nn::GraphContext& ctx,
                                         std::vector<int> train_nodes,
                                         const std::vector<int>& labels,
                                         const InfluenceConfig& config)
    : model_(model),
      ctx_(ctx),
      train_nodes_(std::move(train_nodes)),
      labels_(labels),
      config_(config) {
  PPFR_CHECK(!train_nodes_.empty());
  params_ = model_->Params();
  train_labels_.reserve(train_nodes_.size());
  uint64_t digest = 1469598103934665603ULL;  // FNV-1a over the train list
  for (int v : train_nodes_) {
    PPFR_CHECK_GE(v, 0);
    PPFR_CHECK_LT(v, static_cast<int>(labels.size()));
    train_labels_.push_back(labels[v]);
    digest = (digest ^ static_cast<uint32_t>(v)) * 1099511628211ULL;
  }
  train_digest_ = std::to_string(digest);
  train_outputs_ = train_nodes_;
  std::sort(train_outputs_.begin(), train_outputs_.end());
  train_outputs_.erase(std::unique(train_outputs_.begin(), train_outputs_.end()),
                       train_outputs_.end());
  train_rows_.reserve(train_nodes_.size());
  for (int v : train_nodes_) {
    train_rows_.push_back(static_cast<int>(
        std::lower_bound(train_outputs_.begin(), train_outputs_.end(), v) -
        train_outputs_.begin()));
  }
}

const std::shared_ptr<const BlockInput>& InfluenceCalculator::TrainBlock() {
  if (train_block_ == nullptr) {
    train_block_ = MakeBlockInput(ctx_, model_->kind(), train_outputs_);
  }
  return train_block_;
}

int ResolveCgBlock(int configured) {
  if (configured > 0) return configured;
  return static_cast<int>(
      EnvInt64OrDie("PPFR_CG_BLOCK", 8, 1, std::numeric_limits<int>::max()));
}

int ResolveReplayLanes(int configured) {
  if (configured > 0) return configured;
  return static_cast<int>(
      EnvInt64OrDie("PPFR_REPLAY_LANES", 8, 1, std::numeric_limits<int>::max()));
}

int InfluenceCalculator::ResolvedCgBlock() const {
  return ResolveCgBlock(config_.cg_block);
}

int InfluenceCalculator::ResolvedReplayLanes() const {
  return ResolveReplayLanes(config_.replay_lanes);
}

int InfluenceCalculator::ResolvedLanes(int num_items) const {
  int lanes = config_.tape_pool_lanes;
  if (lanes <= 0) lanes = std::min(la::ActiveBackend().num_threads(), 8);
  return std::max(1, std::min(lanes, num_items));
}

std::vector<double> InfluenceCalculator::FunctionGrad(const FunctionBuilder& build_f) {
  ag::Tape tape;
  tape.set_accumulate_param_grads(false);
  ag::Var logits = model_->Forward(tape, ctx_, nn::ForwardOptions{});
  tape.Backward(build_f(tape, logits));
  std::vector<double> grad;
  tape.FlattenLeafGrads(params_, &grad);
  return grad;
}

ReplayCache& InfluenceCalculator::Pools() {
  return config_.replay_cache != nullptr ? *config_.replay_cache : owned_pools_;
}

TapePool* InfluenceCalculator::SharedForwardPool() {
  if (forward_pool_ != nullptr) return forward_pool_;
  // Lane count saturates at the backend's thread budget; PerSeedGrads clamps
  // to the seed count per call, and results are lane-count-invariant bit for
  // bit, so one pool serves sweeps of every size.
  const int lanes = ResolvedLanes(std::numeric_limits<int>::max());
  // The builder captures the model by pointer and the block by shared
  // ownership (never `this`): a cache-owned pool outlives this calculator and
  // rewarms against the same model object from a later one.
  nn::GnnModel* model = model_;
  const TapePool::Builder builder = [model, input = TrainBlock()](ag::Tape& tape) {
    return ag::LogSoftmaxRows(BlockLogits(model, tape, *input, 1));
  };
  const std::string key = "fwd:" +
                          std::to_string(reinterpret_cast<std::uintptr_t>(model_)) +
                          ":" + train_digest_ + ":" + std::to_string(lanes);
  forward_pool_ = Pools().GetOrCreateTapePool(
      key, [&] { return std::make_unique<TapePool>(builder, params_, lanes); });
  return forward_pool_;
}

const std::vector<std::vector<double>>& InfluenceCalculator::PerNodeLossGrads() {
  if (!per_node_grads_.empty()) return per_node_grads_;
  // Seed dL_v/dlogp = -1 at (v's block row, label_v) — exactly the gradient
  // the serial reference's single-node WeightedNll writes, so the paths stay
  // bitwise identical without materialising a loss node per seed.
  per_node_grads_ = SharedForwardPool()->PerSeedGrads(
      static_cast<int>(train_nodes_.size()),
      [this](int k, std::vector<int>* rows, std::vector<int>* cols,
             std::vector<double>* values) {
        rows->push_back(train_rows_[static_cast<size_t>(k)]);
        cols->push_back(train_labels_[static_cast<size_t>(k)]);
        values->push_back(-1.0);
      });
  return per_node_grads_;
}

std::vector<std::vector<double>>
InfluenceCalculator::PerNodeLossGradsSerialReference() {
  ag::Tape tape;
  ag::Var logp = ag::LogSoftmaxRows(BlockLogits(model_, tape, *TrainBlock(), 1));
  la::Matrix seed(1, 1);
  seed(0, 0) = 1.0;
  std::vector<std::vector<double>> grads;
  grads.reserve(train_nodes_.size());
  for (size_t k = 0; k < train_nodes_.size(); ++k) {
    for (ag::Parameter* p : params_) p->ZeroGrad();
    tape.ZeroAllGrads();
    ag::Var loss_v = ag::WeightedNll(logp, {train_rows_[k]}, {train_labels_[k]},
                                     {1.0}, 1.0);
    tape.BackwardWithSeed(loss_v, seed);
    grads.push_back(FlattenGrads(params_));
  }
  return grads;
}

std::vector<double> InfluenceCalculator::NodeLossGradOverOwnBlock(int t) {
  const std::shared_ptr<const BlockInput> input =
      MakeBlockInput(ctx_, model_->kind(), {t});
  const int label = labels_[static_cast<size_t>(t)];
  return ReusableLossGraph(
             [this, &input, label](ag::Tape& tape) {
               ag::Var logp =
                   ag::LogSoftmaxRows(BlockLogits(model_, tape, *input, 1));
               return ag::WeightedNll(logp, {0}, {label}, {1.0}, 1.0);
             },
             params_)
      .Grad();
}

GradLanePool* InfluenceCalculator::ProbePool(int max_points) {
  // Every lane owns a full model clone, WIDENED to `width` parameter-column
  // blocks: one replay of its lane-wide loss graph evaluates the gradient at
  // `width` probe points through wide BLAS-3 passes. Probe evaluation never
  // touches the real parameters. Thread-lane count follows tape_pool_lanes
  // over the CHUNK count (a chunk = one fused replay); the per-point
  // gradients are invariant bit for bit to both the thread-lane count and the
  // fused width (each fused lane's arithmetic IS the serial graph's — see
  // autograd/ops.cc lane ops). A pool wider than its largest call would only
  // ever run pad lanes, so the width is clamped to `max_points`
  // (replay_lanes = 8 at cg_block = 1 → width 2).
  const int width = std::min(ResolvedReplayLanes(), std::max(1, max_points));
  const int chunks = std::max(1, (max_points + width - 1) / width);
  // A wide clone's tapes are `width`× a narrow clone's, so chunk workers
  // beyond the backend's thread budget buy no concurrency and multiply the
  // working set past cache — clamp to the threads that actually exist.
  // Results are lane-count invariant bit for bit, so this only moves time.
  const int lanes = std::max(
      1, std::min(ResolvedLanes(chunks), la::ActiveBackend().num_threads()));
  // Captures are by value / stable pointer (never `this`): a cache-owned
  // pool outlives this calculator.
  nn::GnnModel* model = model_;
  const GradLanePool::WideLaneFactory factory =
      [model, input = TrainBlock(), rows = train_rows_,
       node_labels = train_labels_](int w) {
        GradLane lane;
        std::unique_ptr<nn::GnnModel> clone = model->Clone();
        nn::GnnModel* m = clone.get();
        nn::WidenModelParams(m, w);
        lane.width = w;
        lane.params = m->Params();
        lane.graph = std::make_unique<ReusableLossGraph>(
            [m, input, rows, node_labels, w](ag::Tape& tape) {
              ag::Var logp =
                  ag::LogSoftmaxRowsLanes(BlockLogits(m, tape, *input, w), w);
              const std::vector<double> ones(rows.size(), 1.0);
              return ag::WeightedNllLanes(logp, rows, node_labels, ones,
                                          static_cast<double>(rows.size()), w);
            },
            lane.params);
        lane.owner = std::shared_ptr<void>(std::move(clone));
        return lane;
      };
  const std::string key = "lanes:" +
                          std::to_string(reinterpret_cast<std::uintptr_t>(model_)) +
                          ":" + train_digest_ + ":" + std::to_string(lanes) + "x" +
                          std::to_string(width);
  return Pools().GetOrCreateGradLanes(
      key, [&] { return std::make_unique<GradLanePool>(factory, lanes, width); });
}

BatchGradFn InfluenceCalculator::BatchTrainGrad() {
  // Central differencing issues 2 probe points per direction, so a block of
  // cg_block directions never needs more than 2·cg_block per call.
  if (block_pool_ == nullptr) block_pool_ = ProbePool(2 * ResolvedCgBlock());
  return [pool = block_pool_](const std::vector<std::vector<double>>& points) {
    return pool->GradsAt(points);
  };
}

BatchGradFn InfluenceCalculator::SolverGrad() {
  return [this](const std::vector<std::vector<double>>& points) {
    if (points.size() > 2) return BatchTrainGrad()(points);
    if (pair_pool_ == nullptr) pair_pool_ = ProbePool(2);
    return pair_pool_->GradsAt(points);
  };
}

MultiVector InfluenceCalculator::SolveRhsBlock(const MultiVector& b) {
  const int block = ResolvedCgBlock();
  const std::vector<double> theta = FlattenValues(params_);
  const BatchGradFn batch_grad = SolverGrad();
  MultiVector solution(b.dim(), b.k());
  for (int begin = 0; begin < b.k(); begin += block) {
    const int end = std::min(begin + block, b.k());
    std::vector<int> cols(static_cast<size_t>(end - begin));
    for (int j = begin; j < end; ++j) cols[static_cast<size_t>(j - begin)] = j;
    const BlockCgResult chunk = BlockConjugateGradientSolve(
        theta, batch_grad, b.SelectColumns(cols), config_.cg);
    for (int j = begin; j < end; ++j) {
      solution.SetColumn(j, chunk.x.Column(j - begin));
      if (chunk.converged[static_cast<size_t>(j - begin)]) ++block_stats_.converged_rhs;
      if (chunk.stop[static_cast<size_t>(j - begin)] == CgStop::kNonPositiveCurvature) {
        ++block_stats_.nonpositive_curvature_rhs;
      }
    }
    ++block_stats_.solves;
    block_stats_.block_iterations += chunk.stats.block_iterations;
    block_stats_.grad_evals += chunk.stats.grad_evals;
    block_stats_.total_rhs += end - begin;
    block_stats_.algebra_seconds += chunk.stats.algebra_seconds;
    block_stats_.algebra_flops += chunk.stats.algebra_flops;
  }
  return solution;
}

std::vector<std::vector<double>> InfluenceCalculator::ContractAgainstNodeGrads(
    const MultiVector& s) {
  // I(i, v) = -s_iᵀ ∇θL_v: one (num_f × num_train) GEMM-T against the cached
  // node-gradient block instead of num_f · num_train separate VDots.
  const MultiVector node_grads = MultiVector::FromColumns(PerNodeLossGrads());
  const la::Matrix prod = BlockGram(s, node_grads);
  std::vector<std::vector<double>> influence(
      static_cast<size_t>(s.k()),
      std::vector<double>(train_nodes_.size(), 0.0));
  for (int i = 0; i < s.k(); ++i) {
    for (size_t v = 0; v < train_nodes_.size(); ++v) {
      influence[static_cast<size_t>(i)][v] = -prod(i, static_cast<int>(v));
    }
  }
  return influence;
}

std::vector<std::vector<double>> InfluenceCalculator::InfluenceOnFunctions(
    const std::vector<FunctionBuilder>& builders) {
  if (builders.empty()) return {};
  std::vector<std::vector<double>> rhs;
  rhs.reserve(builders.size());
  for (const FunctionBuilder& build_f : builders) rhs.push_back(FunctionGrad(build_f));
  return ContractAgainstNodeGrads(SolveRhsBlock(MultiVector::FromColumns(rhs)));
}

std::vector<std::vector<double>> InfluenceCalculator::InfluenceOnNodeLosses(
    const std::vector<int>& target_nodes) {
  if (target_nodes.empty()) return {};
  for (int t : target_nodes) {
    PPFR_CHECK_GE(t, 0);
    PPFR_CHECK_LT(t, static_cast<int>(labels_.size()));
  }
  std::vector<std::vector<double>> rhs;
  rhs.reserve(target_nodes.size());
  for (int t : target_nodes) rhs.push_back(NodeLossGradOverOwnBlock(t));
  return ContractAgainstNodeGrads(SolveRhsBlock(MultiVector::FromColumns(rhs)));
}

std::vector<double> InfluenceCalculator::InfluenceOnFunction(
    const FunctionBuilder& build_f) {
  const std::vector<double> grad_f = FunctionGrad(build_f);
  const CgResult solve =
      ConjugateGradientSolve(FlattenValues(params_), SolverGrad(), grad_f, config_.cg);

  // I_f(w_v) = -s_fᵀ ∇θL_v with s_f = H⁻¹∇θf. The contraction runs through
  // the same GEMM-T kernel as the batched path (not a VDot per node), so a
  // cg_block = 1 batched call is bitwise identical to this oracle on every
  // backend — the reduction order matches by construction.
  return ContractAgainstNodeGrads(MultiVector::FromColumns({solve.x}))[0];
}

FunctionBuilder InfluenceCalculator::BiasFunction(
    const std::shared_ptr<const la::CsrMatrix>& laplacian) {
  return [laplacian](ag::Tape& tape, ag::Var logits) {
    (void)tape;
    ag::Var probs = ag::SoftmaxRows(logits);
    return ag::LaplacianQuadratic(laplacian, probs);
  };
}

FunctionBuilder InfluenceCalculator::RiskFunction(const privacy::PairSample& pairs) {
  return [pairs](ag::Tape& tape, ag::Var logits) {
    return privacy::RiskSurrogate(tape, logits, pairs);
  };
}

FunctionBuilder InfluenceCalculator::UtilityFunction() const {
  const std::vector<int> nodes = train_nodes_;
  const std::vector<int> node_labels = train_labels_;
  return [nodes, node_labels](ag::Tape& tape, ag::Var logits) {
    (void)tape;
    ag::Var logp = ag::LogSoftmaxRows(logits);
    const std::vector<double> ones(nodes.size(), 1.0);
    return ag::WeightedNll(logp, nodes, node_labels, ones,
                           static_cast<double>(nodes.size()));
  };
}

}  // namespace ppfr::influence
