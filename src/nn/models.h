#ifndef PPFR_NN_MODELS_H_
#define PPFR_NN_MODELS_H_

#include <memory>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "nn/block.h"
#include "nn/gat_conv.h"
#include "nn/gcn_conv.h"
#include "nn/graph_context.h"
#include "nn/sage_conv.h"

namespace ppfr::nn {

std::string ModelKindName(ModelKind kind);

// Per-forward options. `sage_aggregator` carries the per-epoch sampled
// neighbour mean for GraphSAGE training passes.
struct ForwardOptions {
  std::shared_ptr<const ag::SparseOperand> sage_aggregator;
};

// A node-classification GNN. Forward returns raw logits (n x classes); the
// trainer / metrics apply (log-)softmax.
class GnnModel {
 public:
  virtual ~GnnModel() = default;

  virtual ag::Var Forward(ag::Tape& tape, const GraphContext& ctx,
                          const ForwardOptions& options) = 0;
  // Forward over a 2-hop block of this model's kind (nn/block.h): `x` holds
  // the features of block.frontier as CSR rows (layer 1 projects them with
  // one sparse product); the result has block.num_targets() rows,
  // aligned with the block's output nodes. Over an exact block
  // (GraphContext::ExactBlock) the output rows equal Forward's up to float
  // summation order. `replay_lanes` > 1 builds the lane-wide graph of the
  // fused multi-point tape replay: every parameter must have been widened to
  // `replay_lanes` column blocks (WidenModelParams), the logits come out
  // (rows x classes·lanes) with lane l in columns [l·classes, (l+1)·classes),
  // and each lane is bitwise identical to a replay_lanes == 1 forward at that
  // lane's parameter point.
  virtual ag::Var ForwardBlock(ag::Tape& tape, const Block& block,
                               const std::shared_ptr<const la::CsrMatrix>& x,
                               int replay_lanes) = 0;
  virtual std::vector<ag::Parameter*> Params() = 0;
  virtual ModelKind kind() const = 0;
  // Deep copy (used to keep the vanilla model while fine-tuning a clone).
  virtual std::unique_ptr<GnnModel> Clone() const = 0;

  // True when training should resample neighbourhoods each epoch.
  bool UsesNeighborSampling() const { return kind() == ModelKind::kGraphSage; }

  // Convenience: forward pass without sampling, returning logits values.
  la::Matrix Logits(const GraphContext& ctx);
  // Softmax probabilities of Logits().
  la::Matrix PredictProbs(const GraphContext& ctx);

 protected:
  // CHECKs that `block` is a 2-hop block of this model's kind over `x`.
  void CheckBlock(const Block& block,
                  const std::shared_ptr<const la::CsrMatrix>& x) const;
};

// Two-layer GCN: ReLU(Â X W1) -> Â H W2.
class Gcn final : public GnnModel {
 public:
  Gcn(int in_dim, int hidden_dim, int num_classes, uint64_t seed);

  ag::Var Forward(ag::Tape& tape, const GraphContext& ctx,
                  const ForwardOptions& options) override;
  ag::Var ForwardBlock(ag::Tape& tape, const Block& block,
                       const std::shared_ptr<const la::CsrMatrix>& x,
                       int replay_lanes) override;
  std::vector<ag::Parameter*> Params() override;
  ModelKind kind() const override { return ModelKind::kGcn; }
  std::unique_ptr<GnnModel> Clone() const override;

 private:
  GcnConv conv1_;
  GcnConv conv2_;
};

// Two-layer GAT: ELU(GAT(in->hidden, heads, concat)) -> GAT(hidden*heads->C, 1 head).
class Gat final : public GnnModel {
 public:
  Gat(int in_dim, int hidden_dim, int num_classes, int heads, uint64_t seed);

  ag::Var Forward(ag::Tape& tape, const GraphContext& ctx,
                  const ForwardOptions& options) override;
  ag::Var ForwardBlock(ag::Tape& tape, const Block& block,
                       const std::shared_ptr<const la::CsrMatrix>& x,
                       int replay_lanes) override;
  std::vector<ag::Parameter*> Params() override;
  ModelKind kind() const override { return ModelKind::kGat; }
  std::unique_ptr<GnnModel> Clone() const override;

 private:
  GatConv conv1_;
  GatConv conv2_;
};

// Two-layer GraphSAGE with mean aggregation and neighbour sampling.
class GraphSage final : public GnnModel {
 public:
  GraphSage(int in_dim, int hidden_dim, int num_classes, uint64_t seed);

  ag::Var Forward(ag::Tape& tape, const GraphContext& ctx,
                  const ForwardOptions& options) override;
  ag::Var ForwardBlock(ag::Tape& tape, const Block& block,
                       const std::shared_ptr<const la::CsrMatrix>& x,
                       int replay_lanes) override;
  std::vector<ag::Parameter*> Params() override;
  ModelKind kind() const override { return ModelKind::kGraphSage; }
  std::unique_ptr<GnnModel> Clone() const override;

 private:
  SageConv conv1_;
  SageConv conv2_;
};

// Factory with per-kind default hyperparameters (hidden width, heads).
std::unique_ptr<GnnModel> MakeModel(ModelKind kind, int in_dim, int num_classes,
                                    uint64_t seed);

// Reshapes every parameter of `model` (value and grad) from (r x c) to
// (r x c·lanes) zeros, the column-blocked layout that a ForwardBlock with
// replay_lanes == lanes consumes. The widened values
// are meaningless until the caller scatters per-lane parameter points into
// the column blocks (influence::GradLanePool does this per replay chunk) —
// widening is a layout change, not a broadcast.
void WidenModelParams(GnnModel* model, int lanes);

}  // namespace ppfr::nn

#endif  // PPFR_NN_MODELS_H_
