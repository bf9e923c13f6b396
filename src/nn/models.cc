#include "nn/models.h"

namespace ppfr::nn {
namespace {
constexpr int kGcnHidden = 16;
constexpr int kGatHidden = 8;
constexpr int kGatHeads = 4;
constexpr int kSageHidden = 16;
}  // namespace

std::string ModelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kGcn:
      return "GCN";
    case ModelKind::kGat:
      return "GAT";
    case ModelKind::kGraphSage:
      return "GraphSage";
  }
  return "?";
}

void GnnModel::CheckBlock(const Block& block,
                          const std::shared_ptr<const la::CsrMatrix>& x) const {
  PPFR_CHECK(block.kind == kind())
      << ModelKindName(kind()) << " cannot run a " << ModelKindName(block.kind)
      << " block";
  PPFR_CHECK_EQ(block.hops.size(), size_t{2}) << "two-layer models need 2-hop blocks";
  PPFR_CHECK(x != nullptr);
  PPFR_CHECK_EQ(x->rows(), block.num_inputs());
}

la::Matrix GnnModel::Logits(const GraphContext& ctx) {
  ag::Tape tape;
  ag::Var out = Forward(tape, ctx, ForwardOptions{});
  return out.value();
}

la::Matrix GnnModel::PredictProbs(const GraphContext& ctx) {
  return la::SoftmaxRows(Logits(ctx));
}

// ---- GCN ----

Gcn::Gcn(int in_dim, int hidden_dim, int num_classes, uint64_t seed)
    : conv1_(in_dim, hidden_dim, seed), conv2_(hidden_dim, num_classes, seed + 101) {}

ag::Var Gcn::Forward(ag::Tape& tape, const GraphContext& ctx,
                     const ForwardOptions& /*options*/) {
  ag::Var h = ag::Relu(conv1_.Forward(tape, ctx.gcn_adj, ctx.SparseFeatures()));
  return conv2_.Forward(tape, ctx.gcn_adj, h);
}

ag::Var Gcn::ForwardBlock(ag::Tape& tape, const Block& block,
                          const std::shared_ptr<const la::CsrMatrix>& x,
                          int replay_lanes) {
  CheckBlock(block, x);
  ag::Var h = ag::Relu(conv1_.Forward(tape, block.hops[0].agg, x, replay_lanes));
  return conv2_.Forward(tape, block.hops[1].agg, h, replay_lanes);
}

std::vector<ag::Parameter*> Gcn::Params() {
  std::vector<ag::Parameter*> params = conv1_.Params();
  for (ag::Parameter* p : conv2_.Params()) params.push_back(p);
  return params;
}

std::unique_ptr<GnnModel> Gcn::Clone() const { return std::make_unique<Gcn>(*this); }

// ---- GAT ----

Gat::Gat(int in_dim, int hidden_dim, int num_classes, int heads, uint64_t seed)
    : conv1_(in_dim, hidden_dim, heads, seed),
      conv2_(hidden_dim * heads, num_classes, 1, seed + 101) {}

ag::Var Gat::Forward(ag::Tape& tape, const GraphContext& ctx,
                     const ForwardOptions& /*options*/) {
  ag::Var h = ag::Elu(conv1_.Forward(tape, ctx.edges_with_self, ctx.SparseFeatures()));
  return conv2_.Forward(tape, ctx.edges_with_self, h);
}

ag::Var Gat::ForwardBlock(ag::Tape& tape, const Block& block,
                          const std::shared_ptr<const la::CsrMatrix>& x,
                          int replay_lanes) {
  CheckBlock(block, x);
  ag::Var h = ag::Elu(conv1_.Forward(tape, block.hops[0].edges, x, replay_lanes));
  return conv2_.Forward(tape, block.hops[1].edges, h, replay_lanes);
}

std::vector<ag::Parameter*> Gat::Params() {
  std::vector<ag::Parameter*> params = conv1_.Params();
  for (ag::Parameter* p : conv2_.Params()) params.push_back(p);
  return params;
}

std::unique_ptr<GnnModel> Gat::Clone() const { return std::make_unique<Gat>(*this); }

// ---- GraphSAGE ----

GraphSage::GraphSage(int in_dim, int hidden_dim, int num_classes, uint64_t seed)
    : conv1_(in_dim, hidden_dim, seed), conv2_(hidden_dim, num_classes, seed + 101) {}

ag::Var GraphSage::Forward(ag::Tape& tape, const GraphContext& ctx,
                           const ForwardOptions& options) {
  const auto& agg =
      options.sage_aggregator != nullptr ? options.sage_aggregator : ctx.mean_adj;
  ag::Var h = ag::Relu(conv1_.Forward(tape, agg, ctx.SparseFeatures()));
  return conv2_.Forward(tape, agg, h);
}

ag::Var GraphSage::ForwardBlock(ag::Tape& tape, const Block& block,
                                const std::shared_ptr<const la::CsrMatrix>& x,
                                int replay_lanes) {
  CheckBlock(block, x);
  ag::Var h = ag::Relu(conv1_.Forward(tape, block.hops[0].agg, x, replay_lanes));
  return conv2_.Forward(tape, block.hops[1].agg, h, replay_lanes);
}

std::vector<ag::Parameter*> GraphSage::Params() {
  std::vector<ag::Parameter*> params = conv1_.Params();
  for (ag::Parameter* p : conv2_.Params()) params.push_back(p);
  return params;
}

std::unique_ptr<GnnModel> GraphSage::Clone() const {
  return std::make_unique<GraphSage>(*this);
}

std::unique_ptr<GnnModel> MakeModel(ModelKind kind, int in_dim, int num_classes,
                                    uint64_t seed) {
  switch (kind) {
    case ModelKind::kGcn:
      return std::make_unique<Gcn>(in_dim, kGcnHidden, num_classes, seed);
    case ModelKind::kGat:
      return std::make_unique<Gat>(in_dim, kGatHidden, num_classes, kGatHeads, seed);
    case ModelKind::kGraphSage:
      return std::make_unique<GraphSage>(in_dim, kSageHidden, num_classes, seed);
  }
  PPFR_CHECK(false) << "unknown model kind";
  return nullptr;
}

void WidenModelParams(GnnModel* model, int lanes) {
  PPFR_CHECK_GE(lanes, 1);
  if (lanes == 1) return;
  for (ag::Parameter* p : model->Params()) {
    p->value = la::Matrix(p->value.rows(), p->value.cols() * lanes);
    p->grad = la::Matrix(p->grad.rows(), p->grad.cols() * lanes);
  }
}

}  // namespace ppfr::nn
