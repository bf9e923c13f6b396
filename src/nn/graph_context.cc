#include "nn/graph_context.h"

#include "graph/graph_ops.h"

namespace ppfr::nn {

GraphContext GraphContext::Build(graph::Graph g, la::Matrix features) {
  PPFR_CHECK_EQ(g.num_nodes(), features.rows());
  GraphContext ctx;
  ctx.gcn_adj = ag::MakeSparseOperand(graph::GcnNormalizedAdjacency(g), /*symmetric=*/true);
  ctx.mean_adj =
      ag::MakeSparseOperand(graph::MeanAggregationMatrix(g), /*symmetric=*/false);

  auto edges = std::make_shared<ag::EdgeSet>();
  const int n = g.num_nodes();
  edges->num_dst = n;
  edges->num_src = n;
  edges->row_ptr.assign(n + 1, 0);
  for (int v = 0; v < n; ++v) {
    edges->row_ptr[v + 1] = edges->row_ptr[v] + g.Degree(v) + 1;  // +1 self-loop
  }
  edges->col_idx.resize(edges->row_ptr[n]);
  for (int v = 0; v < n; ++v) {
    int64_t k = edges->row_ptr[v];
    edges->col_idx[k++] = v;
    for (int u : g.Neighbors(v)) edges->col_idx[k++] = u;
  }
  ctx.edges_with_self = std::move(edges);

  ctx.graph = std::move(g);
  ctx.features = std::move(features);
  return ctx;
}

const std::shared_ptr<const la::CsrMatrix>& GraphContext::SparseFeatures() const {
  std::call_once(sparse_features_->once, [this] {
    sparse_features_->csr =
        std::make_shared<const la::CsrMatrix>(la::CsrMatrix::FromDense(features));
  });
  return sparse_features_->csr;
}

Block GraphContext::ExactBlock(ModelKind kind, const std::vector<int>& outputs) const {
  for (int v : outputs) {
    PPFR_CHECK_GE(v, 0);
    PPFR_CHECK_LT(v, num_nodes());
  }
  // The kind's operator as global CSR rows; attention edges carry no values
  // and keep the context's order within each row, so every destination's
  // softmax sums in the full-graph order.
  const std::vector<int64_t>* row_ptr = nullptr;
  const std::vector<int>* col_idx = nullptr;
  const std::vector<double>* values = nullptr;
  if (kind == ModelKind::kGat) {
    row_ptr = &edges_with_self->row_ptr;
    col_idx = &edges_with_self->col_idx;
  } else {
    const la::CsrMatrix& op = kind == ModelKind::kGcn ? gcn_adj->mat : mean_adj->mat;
    row_ptr = &op.row_ptr();
    col_idx = &op.col_idx();
    values = &op.values();
  }
  return ExpandBlock(
      kind, outputs, /*num_hops=*/2,
      [&](int /*hop*/, int v, std::vector<int>* sources, std::vector<double>* weights) {
        const size_t begin = static_cast<size_t>((*row_ptr)[v]);
        const size_t end = static_cast<size_t>((*row_ptr)[v + 1]);
        sources->assign(col_idx->begin() + begin, col_idx->begin() + end);
        if (values != nullptr) {
          weights->assign(values->begin() + begin, values->begin() + end);
        }
      });
}

std::shared_ptr<const ag::SparseOperand> GraphContext::SampledMeanAdj(int fanout,
                                                                      Rng* rng) const {
  return ag::MakeSparseOperand(graph::SampledMeanAggregationMatrix(graph, fanout, rng),
                               /*symmetric=*/false);
}

}  // namespace ppfr::nn
