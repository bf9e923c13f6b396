#ifndef PPFR_NN_GRAPH_CONTEXT_H_
#define PPFR_NN_GRAPH_CONTEXT_H_

#include <memory>
#include <mutex>
#include <vector>

#include "autograd/ops.h"
#include "common/rng.h"
#include "graph/graph.h"
#include "la/matrix.h"
#include "nn/block.h"

namespace ppfr::nn {

// A snapshot of everything a GNN forward pass needs about one graph:
// features plus the propagation operators for each architecture. PPFR's
// structure perturbations produce a *new* context from the edited graph and
// hand it to the same model — which is what makes the method model-agnostic.
struct GraphContext {
  graph::Graph graph;
  la::Matrix features;

  // Symmetric GCN operator D̃^{-1/2}(A+I)D̃^{-1/2}.
  std::shared_ptr<const ag::SparseOperand> gcn_adj;
  // Row-stochastic neighbour mean (GraphSAGE full-graph aggregator).
  std::shared_ptr<const ag::SparseOperand> mean_adj;
  // Destination-grouped edges including self-loops (GAT attention support).
  std::shared_ptr<const ag::EdgeSet> edges_with_self;

  int num_nodes() const { return graph.num_nodes(); }
  int feature_dim() const { return features.cols(); }

  // `features` in CSR form — what every model's layer 1 multiplies. Built by
  // one row scan on the first call (thread-safe), so contexts that never run
  // a full-graph forward never pay for it; `features` must not change after.
  const std::shared_ptr<const la::CsrMatrix>& SparseFeatures() const;

  // Builds all operators from a graph + feature matrix.
  static GraphContext Build(graph::Graph g, la::Matrix features);

  // The exact 2-hop block of `outputs` (distinct node ids, kept in call order
  // as the block's output rows) for a `kind` model: each hop slices the rows
  // of that kind's own operator — Â rows for GCN (so the full-graph degree
  // normalisation is kept), neighbour-mean rows for GraphSAGE, and the
  // self-looped attention edges for GAT, restricted to the hop's destination
  // rows. A block forward therefore equals the full-graph forward on the
  // output rows up to float summation order.
  Block ExactBlock(ModelKind kind, const std::vector<int>& outputs) const;

  // Per-epoch sampled GraphSAGE aggregator (fanout neighbours per node).
  std::shared_ptr<const ag::SparseOperand> SampledMeanAdj(int fanout, Rng* rng) const;

 private:
  // Behind a shared_ptr so the context stays copyable and movable; copies
  // share it along with their identical features.
  struct LazyCsr {
    std::once_flag once;
    std::shared_ptr<const la::CsrMatrix> csr;
  };
  std::shared_ptr<LazyCsr> sparse_features_ = std::make_shared<LazyCsr>();
};

}  // namespace ppfr::nn

#endif  // PPFR_NN_GRAPH_CONTEXT_H_
