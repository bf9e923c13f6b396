#ifndef PPFR_NN_SAGE_CONV_H_
#define PPFR_NN_SAGE_CONV_H_

#include <memory>
#include <vector>

#include "autograd/ops.h"
#include "common/rng.h"

namespace ppfr::nn {

// GraphSAGE mean-aggregator layer (Hamilton et al.):
//   out = X W_self + mean_{j in N(i)} X_j W_neigh + b
// During training the neighbour mean uses a per-epoch *sampled* aggregator
// (the sampling is what dilutes edge-DP noise, §VII-B of the paper).
class SageConv {
 public:
  SageConv(int in_dim, int out_dim, uint64_t seed);

  SageConv(const SageConv&) = default;
  SageConv& operator=(const SageConv&) = default;

  // `agg` is the neighbour-mean operator over the rows of `x`: the context's
  // full-graph mean, a per-epoch sampled one, or a block hop's. A block hop
  // has fewer output rows than `x` — its outputs are the leading rows of the
  // input frontier (the block prefix property) — so the self term then reads
  // that prefix. `lanes` > 1 runs the fused-replay lane-wide graph (see
  // GcnConv::Forward).
  ag::Var Forward(ag::Tape& tape, const std::shared_ptr<const ag::SparseOperand>& agg,
                  ag::Var x, int lanes = 1);
  // Layer 1 over lane-shared sparse features: the self term is one CSR
  // product over the leading rows of `x`; the neighbour mean stays A·X (a
  // constant, computed sparse) and then ·W_neigh, which keeps its bits.
  ag::Var Forward(ag::Tape& tape, const std::shared_ptr<const ag::SparseOperand>& agg,
                  const std::shared_ptr<const la::CsrMatrix>& x, int lanes = 1);

  std::vector<ag::Parameter*> Params();

 private:
  ag::Parameter weight_self_;
  ag::Parameter weight_neigh_;
  ag::Parameter bias_;
};

}  // namespace ppfr::nn

#endif  // PPFR_NN_SAGE_CONV_H_
