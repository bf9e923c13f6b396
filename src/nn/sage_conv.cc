#include "nn/sage_conv.h"

#include "nn/init.h"

namespace ppfr::nn {

namespace {
la::Matrix Glorot(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  return GlorotUniform(rows, cols, &rng);
}
}  // namespace

SageConv::SageConv(int in_dim, int out_dim, uint64_t seed)
    : weight_self_("sage.weight_self", Glorot(in_dim, out_dim, seed)),
      weight_neigh_("sage.weight_neigh", Glorot(in_dim, out_dim, seed + 1)),
      bias_("sage.bias", Zeros(1, out_dim)) {}

ag::Var SageConv::Forward(ag::Tape& tape,
                          const std::shared_ptr<const ag::SparseOperand>& agg,
                          ag::Var x, int lanes) {
  PPFR_CHECK(agg != nullptr);
  const int num_out = agg->mat.rows();
  PPFR_CHECK_LE(num_out, x.value().rows());
  PPFR_CHECK_EQ(agg->mat.cols(), x.value().rows());
  ag::Var self_in = x;
  if (num_out < x.value().rows()) {
    std::vector<int> prefix(static_cast<size_t>(num_out));
    for (int i = 0; i < num_out; ++i) prefix[static_cast<size_t>(i)] = i;
    self_in = ag::GatherRows(x, prefix);
  }
  // Only the weight GEMMs contract over columns; GatherRows, SpMM, Add and
  // the bias broadcast pass lane-wide activations through unchanged.
  ag::Var self_term = ag::MatMulLanes(self_in, tape.Leaf(&weight_self_), lanes);
  ag::Var neigh_mean = ag::SpMM(agg, x);
  ag::Var neigh_term = ag::MatMulLanes(neigh_mean, tape.Leaf(&weight_neigh_), lanes);
  return ag::AddRowVec(ag::Add(self_term, neigh_term), tape.Leaf(&bias_));
}

ag::Var SageConv::Forward(ag::Tape& tape,
                          const std::shared_ptr<const ag::SparseOperand>& agg,
                          const std::shared_ptr<const la::CsrMatrix>& x, int lanes) {
  PPFR_CHECK(agg != nullptr);
  const int num_out = agg->mat.rows();
  PPFR_CHECK_LE(num_out, x->rows());
  PPFR_CHECK_EQ(agg->mat.cols(), x->rows());
  ag::Var self_term =
      ag::CsrMatMulLanes(x, tape.Leaf(&weight_self_), lanes, num_out);
  ag::Var neigh_mean = ag::SpMM(tape, agg, *x);
  ag::Var neigh_term = ag::MatMulLanes(neigh_mean, tape.Leaf(&weight_neigh_), lanes);
  return ag::AddRowVec(ag::Add(self_term, neigh_term), tape.Leaf(&bias_));
}

std::vector<ag::Parameter*> SageConv::Params() {
  return {&weight_self_, &weight_neigh_, &bias_};
}

}  // namespace ppfr::nn
