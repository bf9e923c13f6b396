#include "nn/gcn_conv.h"

#include "nn/init.h"

namespace ppfr::nn {

GcnConv::GcnConv(int in_dim, int out_dim, uint64_t seed)
    : weight_("gcn.weight",
              [&] {
                Rng rng(seed);
                return GlorotUniform(in_dim, out_dim, &rng);
              }()),
      bias_("gcn.bias", Zeros(1, out_dim)) {}

// The projection is the only lane-aware op the layer needs: SpMM and the
// bias broadcast are column-count-invariant per element, so the lane-wide
// activations flow through them unchanged (lanes == 1 is exactly MatMul).
ag::Var GcnConv::Forward(ag::Tape& tape,
                         const std::shared_ptr<const ag::SparseOperand>& adj,
                         ag::Var x, int lanes) {
  ag::Var w = tape.Leaf(&weight_);
  ag::Var b = tape.Leaf(&bias_);
  return ag::AddRowVec(ag::SpMM(adj, ag::MatMulLanes(x, w, lanes)), b);
}

ag::Var GcnConv::Forward(ag::Tape& tape,
                         const std::shared_ptr<const ag::SparseOperand>& adj,
                         const std::shared_ptr<const la::CsrMatrix>& x, int lanes) {
  ag::Var w = tape.Leaf(&weight_);
  ag::Var b = tape.Leaf(&bias_);
  return ag::AddRowVec(ag::SpMM(adj, ag::CsrMatMulLanes(x, w, lanes, x->rows())), b);
}

std::vector<ag::Parameter*> GcnConv::Params() { return {&weight_, &bias_}; }

}  // namespace ppfr::nn
