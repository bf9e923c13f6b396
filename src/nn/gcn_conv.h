#ifndef PPFR_NN_GCN_CONV_H_
#define PPFR_NN_GCN_CONV_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "autograd/ops.h"
#include "common/rng.h"

namespace ppfr::nn {

// Graph convolution layer (Kipf & Welling): out = Â (X W) + b.
class GcnConv {
 public:
  GcnConv(int in_dim, int out_dim, uint64_t seed);

  // Copyable so models can be cloned for before/after comparisons.
  GcnConv(const GcnConv&) = default;
  GcnConv& operator=(const GcnConv&) = default;

  // `adj` is the propagation operator: the context's Â, or a block hop's
  // rows of it (output rows over the input frontier). `lanes` > 1 runs the
  // fused-replay lane-wide graph: weight/bias must be column-widened
  // (nn::WidenModelParams) and `x` is lane-wide (a previous lane-wide
  // layer's output). lanes == 1 is the ordinary narrow layer.
  ag::Var Forward(ag::Tape& tape, const std::shared_ptr<const ag::SparseOperand>& adj,
                  ag::Var x, int lanes = 1);
  // Layer 1: the same layer over lane-shared sparse features, projected by
  // one CSR product (ag::CsrMatMulLanes).
  ag::Var Forward(ag::Tape& tape, const std::shared_ptr<const ag::SparseOperand>& adj,
                  const std::shared_ptr<const la::CsrMatrix>& x, int lanes = 1);

  std::vector<ag::Parameter*> Params();

 private:
  ag::Parameter weight_;
  ag::Parameter bias_;
};

}  // namespace ppfr::nn

#endif  // PPFR_NN_GCN_CONV_H_
