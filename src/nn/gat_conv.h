#ifndef PPFR_NN_GAT_CONV_H_
#define PPFR_NN_GAT_CONV_H_

#include <memory>
#include <vector>

#include "autograd/ops.h"
#include "common/rng.h"

namespace ppfr::nn {

// Multi-head graph attention layer (Velickovic et al.):
//   per head h: H_h = X W_h,  e_ij = LeakyReLU(a_lᵀ H_h[i] + a_rᵀ H_h[j])
//   alpha = softmax_j(e_ij) over j ∈ N(i) ∪ {i},  out_i = Σ_j alpha_ij H_h[j]
// Head outputs are concatenated (out_dim·heads columns); the output layer
// runs one head.
class GatConv {
 public:
  GatConv(int in_dim, int out_dim, int heads, uint64_t seed);

  GatConv(const GatConv&) = default;
  GatConv& operator=(const GatConv&) = default;

  // `edges` is the attention support: the context's self-looped edge set, or
  // a block hop's rows of it (destinations are the leading rows of `x`).
  // `lanes` > 1 runs the fused-replay lane-wide graph (see GcnConv::Forward).
  // Every lane count takes one path: the per-head weights concatenate into
  // [lane][head][d] columns, one product projects all of them, and one
  // ag::GatAttention treats the lanes·heads (lane, head) pairs as
  // independent heads. A lane-wide `x` (a hidden layer) is projected per
  // replay lane.
  ag::Var Forward(ag::Tape& tape, const std::shared_ptr<const ag::EdgeSet>& edges,
                  ag::Var x, int lanes = 1);
  // Layer 1: lane-shared sparse features. One CSR product multiplies every
  // (lane, head) block as its own lane of width out_dim, so each head keeps
  // the bits of a per-head product.
  ag::Var Forward(ag::Tape& tape, const std::shared_ptr<const ag::EdgeSet>& edges,
                  const std::shared_ptr<const la::CsrMatrix>& x, int lanes = 1);

  std::vector<ag::Parameter*> Params();

  int output_dim() const { return out_dim_ * heads_; }

 private:
  // Per-head leaves concatenated lane by lane into [lane][head][·] columns.
  ag::Var HeadConcat(ag::Tape& tape, std::vector<ag::Parameter>& per_head, int lanes);
  // The attention over `projected` ([lane][head][d] columns).
  ag::Var Attend(ag::Tape& tape, const std::shared_ptr<const ag::EdgeSet>& edges,
                 ag::Var projected, int lanes);

  int out_dim_;
  int heads_;
  std::vector<ag::Parameter> weights_;     // per head: in_dim x out_dim
  std::vector<ag::Parameter> attn_left_;   // per head: out_dim x 1
  std::vector<ag::Parameter> attn_right_;  // per head: out_dim x 1
};

}  // namespace ppfr::nn

#endif  // PPFR_NN_GAT_CONV_H_
