#include "nn/gat_conv.h"

#include "nn/init.h"

namespace ppfr::nn {
namespace {
constexpr double kLeakySlope = 0.2;
}  // namespace

GatConv::GatConv(int in_dim, int out_dim, int heads, uint64_t seed)
    : out_dim_(out_dim), heads_(heads) {
  PPFR_CHECK_GE(heads, 1);
  Rng owned_rng(seed);
  Rng* rng = &owned_rng;
  weights_.reserve(heads);
  attn_left_.reserve(heads);
  attn_right_.reserve(heads);
  for (int h = 0; h < heads; ++h) {
    weights_.emplace_back("gat.weight", GlorotUniform(in_dim, out_dim, rng));
    attn_left_.emplace_back("gat.attn_l", GlorotUniform(out_dim, 1, rng));
    attn_right_.emplace_back("gat.attn_r", GlorotUniform(out_dim, 1, rng));
  }
}

ag::Var GatConv::Forward(ag::Tape& tape,
                         const std::shared_ptr<const ag::EdgeSet>& edges, ag::Var x,
                         int lanes) {
  // Per-head leaves concatenated lane by lane into [lane][head][·] columns.
  auto head_concat = [&](std::vector<ag::Parameter>& per_head) {
    std::vector<ag::Var> leaves;
    leaves.reserve(per_head.size());
    for (ag::Parameter& p : per_head) leaves.push_back(tape.Leaf(&p));
    return heads_ == 1 ? leaves[0] : ag::ConcatCols(leaves, lanes);
  };
  ag::Var w = head_concat(weights_);
  // A lane-shared, grad-free input (the features) multiplies every
  // (lane, head) block as its own GEMM lane of width out_dim, so the GEMM
  // dispatch sees each head's narrow shape and the bits match a per-head
  // product; X is packed (and transposed in backward) once for all of them.
  // A lane-wide input (a hidden layer) is projected per replay lane.
  const bool x_shared =
      !tape.NeedsGrad(x) && x.cols() == weights_[0].value.rows();
  ag::Var projected = ag::MatMulLanes(x, w, x_shared ? lanes * heads_ : lanes);
  return ag::GatAttention(projected, head_concat(attn_left_), head_concat(attn_right_),
                          edges, lanes * heads_, kLeakySlope);
}

std::vector<ag::Parameter*> GatConv::Params() {
  std::vector<ag::Parameter*> params;
  for (int h = 0; h < heads_; ++h) {
    params.push_back(&weights_[h]);
    params.push_back(&attn_left_[h]);
    params.push_back(&attn_right_[h]);
  }
  return params;
}

}  // namespace ppfr::nn
