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

ag::Var GatConv::HeadConcat(ag::Tape& tape, std::vector<ag::Parameter>& per_head,
                            int lanes) {
  std::vector<ag::Var> leaves;
  leaves.reserve(per_head.size());
  for (ag::Parameter& p : per_head) leaves.push_back(tape.Leaf(&p));
  return heads_ == 1 ? leaves[0] : ag::ConcatCols(leaves, lanes);
}

ag::Var GatConv::Attend(ag::Tape& tape, const std::shared_ptr<const ag::EdgeSet>& edges,
                        ag::Var projected, int lanes) {
  ag::Var attn_left = HeadConcat(tape, attn_left_, lanes);
  ag::Var attn_right = HeadConcat(tape, attn_right_, lanes);
  return ag::GatAttention(projected, attn_left, attn_right, edges, lanes * heads_,
                          kLeakySlope);
}

ag::Var GatConv::Forward(ag::Tape& tape,
                         const std::shared_ptr<const ag::EdgeSet>& edges, ag::Var x,
                         int lanes) {
  ag::Var w = HeadConcat(tape, weights_, lanes);
  return Attend(tape, edges, ag::MatMulLanes(x, w, lanes), lanes);
}

ag::Var GatConv::Forward(ag::Tape& tape,
                         const std::shared_ptr<const ag::EdgeSet>& edges,
                         const std::shared_ptr<const la::CsrMatrix>& x, int lanes) {
  ag::Var w = HeadConcat(tape, weights_, lanes);
  return Attend(tape, edges, ag::CsrMatMulLanes(x, w, lanes * heads_, x->rows()),
                lanes);
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
