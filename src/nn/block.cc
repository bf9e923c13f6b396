#include "nn/block.h"

#include <algorithm>
#include <unordered_map>

#include "common/check.h"

namespace ppfr::nn {

Block ExpandBlock(ModelKind kind, const std::vector<int>& outputs, int num_hops,
                  const HopRowFn& row_fn) {
  PPFR_CHECK(!outputs.empty());
  PPFR_CHECK_GE(num_hops, 1);
  Block block;
  block.kind = kind;
  block.frontier = outputs;
  std::unordered_map<int, int> local;  // global node id -> frontier index
  local.reserve(outputs.size() * 4);
  for (size_t i = 0; i < outputs.size(); ++i) {
    const bool inserted = local.emplace(outputs[i], static_cast<int>(i)).second;
    PPFR_CHECK(inserted) << "duplicate output node " << outputs[i] << " in block";
  }

  std::vector<int> sizes{static_cast<int>(outputs.size())};
  std::vector<BlockHop> hops_backward;
  std::vector<int> sources;     // scratch, reused across rows
  std::vector<double> weights;  // scratch, reused across rows
  for (int h = num_hops - 1; h >= 0; --h) {
    const int num_out = static_cast<int>(block.frontier.size());
    std::vector<int64_t> row_ptr{0};
    row_ptr.reserve(static_cast<size_t>(num_out) + 1);
    std::vector<int> cols;
    std::vector<la::Triplet> triplets;
    for (int o = 0; o < num_out; ++o) {
      sources.clear();
      weights.clear();
      row_fn(h, block.frontier[static_cast<size_t>(o)], &sources, &weights);
      for (size_t k = 0; k < sources.size(); ++k) {
        const auto [it, inserted] =
            local.emplace(sources[k], static_cast<int>(block.frontier.size()));
        if (inserted) block.frontier.push_back(sources[k]);
        cols.push_back(it->second);
        if (kind != ModelKind::kGat) triplets.push_back({o, it->second, weights[k]});
      }
      row_ptr.push_back(static_cast<int64_t>(cols.size()));
    }
    const int num_in = static_cast<int>(block.frontier.size());
    BlockHop hop;
    if (kind == ModelKind::kGat) {
      auto edges = std::make_shared<ag::EdgeSet>();
      edges->num_dst = num_out;
      edges->num_src = num_in;
      edges->row_ptr = std::move(row_ptr);
      edges->col_idx = std::move(cols);
      hop.edges = std::move(edges);
    } else {
      // Hop operators are rectangular, so the operand carries an explicit
      // transpose for the backward pass — built here, once per block.
      hop.agg = ag::MakeSparseOperand(
          la::CsrMatrix::FromTriplets(num_out, num_in, std::move(triplets)),
          /*symmetric=*/false);
    }
    hops_backward.push_back(std::move(hop));
    sizes.push_back(num_in);
  }

  std::reverse(sizes.begin(), sizes.end());
  block.hop_sizes = std::move(sizes);
  block.hops.assign(std::make_move_iterator(hops_backward.rbegin()),
                    std::make_move_iterator(hops_backward.rend()));
  return block;
}

}  // namespace ppfr::nn
