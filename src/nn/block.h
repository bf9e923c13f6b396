#ifndef PPFR_NN_BLOCK_H_
#define PPFR_NN_BLOCK_H_

#include <functional>
#include <memory>
#include <vector>

#include "autograd/ops.h"

namespace ppfr::nn {

enum class ModelKind { kGcn, kGat, kGraphSage };

// One hop of a block: the layer's propagation operator restricted to the
// hop's output frontier F_{h+1} (rows) over its input frontier F_h (columns),
// both in local frontier indices. GCN and GraphSAGE hops carry a sparse
// operand whose transpose is built once with the block, so replaying a tape
// over the block never re-transposes; GAT hops carry the destination-grouped
// attention edges instead.
struct BlockHop {
  std::shared_ptr<const ag::SparseOperand> agg;  // GCN / GraphSAGE
  std::shared_ptr<const ag::EdgeSet> edges;      // GAT
};

// A k-hop computation block for `kind`. `frontier` holds global node ids with
// the PREFIX property F_{num_hops} ⊆ … ⊆ F_1 ⊆ F_0 = frontier, where F_h is
// the leading hop_sizes[h] entries and F_{num_hops} is exactly the block's
// output nodes in call order. The prefix property is what lets a layer's
// self term (GraphSAGE's root weight, GAT's destination scores) read the
// leading rows of its input activations. `hops` is in forward order: layer h
// consumes activations over F_h and produces F_{h+1}.
//
// Two producers: GraphContext::ExactBlock slices the context's own operator
// rows (the exact receptive field — a block forward equals the full-graph
// forward on the outputs up to float summation order), and NeighborSampler
// draws fanout-capped GraphSAGE blocks for mini-batch training.
struct Block {
  ModelKind kind = ModelKind::kGraphSage;
  std::vector<int> frontier;
  std::vector<int> hop_sizes;  // num_hops + 1 entries, non-increasing
  std::vector<BlockHop> hops;

  int num_inputs() const { return hop_sizes.front(); }
  int num_targets() const { return hop_sizes.back(); }
};

// Lists the sources of output node `v` at hop `hop` (forward numbering: hop
// h maps F_h to F_{h+1}) as global node ids appended to `sources`, with one
// operator weight per source appended to `weights` (GAT blocks ignore them).
using HopRowFn = std::function<void(int hop, int v, std::vector<int>* sources,
                                    std::vector<double>* weights)>;

// Builds a `num_hops` block of `kind` over `outputs` (distinct node ids, kept
// in call order). Hops are expanded backward from the outputs, each new
// source appended to the frontier in first-seen order, which gives the
// prefix property. GAT hops keep each row's sources in `row_fn`'s order; the
// other kinds' hops become sparse operands with their transposes.
Block ExpandBlock(ModelKind kind, const std::vector<int>& outputs, int num_hops,
                  const HopRowFn& row_fn);

}  // namespace ppfr::nn

#endif  // PPFR_NN_BLOCK_H_
