#ifndef PPFR_NN_SAMPLER_H_
#define PPFR_NN_SAMPLER_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/graph.h"
#include "nn/block.h"

namespace ppfr::nn {

// Fanout value meaning "take every neighbour" — the cap never binds, making
// the sampled block an exact restriction of the full-graph mean aggregator
// (the parity case the tests pin).
inline constexpr int kAllNeighbors = std::numeric_limits<int>::max();

struct SamplerConfig {
  // Max neighbours aggregated per node per hop; nodes at or under the cap
  // keep all neighbours (mean over deg), matching
  // graph::SampledMeanAggregationMatrix semantics.
  int fanout = 5;
  int num_hops = 2;  // SAGE depth
  uint64_t seed = 1;
};

// Fanout-capped k-hop block sampler over a graph::Graph (non-owning).
// Every (hop, node) pair draws from its own counter-based RNG stream derived
// from (seed, epoch, batch, hop, node) — the sampled block is a pure function
// of those values plus `targets`, independent of thread count, iteration
// order or any other sampling that happened before (the property the
// determinism tests pin across runs and backends).
class NeighborSampler {
 public:
  NeighborSampler(const graph::Graph* adj, const SamplerConfig& config);

  const SamplerConfig& config() const { return config_; }

  // Builds the GraphSAGE block for one mini-batch of target nodes: each hop
  // operator row averages the <= fanout sampled neighbours of its output node
  // with weight 1/k. Sampled neighbours are kept in ascending node-id order,
  // so the frontier layout itself is canonical.
  Block SampleBlock(const std::vector<int>& targets, int epoch, int batch) const;

  // Deterministically shuffles `nodes` for `epoch` and chunks them into
  // batches of `batch_nodes` (last batch may be short); batch_nodes <= 0
  // means one batch holding everything.
  static std::vector<std::vector<int>> EpochBatches(const std::vector<int>& nodes,
                                                    int batch_nodes, uint64_t seed,
                                                    int epoch);

 private:
  const graph::Graph* adj_;
  SamplerConfig config_;
};

}  // namespace ppfr::nn

#endif  // PPFR_NN_SAMPLER_H_
