#include "nn/sampler.h"

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"

namespace ppfr::nn {
namespace {
constexpr uint64_t kBlockStreamTag = 0x424c4f43;  // "BLOC"
constexpr uint64_t kBatchStreamTag = 0x42415443;  // "BATC"
}  // namespace

NeighborSampler::NeighborSampler(const graph::Graph* adj,
                                 const SamplerConfig& config)
    : adj_(adj), config_(config) {
  PPFR_CHECK(adj != nullptr);
  PPFR_CHECK_GT(config.fanout, 0);
  PPFR_CHECK_GE(config.num_hops, 1);
}

Block NeighborSampler::SampleBlock(const std::vector<int>& targets, int epoch,
                                   int batch) const {
  const uint64_t block_seed = MixSeed(
      MixSeed(MixSeed(config_.seed, kBlockStreamTag), static_cast<uint64_t>(epoch)),
      static_cast<uint64_t>(batch));
  return ExpandBlock(
      ModelKind::kGraphSage, targets, config_.num_hops,
      [&](int hop, int v, std::vector<int>* sources, std::vector<double>* weights) {
        const auto nbrs = adj_->Neighbors(v);
        const int deg = static_cast<int>(nbrs.size());
        if (deg == 0) return;  // isolated node: zero aggregation row
        if (deg <= config_.fanout) {
          sources->assign(nbrs.begin(), nbrs.end());
        } else {
          const uint64_t hop_seed = MixSeed(block_seed, static_cast<uint64_t>(hop));
          Rng rng(MixSeed(hop_seed, static_cast<uint64_t>(v)));
          std::vector<int> picks = rng.SampleWithoutReplacement(deg, config_.fanout);
          std::sort(picks.begin(), picks.end());  // ascending node ids (nbrs sorted)
          for (int idx : picks) sources->push_back(nbrs[idx]);
        }
        weights->assign(sources->size(), 1.0 / static_cast<double>(sources->size()));
      });
}

std::vector<std::vector<int>> NeighborSampler::EpochBatches(
    const std::vector<int>& nodes, int batch_nodes, uint64_t seed, int epoch) {
  PPFR_CHECK(!nodes.empty());
  if (batch_nodes <= 0 || batch_nodes >= static_cast<int>(nodes.size())) {
    return {nodes};
  }
  std::vector<int> order = nodes;
  Rng rng(MixSeed(MixSeed(seed, kBatchStreamTag), static_cast<uint64_t>(epoch)));
  rng.Shuffle(&order);
  std::vector<std::vector<int>> batches;
  for (size_t begin = 0; begin < order.size(); begin += batch_nodes) {
    const size_t end = std::min(order.size(), begin + batch_nodes);
    batches.emplace_back(order.begin() + begin, order.begin() + end);
  }
  return batches;
}

}  // namespace ppfr::nn
