#include "privacy/attack/pair_sampler.h"

#include "common/check.h"
#include "common/rng.h"

namespace ppfr::privacy {

PairSample SamplePairs(const graph::Graph& g, int max_per_class, uint64_t seed) {
  PPFR_CHECK_GT(max_per_class, 0);
  const int n = g.num_nodes();
  PPFR_CHECK_GE(n, 2);
  Rng rng(seed);
  PairSample sample;

  // Positives: all edges, or a uniform subsample.
  const std::vector<graph::Edge> edges = g.Edges();
  const int64_t num_edges = static_cast<int64_t>(edges.size());
  if (num_edges <= max_per_class) {
    for (const auto& e : edges) sample.connected.emplace_back(e.u, e.v);
  } else {
    for (int idx :
         rng.SampleWithoutReplacement(static_cast<int>(num_edges), max_per_class)) {
      sample.connected.emplace_back(edges[idx].u, edges[idx].v);
    }
  }

  // Negatives: rejection-sample unconnected pairs (the graph is sparse, so
  // rejections are rare).
  const size_t target = sample.connected.size();
  int64_t attempts = 0;
  const int64_t max_attempts = static_cast<int64_t>(target) * 1000 + 1000;
  while (sample.unconnected.size() < target && attempts < max_attempts) {
    ++attempts;
    const int u = static_cast<int>(rng.UniformInt(n));
    const int v = static_cast<int>(rng.UniformInt(n));
    if (u == v || g.HasEdge(u, v)) continue;
    sample.unconnected.emplace_back(u, v);
  }
  PPFR_CHECK_EQ(sample.unconnected.size(), target)
      << "could not sample enough unconnected pairs (graph too dense?)";
  return sample;
}

}  // namespace ppfr::privacy
