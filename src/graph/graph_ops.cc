#include "graph/graph_ops.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace ppfr::graph {

la::CsrMatrix GcnNormalizedAdjacency(const Graph& g) {
  const int n = g.num_nodes();
  std::vector<double> inv_sqrt_deg(n);
  for (int v = 0; v < n; ++v) {
    inv_sqrt_deg[v] = 1.0 / std::sqrt(static_cast<double>(g.Degree(v)) + 1.0);
  }
  std::vector<la::Triplet> triplets;
  triplets.reserve(2 * g.num_edges() + n);
  for (int v = 0; v < n; ++v) {
    triplets.push_back({v, v, inv_sqrt_deg[v] * inv_sqrt_deg[v]});
    for (int u : g.Neighbors(v)) {
      triplets.push_back({v, u, inv_sqrt_deg[v] * inv_sqrt_deg[u]});
    }
  }
  return la::CsrMatrix::FromTriplets(n, n, std::move(triplets));
}

la::CsrMatrix MeanAggregationMatrix(const Graph& g) {
  const int n = g.num_nodes();
  std::vector<la::Triplet> triplets;
  triplets.reserve(2 * g.num_edges());
  for (int v = 0; v < n; ++v) {
    const int deg = g.Degree(v);
    if (deg == 0) continue;
    const double w = 1.0 / deg;
    for (int u : g.Neighbors(v)) triplets.push_back({v, u, w});
  }
  return la::CsrMatrix::FromTriplets(n, n, std::move(triplets));
}

la::CsrMatrix SampledMeanAggregationMatrix(const Graph& g, int fanout, Rng* rng) {
  PPFR_CHECK_GT(fanout, 0);
  const int n = g.num_nodes();
  std::vector<la::Triplet> triplets;
  // nnz is bounded by both n·fanout and the full adjacency; the min keeps the
  // reserve sane when fanout is a "take everything" sentinel like INT_MAX.
  triplets.reserve(static_cast<size_t>(std::min<int64_t>(
      static_cast<int64_t>(n) * fanout, 2 * g.num_edges())));
  for (int v = 0; v < n; ++v) {
    const auto nbrs = g.Neighbors(v);
    const int deg = static_cast<int>(nbrs.size());
    if (deg == 0) continue;
    if (deg <= fanout) {
      const double w = 1.0 / deg;
      for (int u : nbrs) triplets.push_back({v, u, w});
    } else {
      const double w = 1.0 / fanout;
      for (int idx : rng->SampleWithoutReplacement(deg, fanout)) {
        triplets.push_back({v, nbrs[idx], w});
      }
    }
  }
  return la::CsrMatrix::FromTriplets(n, n, std::move(triplets));
}

}  // namespace ppfr::graph
