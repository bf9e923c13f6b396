#include "graph/graph_ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

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
  // Every degree fits an unbounded fanout, so no row samples.
  return SampledMeanAggregationMatrix(g, std::numeric_limits<int>::max(), nullptr);
}

la::CsrMatrix SampledMeanAggregationMatrix(const Graph& g, int fanout, Rng* rng) {
  PPFR_CHECK_GT(fanout, 0);
  const int n = g.num_nodes();
  std::vector<int64_t> row_ptr(static_cast<size_t>(n) + 1, 0);
  std::vector<int> col_idx;
  std::vector<double> values;
  // nnz is bounded by both n·fanout and the full adjacency; the min keeps the
  // reserve sane when fanout is a "take everything" sentinel like INT_MAX.
  const size_t max_nnz = static_cast<size_t>(
      std::min<int64_t>(static_cast<int64_t>(n) * fanout, 2 * g.num_edges()));
  col_idx.reserve(max_nnz);
  values.reserve(max_nnz);
  std::vector<int> row;
  for (int v = 0; v < n; ++v) {
    const auto nbrs = g.Neighbors(v);
    const int deg = static_cast<int>(nbrs.size());
    row.clear();
    double w = 0.0;
    if (deg <= fanout) {
      row.assign(nbrs.begin(), nbrs.end());
      if (deg > 0) w = 1.0 / deg;
    } else {
      for (int idx : rng->SampleWithoutReplacement(deg, fanout)) row.push_back(nbrs[idx]);
      w = 1.0 / fanout;
    }
    // Only the row's own ≤ fanout ids are sorted; a repeated id sums its
    // weights, as a triplet build would.
    std::sort(row.begin(), row.end());
    for (size_t k = 0; k < row.size();) {
      double sum = 0.0;
      size_t end = k;
      for (; end < row.size() && row[end] == row[k]; ++end) sum += w;
      col_idx.push_back(row[k]);
      values.push_back(sum);
      k = end;
    }
    row_ptr[static_cast<size_t>(v) + 1] = static_cast<int64_t>(col_idx.size());
  }
  return la::CsrMatrix::FromCsr(n, n, std::move(row_ptr), std::move(col_idx),
                                std::move(values));
}

}  // namespace ppfr::graph
