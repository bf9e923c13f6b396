#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "data/sbm.h"
#include "data/scale_gen.h"
#include "graph/graph.h"
#include "graph/graph_ops.h"
#include "graph/jaccard.h"
#include "privacy/defense/edge_rand.h"
#include "test_util.h"

namespace ppfr::graph {
namespace {

using ::ppfr::testing::SmallGraph;

TEST(GraphTest, FromEdgesCanonicalizes) {
  // Duplicates, reversed duplicates and self-loops all collapse.
  const Graph g = Graph::FromEdges(4, {{0, 1}, {1, 0}, {0, 1}, {2, 2}, {3, 1}});
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.HasEdge(1, 3));
  EXPECT_FALSE(g.HasEdge(2, 2));
  EXPECT_FALSE(g.HasEdge(0, 2));

  // Edges() is the canonical list sorted by (u, v) and round-trips through
  // FromEdges to the same CSR.
  const Graph sbm = ppfr::testing::SmallSbm(4, 120, 3).graph;
  const std::vector<Edge> edges = sbm.Edges();
  ASSERT_EQ(static_cast<int64_t>(edges.size()), sbm.num_edges());
  for (size_t i = 0; i < edges.size(); ++i) {
    ASSERT_LT(edges[i].u, edges[i].v);
    if (i > 0) {
      ASSERT_TRUE(edges[i - 1].u < edges[i].u ||
                  (edges[i - 1].u == edges[i].u && edges[i - 1].v < edges[i].v));
    }
  }
  const Graph round_trip = Graph::FromEdges(sbm.num_nodes(), edges);
  EXPECT_EQ(round_trip.row_ptr(), sbm.row_ptr());
  EXPECT_EQ(round_trip.adj(), sbm.adj());
}

TEST(GraphTest, NeighborsSortedAndDegreesMatch) {
  const Graph g = SmallGraph();
  const auto nbrs = g.Neighbors(0);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(g.Degree(0), 4);
  EXPECT_EQ(g.Degree(4), 1);
  EXPECT_EQ(g.Degree(5), 0);
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 2.0 * 6 / 6);
}

TEST(GraphTest, EdgeHomophily) {
  const Graph g = Graph::FromEdges(4, {{0, 1}, {2, 3}, {0, 2}});
  const std::vector<int> labels{0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(g.EdgeHomophily(labels), 2.0 / 3.0);
}

TEST(GraphOpsTest, GcnNormalizedAdjacencyIsSymmetricWithSelfLoops) {
  const Graph g = SmallGraph();
  const la::CsrMatrix a = GcnNormalizedAdjacency(g);
  for (int i = 0; i < g.num_nodes(); ++i) {
    EXPECT_GT(a.At(i, i), 0.0);  // self loop
    for (int j = 0; j < g.num_nodes(); ++j) {
      EXPECT_NEAR(a.At(i, j), a.At(j, i), 1e-14);
    }
  }
  // Known value: edge (4, 0), deg(4)=1, deg(0)=4 -> 1/sqrt(2)/sqrt(5).
  EXPECT_NEAR(a.At(4, 0), 1.0 / std::sqrt(2.0 * 5.0), 1e-14);
}

TEST(GraphOpsTest, MeanAggregationRowsSumToOneExceptIsolated) {
  const Graph g = SmallGraph();
  const la::CsrMatrix m = MeanAggregationMatrix(g);
  la::Matrix ones(g.num_nodes(), 1, 1.0);
  const la::Matrix row_sums = m.Multiply(ones);
  for (int i = 0; i < 5; ++i) EXPECT_NEAR(row_sums(i, 0), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(row_sums(5, 0), 0.0);  // isolated node 5
}

TEST(GraphOpsTest, SampledMeanAggregationRespectsFanout) {
  const auto data = ppfr::testing::SmallSbm(7, 100, 2);
  Rng rng(5);
  const la::CsrMatrix m = SampledMeanAggregationMatrix(data.graph, 3, &rng);
  for (int i = 0; i < data.graph.num_nodes(); ++i) {
    const int64_t nnz_row = m.row_ptr()[i + 1] - m.row_ptr()[i];
    EXPECT_LE(nnz_row, 3);
    if (data.graph.Degree(i) > 0) {
      EXPECT_GT(nnz_row, 0);
      double sum = 0.0;
      for (int64_t k = m.row_ptr()[i]; k < m.row_ptr()[i + 1]; ++k) {
        sum += m.values()[k];
        // Sampled columns must be true neighbours.
        EXPECT_TRUE(data.graph.HasEdge(i, m.col_idx()[k]));
      }
      EXPECT_NEAR(sum, 1.0, 1e-12);
    }
  }
}

// The sampled aggregator as a sorted triplet build: the construction the
// row-by-row builder replaced, kept as its oracle.
la::CsrMatrix TripletSampledMean(const Graph& g, int fanout, Rng* rng) {
  std::vector<la::Triplet> triplets;
  for (int v = 0; v < g.num_nodes(); ++v) {
    const auto nbrs = g.Neighbors(v);
    const int deg = static_cast<int>(nbrs.size());
    if (deg == 0) continue;
    if (deg <= fanout) {
      for (int u : nbrs) triplets.push_back({v, u, 1.0 / deg});
    } else {
      for (int idx : rng->SampleWithoutReplacement(deg, fanout)) {
        triplets.push_back({v, nbrs[idx], 1.0 / fanout});
      }
    }
  }
  return la::CsrMatrix::FromTriplets(g.num_nodes(), g.num_nodes(), std::move(triplets));
}

void ExpectSameCsr(const la::CsrMatrix& want, const la::CsrMatrix& got) {
  EXPECT_EQ(got.rows(), want.rows());
  EXPECT_EQ(got.cols(), want.cols());
  EXPECT_EQ(got.row_ptr(), want.row_ptr());
  EXPECT_EQ(got.col_idx(), want.col_idx());
  EXPECT_EQ(got.values(), want.values());
}

TEST(GraphOpsTest, RowBuiltSampledMeanMatchesTripletRoute) {
  // A power-law graph (hub rows far above the fanout) and an edge-DP graph
  // (EdgeRand at ε = 1 fills in random edges, so most rows exceed it).
  data::ScaleGraphConfig power_law;
  power_law.num_nodes = 3000;
  const Graph hubs = data::ScaleDataset(power_law, 4).adjacency();
  const Graph dp_dense = privacy::EdgeRand(ppfr::testing::SmallSbm(9, 300).graph, 1.0, 2);
  for (const Graph* g : {&hubs, &dp_dense}) {
    for (const int fanout : {1, 5, 25, std::numeric_limits<int>::max()}) {
      SCOPED_TRACE("nodes=" + std::to_string(g->num_nodes()) +
                   " fanout=" + std::to_string(fanout));
      Rng want_rng(17);
      Rng got_rng(17);
      ExpectSameCsr(TripletSampledMean(*g, fanout, &want_rng),
                    SampledMeanAggregationMatrix(*g, fanout, &got_rng));
      // Same draws consumed: the streams stay in step.
      EXPECT_EQ(want_rng.NextU64(), got_rng.NextU64());
    }
    Rng unused(1);
    ExpectSameCsr(TripletSampledMean(*g, std::numeric_limits<int>::max(), &unused),
                  MeanAggregationMatrix(*g));
    // The counting transpose of an aggregator equals its triplet transpose.
    Rng rng(3);
    const la::CsrMatrix m = SampledMeanAggregationMatrix(*g, 5, &rng);
    std::vector<la::Triplet> swapped;
    for (int r = 0; r < m.rows(); ++r) {
      for (int64_t k = m.row_ptr()[r]; k < m.row_ptr()[r + 1]; ++k) {
        swapped.push_back({m.col_idx()[k], r, m.values()[k]});
      }
    }
    ExpectSameCsr(la::CsrMatrix::FromTriplets(m.cols(), m.rows(), swapped),
                  m.Transposed());
  }
}

TEST(JaccardTest, KnownValuesOnSquareGraph) {
  // Square 0-1-2-3 with diagonal 0-2, pendant 4-0 (closed neighbourhoods).
  const Graph g = SmallGraph();
  const la::CsrMatrix s = JaccardSimilarity(g);
  // N[0] = {0,1,2,3,4}, N[1] = {0,1,2}: inter {0,1,2} = 3, union 5 -> 0.6.
  EXPECT_NEAR(s.At(0, 1), 3.0 / 5.0, 1e-12);
  EXPECT_NEAR(s.At(1, 0), 3.0 / 5.0, 1e-12);
  // N[1] = {0,1,2}, N[3] = {0,2,3}: inter {0,2} = 2, union 4 -> 0.5.
  EXPECT_NEAR(s.At(1, 3), 0.5, 1e-12);
  // Diagonal excluded.
  EXPECT_DOUBLE_EQ(s.At(2, 2), 0.0);
  // Isolated node has no similarity entries.
  for (int j = 0; j < 6; ++j) EXPECT_DOUBLE_EQ(s.At(5, j), 0.0);
}

// Hop distances from `source` (nodes beyond `max_hops` or unreachable get
// max_hops + 1), the BFS oracle for the lemma below.
std::vector<int> HopsFrom(const Graph& g, int source, int max_hops) {
  std::vector<int> hops(g.num_nodes(), max_hops + 1);
  hops[source] = 0;
  std::vector<int> frontier{source};
  for (int h = 1; h <= max_hops && !frontier.empty(); ++h) {
    std::vector<int> next;
    for (int v : frontier) {
      for (int u : g.Neighbors(v)) {
        if (hops[u] > h) {
          hops[u] = h;
          next.push_back(u);
        }
      }
    }
    frontier = std::move(next);
  }
  return hops;
}

// Lemma V.1: S_ij > 0 exactly when hop(i, j) <= 2 (closed neighbourhoods).
class JaccardLemmaSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JaccardLemmaSweep, PositiveIffWithinTwoHops) {
  const auto data = ppfr::testing::SmallSbm(GetParam(), 80, 3);
  const Graph& g = data.graph;
  const la::CsrMatrix s = JaccardSimilarity(g);
  for (int i = 0; i < g.num_nodes(); ++i) {
    const std::vector<int> hops = HopsFrom(g, i, 3);
    for (int j = 0; j < g.num_nodes(); ++j) {
      if (i == j) continue;
      const double sij = s.At(i, j);
      if (hops[j] <= 2) {
        EXPECT_GT(sij, 0.0) << "hop(" << i << "," << j << ")=" << hops[j];
        EXPECT_LE(sij, 1.0);
      } else {
        EXPECT_DOUBLE_EQ(sij, 0.0) << "hop(" << i << "," << j << ")=" << hops[j];
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JaccardLemmaSweep, ::testing::Values(1ull, 2ull, 3ull));

TEST(JaccardTest, SimilarityIsSymmetric) {
  const auto data = ppfr::testing::SmallSbm(9, 100, 3);
  const la::CsrMatrix s = JaccardSimilarity(data.graph);
  for (int i = 0; i < s.rows(); ++i) {
    for (int64_t k = s.row_ptr()[i]; k < s.row_ptr()[i + 1]; ++k) {
      EXPECT_NEAR(s.values()[k], s.At(s.col_idx()[k], i), 1e-14);
    }
  }
}

TEST(JaccardTest, LaplacianRowsSumToZero) {
  const auto data = ppfr::testing::SmallSbm(10, 90, 3);
  const la::CsrMatrix s = JaccardSimilarity(data.graph);
  const la::CsrMatrix lap = SimilarityLaplacian(s);
  la::Matrix ones(lap.rows(), 1, 1.0);
  const la::Matrix row_sums = lap.Multiply(ones);
  for (int i = 0; i < lap.rows(); ++i) EXPECT_NEAR(row_sums(i, 0), 0.0, 1e-10);
}

TEST(JaccardTest, LaplacianQuadraticFormIsNonNegative) {
  const auto data = ppfr::testing::SmallSbm(11, 90, 3);
  const la::CsrMatrix lap = SimilarityLaplacian(JaccardSimilarity(data.graph));
  Rng rng(1);
  const la::Matrix y = ppfr::testing::RandomMatrix(lap.rows(), 4, &rng);
  const la::Matrix ly = lap.Multiply(y);
  EXPECT_GE(la::Dot(y, ly), -1e-9);
}

}  // namespace
}  // namespace ppfr::graph
