// Tests for the scale axis's data layer: the streamed power-law block-model
// generator (data/scale_gen) and the bounded-peak-memory CSR builder
// (graph::Graph::FromEdgeStream). The load-bearing properties: every stream
// is a pure function of (config, seed) and replays bit-identically; the
// two-pass builder produces exactly the stream's canonical pair set; the
// hardening contracts (node-count ceiling, endpoint bounds, replay mismatch)
// abort with messages naming their limits.

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/scale_gen.h"
#include "graph/graph.h"
#include "la/matrix.h"
#include "test_util.h"

namespace ppfr {
namespace {

data::ScaleGraphConfig SmallScaleConfig(int64_t nodes = 2000) {
  data::ScaleGraphConfig cfg;
  cfg.num_nodes = nodes;
  cfg.num_blocks = 4;
  cfg.feature_dim = 32;
  cfg.average_degree = 8.0;
  return cfg;
}

std::vector<std::pair<int64_t, int64_t>> CollectEdges(
    const data::ScaleGraphConfig& cfg, uint64_t seed) {
  std::vector<std::pair<int64_t, int64_t>> edges;
  data::StreamScaleEdges(cfg, seed,
                         [&](int64_t u, int64_t v) { edges.emplace_back(u, v); });
  return edges;
}

TEST(ScaleGenTest, EdgeStreamReplaysBitIdentically) {
  const data::ScaleGraphConfig cfg = SmallScaleConfig();
  const auto first = CollectEdges(cfg, 7);
  const auto second = CollectEdges(cfg, 7);
  EXPECT_EQ(first, second);  // identical sequence, not just multiset
  EXPECT_GT(first.size(), 0u);

  const auto other_seed = CollectEdges(cfg, 8);
  EXPECT_NE(first, other_seed);
}

TEST(ScaleGenTest, EndpointsStayInRangeAndDegreeIsCalibrated) {
  const data::ScaleGraphConfig cfg = SmallScaleConfig(4000);
  const auto edges = CollectEdges(cfg, 3);
  for (const auto& [u, v] : edges) {
    ASSERT_GE(u, 0);
    ASSERT_LT(u, cfg.num_nodes);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, cfg.num_nodes);
  }
  // The emitted multiset targets n·d/2 draws; dedupe/self-loop losses must
  // not collapse the realised degree (the alpha >= 1 failure mode).
  EXPECT_NEAR(static_cast<double>(edges.size()),
              static_cast<double>(cfg.num_nodes) * cfg.average_degree / 2.0,
              0.02 * static_cast<double>(cfg.num_nodes) * cfg.average_degree);
  const data::ScaleDataset dataset(cfg, 3);
  EXPECT_GT(dataset.adjacency().AverageDegree(), 0.6 * cfg.average_degree);
}

TEST(ScaleGenTest, BlockLabelsPartitionTheIdSpace) {
  const data::ScaleGraphConfig cfg = SmallScaleConfig(1003);  // uneven blocks
  EXPECT_EQ(cfg.BlockStart(0), 0);
  EXPECT_EQ(cfg.BlockStart(cfg.num_blocks), cfg.num_nodes);
  for (int b = 0; b < cfg.num_blocks; ++b) {
    EXPECT_LT(cfg.BlockStart(b), cfg.BlockStart(b + 1));
    for (int64_t v = cfg.BlockStart(b); v < cfg.BlockStart(b + 1); ++v) {
      ASSERT_EQ(cfg.BlockOf(v), b);
    }
  }
}

TEST(CsrBuilderTest, MatchesCanonicalPairOracle) {
  const data::ScaleGraphConfig cfg = SmallScaleConfig();
  const data::ScaleDataset dataset(cfg, 11);
  const graph::Graph& adj = dataset.adjacency();

  // Oracle: the set of canonical (min, max) pairs in the streamed multiset,
  // self-loops dropped, and the sorted neighbour rows it implies.
  std::set<std::pair<int, int>> pairs;
  data::StreamScaleEdges(cfg, 11, [&](int64_t u, int64_t v) {
    if (u != v) {
      pairs.emplace(static_cast<int>(std::min(u, v)), static_cast<int>(std::max(u, v)));
    }
  });
  std::vector<std::vector<int>> rows(static_cast<size_t>(cfg.num_nodes));
  for (const auto& [u, v] : pairs) {
    rows[u].push_back(v);
    rows[v].push_back(u);
  }

  ASSERT_EQ(adj.num_nodes(), cfg.num_nodes);
  EXPECT_EQ(adj.num_edges(), static_cast<int64_t>(pairs.size()));
  for (int v = 0; v < adj.num_nodes(); ++v) {
    std::sort(rows[v].begin(), rows[v].end());
    const auto nbrs = adj.Neighbors(v);
    ASSERT_EQ(adj.Degree(v), static_cast<int>(rows[v].size())) << "node " << v;
    ASSERT_TRUE(std::equal(nbrs.begin(), nbrs.end(), rows[v].begin(), rows[v].end()))
        << "node " << v;
  }

  // Edges() lists exactly the oracle's pairs in its (u, v) order.
  const std::vector<graph::Edge> edges = adj.Edges();
  ASSERT_EQ(edges.size(), pairs.size());
  size_t i = 0;
  for (const auto& [u, v] : pairs) {
    ASSERT_EQ(edges[i].u, u) << "edge " << i;
    ASSERT_EQ(edges[i].v, v) << "edge " << i;
    ++i;
  }
}

TEST(CsrBuilderTest, NeighboursAreSortedDeduplicatedAndSymmetric) {
  const data::ScaleDataset dataset(SmallScaleConfig(), 19);
  const graph::Graph& adj = dataset.adjacency();
  for (int v = 0; v < adj.num_nodes(); ++v) {
    const auto nbrs = adj.Neighbors(v);
    for (size_t i = 0; i + 1 < nbrs.size(); ++i) {
      ASSERT_LT(nbrs[i], nbrs[i + 1]);  // sorted AND duplicate-free
    }
    for (int u : nbrs) {
      ASSERT_NE(u, v);  // self-loops dropped
      const auto back = adj.Neighbors(u);
      ASSERT_TRUE(std::binary_search(back.begin(), back.end(), v));
    }
  }
}

TEST(CsrBuilderDeathTest, RejectsNodeCountsPastTheInt32Ceiling) {
  EXPECT_DEATH(graph::Graph::FromEdgeStream(
                   graph::kMaxCsrNodes + 1,
                   [](const graph::EdgeEmitter&) {}),
               "kMaxCsrNodes");
}

TEST(CsrBuilderDeathTest, RejectsOutOfRangeEndpoints) {
  EXPECT_DEATH(graph::Graph::FromEdgeStream(
                   10,
                   [](const graph::EdgeEmitter& emit) {
                     emit(3, 10);  // v == num_nodes
                   }),
               "CHECK failed");
  EXPECT_DEATH(graph::Graph::FromEdgeStream(
                   10,
                   [](const graph::EdgeEmitter& emit) {
                     emit(-1, 3);
                   }),
               "CHECK failed");
}

TEST(CsrBuilderDeathTest, RejectsNonReplayableStreams) {
  // Emits one edge on the first pass, two on the second — the counting pass
  // and the placement pass disagree, which must abort, not corrupt.
  EXPECT_DEATH(graph::Graph::FromEdgeStream(
                   10,
                   [calls = 0](const graph::EdgeEmitter& emit) mutable {
                     emit(1, 2);
                     if (++calls == 2) emit(3, 4);
                   }),
               "replay");
}

TEST(ScaleDatasetTest, FeatureRowsRegenerateInIsolation) {
  const data::ScaleDataset dataset(SmallScaleConfig(), 23);
  const la::Matrix all = dataset.MaterializeFeatures();

  // Any gather, in any order, any number of times, reproduces the same rows.
  const std::vector<int> nodes = {1999, 3, 512, 3, 0};
  const la::Matrix gathered = dataset.GatherFeatures(nodes);
  ASSERT_EQ(gathered.rows(), static_cast<int>(nodes.size()));
  ASSERT_EQ(gathered.cols(), all.cols());
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (int f = 0; f < all.cols(); ++f) {
      ASSERT_EQ(gathered(static_cast<int>(i), f), all(nodes[i], f))
          << "node " << nodes[i] << " feature " << f;
    }
  }

  // Signature structure: a node's class signature window fires far more often
  // than the noise floor, aggregated over a block.
  const data::ScaleGraphConfig& cfg = dataset.config();
  double sig_mass = 0.0, noise_mass = 0.0;
  int sig_count = 0, noise_count = 0;
  for (int64_t v = 0; v < cfg.num_nodes; ++v) {
    const int cls = dataset.Label(v);
    for (int f = 0; f < cfg.feature_dim; ++f) {
      const bool in_sig = f >= cls * cfg.signature_size &&
                          f < (cls + 1) * cfg.signature_size;
      (in_sig ? sig_mass : noise_mass) += all(static_cast<int>(v), f);
      ++(in_sig ? sig_count : noise_count);
    }
  }
  EXPECT_GT(sig_mass / sig_count, 5.0 * (noise_mass / noise_count));
}

TEST(ScaleDatasetTest, LabelsAndStridedSplitsAreDeterministic) {
  const data::ScaleDataset dataset(SmallScaleConfig(), 29);
  const std::vector<int> labels = dataset.MaterializeLabels();
  ASSERT_EQ(labels.size(), static_cast<size_t>(dataset.num_nodes()));
  for (int64_t v = 0; v < dataset.num_nodes(); ++v) {
    ASSERT_EQ(labels[static_cast<size_t>(v)], dataset.Label(v));
  }

  const std::vector<int> train = dataset.StridedNodes(64, /*salt=*/1);
  EXPECT_EQ(train, dataset.StridedNodes(64, /*salt=*/1));
  EXPECT_EQ(train.size(), 64u);
  std::set<int> unique(train.begin(), train.end());
  EXPECT_EQ(unique.size(), train.size());
  for (int v : train) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, dataset.num_nodes());
  }
  // Balanced across the contiguous label blocks by construction.
  std::vector<int> per_class(static_cast<size_t>(dataset.num_classes()), 0);
  for (int v : train) ++per_class[static_cast<size_t>(dataset.Label(v))];
  for (int count : per_class) EXPECT_NEAR(count, 16, 2);
}

TEST(ScaleDatasetTest, IdenticalSeedsYieldIdenticalStructure) {
  const data::ScaleGraphConfig cfg = SmallScaleConfig();
  const data::ScaleDataset a(cfg, 31);
  const data::ScaleDataset b(cfg, 31);
  EXPECT_EQ(a.adjacency().row_ptr(), b.adjacency().row_ptr());
  EXPECT_EQ(a.adjacency().adj(), b.adjacency().adj());
  const data::ScaleDataset c(cfg, 32);
  EXPECT_NE(a.adjacency().adj(), c.adjacency().adj());
}

TEST(ArenaAccountingTest, TracksLiveBufferBytesAndPeak) {
  const int64_t base = la::ArenaBytesInUse();
  la::ResetArenaPeakBytes();
  {
    la::Matrix m(100, 50);
    const int64_t expect = 100 * 50 * static_cast<int64_t>(sizeof(double));
    EXPECT_EQ(la::ArenaBytesInUse(), base + expect);
    EXPECT_GE(la::ArenaPeakBytes(), base + expect);

    la::Matrix copy = m;  // copies register too
    EXPECT_EQ(la::ArenaBytesInUse(), base + 2 * expect);
  }
  EXPECT_EQ(la::ArenaBytesInUse(), base);  // destruction unwinds the counter
  EXPECT_GE(la::ArenaPeakBytes(), base);

  // Every graph registers its CSR bytes as well, however it was built.
  const auto csr_bytes = [](const graph::Graph& g) {
    return static_cast<int64_t>(g.row_ptr().size()) * sizeof(int64_t) +
           static_cast<int64_t>(g.adj().size()) * sizeof(int);
  };
  {
    const graph::Graph g = ppfr::testing::SmallGraph();
    EXPECT_EQ(la::ArenaBytesInUse(), base + csr_bytes(g));
    const graph::Graph copy = g;
    EXPECT_EQ(la::ArenaBytesInUse(), base + 2 * csr_bytes(g));
  }
  EXPECT_EQ(la::ArenaBytesInUse(), base);
  const data::ScaleDataset dataset(SmallScaleConfig(), 37);
  EXPECT_GE(la::ArenaBytesInUse(), base + csr_bytes(dataset.adjacency()));

  // Peak-RSS readout: monotone, and available on Linux.
  const int64_t rss = la::ProcessPeakRssBytes();
  EXPECT_GE(rss, 0);
#ifdef __linux__
  EXPECT_GT(rss, 0);
#endif
}

}  // namespace
}  // namespace ppfr
