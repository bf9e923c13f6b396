#include "influence/frontier.h"

#include <algorithm>
#include <unordered_set>

#include "common/check.h"

namespace ppfr::influence {
namespace {

// {t} ∪ N(t) ∪ N²(t), sorted — the dense-row support of a 2-layer seeded
// backward from t. Direct neighbour-of-neighbour enumeration: cheaper than a
// full-graph BFS distance vector per target on big graphs.
std::vector<int> TwoHopSupport(const graph::Graph& g, int t) {
  std::unordered_set<int> support{t};
  for (int u : g.Neighbors(t)) {
    support.insert(u);
    for (int w : g.Neighbors(u)) support.insert(w);
  }
  std::vector<int> out(support.begin(), support.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

FrontierPartition PartitionByTwoHopSupport(const graph::Graph& g,
                                           std::vector<int> targets,
                                           int64_t support_budget) {
  PPFR_CHECK_GT(support_budget, 0);
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());

  FrontierPartition partition;
  std::vector<int> chunk_targets;
  std::unordered_set<int> chunk_support;
  auto flush = [&] {
    if (chunk_targets.empty()) return;
    FrontierChunk chunk;
    chunk.targets = std::move(chunk_targets);
    chunk.support.assign(chunk_support.begin(), chunk_support.end());
    std::sort(chunk.support.begin(), chunk.support.end());
    partition.chunks.push_back(std::move(chunk));
    chunk_targets.clear();
    chunk_support.clear();
  };

  for (int t : targets) {
    const std::vector<int> support = TwoHopSupport(g, t);
    // Would admitting t blow the budget? Count only the new nodes.
    int64_t added = 0;
    for (int v : support) {
      if (!chunk_support.count(v)) ++added;
    }
    if (!chunk_targets.empty() &&
        static_cast<int64_t>(chunk_support.size()) + added > support_budget) {
      flush();
    }
    // A hub whose own support exceeds the budget still gets a singleton
    // chunk — correctness over locality.
    chunk_targets.push_back(t);
    chunk_support.insert(support.begin(), support.end());
  }
  flush();
  return partition;
}

FrontierSweepResult RunFrontierSweep(InfluenceCalculator* calc,
                                     const FrontierPartition& partition,
                                     const FrontierSweepOptions& options) {
  PPFR_CHECK(calc != nullptr);
  PPFR_CHECK_GE(options.shard_index, 0);
  PPFR_CHECK_GT(options.shard_count, 0);
  PPFR_CHECK_LT(options.shard_index, options.shard_count);

  FrontierSweepResult result;
  for (size_t k = 0; k < partition.chunks.size(); ++k) {
    if (static_cast<int>(k % static_cast<size_t>(options.shard_count)) !=
        options.shard_index) {
      continue;
    }
    const FrontierChunk& chunk = partition.chunks[k];
    std::vector<std::vector<double>> rows =
        calc->InfluenceOnNodeLosses(chunk.targets);
    PPFR_CHECK_EQ(rows.size(), chunk.targets.size());
    result.targets.insert(result.targets.end(), chunk.targets.begin(),
                          chunk.targets.end());
    for (auto& row : rows) result.influence.push_back(std::move(row));
    ++result.chunks_run;
  }
  return result;
}

}  // namespace ppfr::influence
