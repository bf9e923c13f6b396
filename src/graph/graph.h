#ifndef PPFR_GRAPH_GRAPH_H_
#define PPFR_GRAPH_GRAPH_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "la/matrix.h"

namespace ppfr::graph {

// An undirected edge (u, v). Canonical edge lists hold u < v.
struct Edge {
  int u;
  int v;
};

// Hard node-count ceiling imposed by the int32 column indices of the CSR
// layout (la::CsrMatrix shares it). The builder rejects larger graphs with an
// error naming this limit instead of silently wrapping.
inline constexpr int64_t kMaxCsrNodes = 2147483647;  // INT32_MAX

// A replayable edge stream: called with an emit callback, it emits every
// edge (u, v) of a multiset, and must emit the same multiset on every call.
using EdgeEmitter = std::function<void(int64_t, int64_t)>;
using EdgeStream = std::function<void(const EdgeEmitter&)>;

// Immutable undirected simple graph stored as bare CSR: int64 row_ptr plus
// sorted, deduplicated int32 adjacency (no self-loops, no multi-edges), so a
// graph costs 8(n+1) + 4·2m bytes and nothing else. Those bytes register
// with the la arena counters. The canonical edge list is derived on demand
// (`Edges()`); structure perturbations (DP noise, PP heterophilic edges)
// edit it and build a new Graph from the result.
class Graph {
 public:
  Graph() = default;

  // Builds from a replayable edge stream in two passes without ever holding
  // an edge list: pass 1 counts degrees, pass 2 places endpoints in place via
  // per-row cursors, then each row is sorted and deduplicated (multi-edges
  // collapse, (u, v) / (v, u) unify, self-loops are dropped on emit).
  // `stream` is called exactly twice; a replay that emits a different number
  // of edges aborts rather than corrupting the structure. Peak memory is the
  // final CSR plus one int64 cursor array.
  //
  // Endpoints are validated against [0, num_nodes) and num_nodes against
  // kMaxCsrNodes; the total directed entry count is bounds-checked before
  // the adjacency buffer is allocated.
  static Graph FromEdgeStream(int64_t num_nodes, const EdgeStream& stream);

  // FromEdgeStream over an in-memory edge list.
  static Graph FromEdges(int num_nodes, const std::vector<Edge>& edges);

  int num_nodes() const { return num_nodes_; }
  // Undirected edge count (each edge is stored twice in adj_).
  int64_t num_edges() const { return static_cast<int64_t>(adj_.size()) / 2; }

  // Sorted neighbours of node v.
  std::span<const int> Neighbors(int v) const;
  int Degree(int v) const;
  int MaxDegree() const;
  bool HasEdge(int u, int v) const;

  const std::vector<int64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<int>& adj() const { return adj_; }

  // Canonical (u < v) edge list, sorted by (u, v): each row in order, keeping
  // the neighbours above the row.
  std::vector<Edge> Edges() const;

  // Average degree 2|E| / n.
  double AverageDegree() const;

  // Fraction of edges whose endpoints share a label (edge homophily).
  double EdgeHomophily(const std::vector<int>& labels) const;

  // Kept only for perfbench/, which predates the single graph type.
  Graph ToGraph() const { return *this; }

 private:
  int num_nodes_ = 0;
  std::vector<int64_t> row_ptr_;
  std::vector<int> adj_;
  // Last member: default copy/move/destroy keep the arena counters in sync.
  la::internal::ArenaRegistration arena_;
};

// Kept only for perfbench/, which predates the single graph type.
using CsrAdjacency = Graph;

}  // namespace ppfr::graph

#endif  // PPFR_GRAPH_GRAPH_H_
