#include "graph/graph.h"

#include <algorithm>

#include "common/check.h"

namespace ppfr::graph {
namespace {
// Ceiling on directed adjacency entries (2 per undirected edge): the int64
// row_ptr can address more, but anything past this is a generator bug (at 4
// bytes per entry it is already a quarter-terabyte buffer), so fail loudly
// before resize() turns it into an opaque bad_alloc or a wrapped size.
constexpr int64_t kMaxAdjEntries = int64_t{1} << 36;
}  // namespace

Graph Graph::FromEdgeStream(int64_t num_nodes, const EdgeStream& stream) {
  PPFR_CHECK_GE(num_nodes, 0);
  PPFR_CHECK_LE(num_nodes, kMaxCsrNodes)
      << "node count overflows the int32 CSR column indices "
      << "(kMaxCsrNodes = " << kMaxCsrNodes << ")";

  Graph out;
  out.num_nodes_ = static_cast<int>(num_nodes);
  out.row_ptr_.assign(static_cast<size_t>(num_nodes) + 1, 0);

  // Pass 1: degree count. Self-loops are dropped here and must be dropped
  // identically on replay (the emit callback applies the same filter).
  int64_t pass1_entries = 0;
  stream([&](int64_t u, int64_t v) {
    PPFR_CHECK_GE(u, 0);
    PPFR_CHECK_LT(u, num_nodes);
    PPFR_CHECK_GE(v, 0);
    PPFR_CHECK_LT(v, num_nodes);
    if (u == v) return;
    out.row_ptr_[u + 1]++;
    out.row_ptr_[v + 1]++;
    pass1_entries += 2;
  });
  PPFR_CHECK_LE(pass1_entries, kMaxAdjEntries)
      << "edge stream too large for the adjacency buffer";

  for (int64_t v = 0; v < num_nodes; ++v) out.row_ptr_[v + 1] += out.row_ptr_[v];
  out.adj_.resize(static_cast<size_t>(pass1_entries));

  // Pass 2: in-place placement through per-row cursors.
  std::vector<int64_t> cursor(out.row_ptr_.begin(), out.row_ptr_.end() - 1);
  int64_t pass2_entries = 0;
  stream([&](int64_t u, int64_t v) {
    PPFR_CHECK_GE(u, 0);
    PPFR_CHECK_LT(u, num_nodes);
    PPFR_CHECK_GE(v, 0);
    PPFR_CHECK_LT(v, num_nodes);
    if (u == v) return;
    PPFR_CHECK_LT(pass2_entries, pass1_entries)
        << "edge stream emitted more edges on replay than on the count pass";
    out.adj_[static_cast<size_t>(cursor[u]++)] = static_cast<int>(v);
    out.adj_[static_cast<size_t>(cursor[v]++)] = static_cast<int>(u);
    pass2_entries += 2;
  });
  PPFR_CHECK_EQ(pass2_entries, pass1_entries)
      << "edge stream is not replayable: pass 2 emitted a different edge count";

  // Per-row sort + in-place dedupe (multi-edges collapse to simple edges),
  // then compact the adjacency buffer and rebuild row_ptr over the kept runs.
  int64_t write = 0;
  int64_t begin = 0;  // original row start — row_ptr_[v] is overwritten below
  for (int64_t v = 0; v < num_nodes; ++v) {
    const int64_t end = out.row_ptr_[v + 1];
    std::sort(out.adj_.begin() + begin, out.adj_.begin() + end);
    const auto last = std::unique(out.adj_.begin() + begin, out.adj_.begin() + end);
    const int64_t kept = last - (out.adj_.begin() + begin);
    if (write != begin) {
      std::copy(out.adj_.begin() + begin, out.adj_.begin() + begin + kept,
                out.adj_.begin() + write);
    }
    out.row_ptr_[v] = write;
    write += kept;
    begin = end;
  }
  out.row_ptr_[num_nodes] = write;
  out.adj_.resize(static_cast<size_t>(write));
  out.adj_.shrink_to_fit();
  out.arena_.Set(static_cast<int64_t>(out.row_ptr_.size() * sizeof(int64_t) +
                                      out.adj_.size() * sizeof(int)));
  return out;
}

Graph Graph::FromEdges(int num_nodes, const std::vector<Edge>& edges) {
  return FromEdgeStream(num_nodes, [&edges](const EdgeEmitter& emit) {
    for (const Edge& e : edges) emit(e.u, e.v);
  });
}

std::span<const int> Graph::Neighbors(int v) const {
  PPFR_CHECK_GE(v, 0);
  PPFR_CHECK_LT(v, num_nodes_);
  return {adj_.data() + row_ptr_[v], adj_.data() + row_ptr_[v + 1]};
}

int Graph::Degree(int v) const {
  PPFR_CHECK_GE(v, 0);
  PPFR_CHECK_LT(v, num_nodes_);
  return static_cast<int>(row_ptr_[v + 1] - row_ptr_[v]);
}

int Graph::MaxDegree() const {
  int max_deg = 0;
  for (int v = 0; v < num_nodes_; ++v) {
    max_deg = std::max(max_deg, static_cast<int>(row_ptr_[v + 1] - row_ptr_[v]));
  }
  return max_deg;
}

bool Graph::HasEdge(int u, int v) const {
  if (u == v) return false;
  const auto nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<Edge> Graph::Edges() const {
  std::vector<Edge> edges;
  edges.reserve(static_cast<size_t>(num_edges()));
  for (int u = 0; u < num_nodes_; ++u) {
    for (int v : Neighbors(u)) {
      if (u < v) edges.push_back({u, v});
    }
  }
  return edges;
}

double Graph::AverageDegree() const {
  if (num_nodes_ == 0) return 0.0;
  return 2.0 * static_cast<double>(num_edges()) / num_nodes_;
}

double Graph::EdgeHomophily(const std::vector<int>& labels) const {
  PPFR_CHECK_EQ(labels.size(), static_cast<size_t>(num_nodes_));
  if (adj_.empty()) return 0.0;
  int64_t same = 0;
  for (int u = 0; u < num_nodes_; ++u) {
    for (int v : Neighbors(u)) {
      if (u < v && labels[u] == labels[v]) ++same;
    }
  }
  return static_cast<double>(same) / static_cast<double>(num_edges());
}

}  // namespace ppfr::graph
