// Shortest-path costs over the edge graph. Both a single-source Dijkstra and
// an all-pairs solver are provided; the all-pairs matrix backs Eq. (8)'s
// L_{k,o,i} lookups, which the greedy delivery phase evaluates millions of
// times.
#pragma once

#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "net/graph.hpp"

namespace idde::net {

inline constexpr double kUnreachable = std::numeric_limits<double>::infinity();

/// Dijkstra from `source`; returns per-node cost (seconds-per-MB).
[[nodiscard]] std::vector<double> dijkstra(const Graph& graph,
                                           std::size_t source);

/// Reusable scratch for repeated Dijkstra runs: the binary heap's backing
/// store survives across calls, so an n-source sweep (CostMatrix) performs
/// no per-source allocation once the heap has grown to its working size.
struct DijkstraScratch {
  std::vector<std::pair<double, std::size_t>> heap;
};

/// As dijkstra(), but writes the per-node costs into `dist` (size
/// node_count) and reuses `scratch` instead of allocating. Values are
/// identical to dijkstra() — the relaxation order is the same; only the
/// storage differs.
void dijkstra_into(const Graph& graph, std::size_t source,
                   std::span<double> dist, DijkstraScratch& scratch);

/// Dense all-pairs cost matrix (row-major, n*n). Runs n Dijkstras, which is
/// O(n (m + n) log n) — cheaper than Floyd–Warshall for the sparse
/// density*N-link topologies used here. The build writes each source's row
/// in place through one reused scratch heap: no per-source allocation, and
/// bit-identical costs to the naive row-copy build.
class CostMatrix {
 public:
  explicit CostMatrix(const Graph& graph);

  /// Seconds-per-MB of the cheapest route from `from` to `to`.
  [[nodiscard]] double cost(std::size_t from, std::size_t to) const {
    return costs_[from * n_ + to];
  }
  [[nodiscard]] std::size_t size() const noexcept { return n_; }

 private:
  std::size_t n_;
  std::vector<double> costs_;
};

/// Floyd–Warshall reference implementation (O(n^3)); used by tests as an
/// oracle against the Dijkstra-based CostMatrix.
[[nodiscard]] std::vector<double> floyd_warshall(const Graph& graph);

/// An explicit route: the node sequence of a cheapest path.
struct Route {
  double cost = kUnreachable;       ///< seconds-per-MB along the path
  std::vector<std::size_t> nodes;   ///< from .. to (empty if unreachable)

  [[nodiscard]] std::size_t hops() const noexcept {
    return nodes.empty() ? 0 : nodes.size() - 1;
  }
};

/// Reconstructs one cheapest route (migration reports use the hop count;
/// the metrics layers only need CostMatrix).
[[nodiscard]] Route shortest_route(const Graph& graph, std::size_t from,
                                   std::size_t to);

}  // namespace idde::net
