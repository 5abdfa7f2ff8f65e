#include "net/shortest_path.hpp"

#include <algorithm>
#include <queue>

#include "util/assert.hpp"

namespace idde::net {

std::vector<double> dijkstra(const Graph& graph, std::size_t source) {
  std::vector<double> dist(graph.node_count());
  DijkstraScratch scratch;
  dijkstra_into(graph, source, dist, scratch);
  return dist;
}

void dijkstra_into(const Graph& graph, std::size_t source,
                   std::span<double> dist, DijkstraScratch& scratch) {
  IDDE_EXPECTS(source < graph.node_count());
  IDDE_EXPECTS(dist.size() == graph.node_count());
  std::fill(dist.begin(), dist.end(), kUnreachable);
  dist[source] = 0.0;
  // Explicit push_heap/pop_heap on the scratch vector of (distance, node)
  // pairs — identical pop order to std::priority_queue with std::greater<>,
  // but the backing store is the caller's and survives across calls.
  auto& heap = scratch.heap;
  heap.clear();
  heap.emplace_back(0.0, source);
  while (!heap.empty()) {
    const auto [d, node] = heap.front();
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    heap.pop_back();
    if (d > dist[node]) continue;  // stale entry
    for (const Neighbor& nb : graph.neighbors(node)) {
      const double candidate = d + nb.weight;
      if (candidate < dist[nb.node]) {
        dist[nb.node] = candidate;
        heap.emplace_back(candidate, nb.node);
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
      }
    }
  }
}

CostMatrix::CostMatrix(const Graph& graph) : n_(graph.node_count()) {
  costs_.resize(n_ * n_, kUnreachable);
  DijkstraScratch scratch;
  const std::span<double> all(costs_);
  for (std::size_t source = 0; source < n_; ++source) {
    dijkstra_into(graph, source, all.subspan(source * n_, n_), scratch);
  }
}

Route shortest_route(const Graph& graph, std::size_t from, std::size_t to) {
  IDDE_EXPECTS(from < graph.node_count());
  IDDE_EXPECTS(to < graph.node_count());
  // Dijkstra with parent tracking.
  std::vector<double> dist(graph.node_count(), kUnreachable);
  std::vector<std::size_t> parent(graph.node_count(),
                                  static_cast<std::size_t>(-1));
  dist[from] = 0.0;
  using Item = std::pair<double, std::size_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> queue;
  queue.emplace(0.0, from);
  while (!queue.empty()) {
    const auto [d, node] = queue.top();
    queue.pop();
    if (d > dist[node]) continue;
    if (node == to) break;
    for (const Neighbor& nb : graph.neighbors(node)) {
      const double candidate = d + nb.weight;
      if (candidate < dist[nb.node]) {
        dist[nb.node] = candidate;
        parent[nb.node] = node;
        queue.emplace(candidate, nb.node);
      }
    }
  }
  Route route;
  if (dist[to] == kUnreachable) return route;
  route.cost = dist[to];
  for (std::size_t node = to;; node = parent[node]) {
    route.nodes.push_back(node);
    if (node == from) break;
  }
  std::reverse(route.nodes.begin(), route.nodes.end());
  return route;
}

std::vector<double> floyd_warshall(const Graph& graph) {
  const std::size_t n = graph.node_count();
  std::vector<double> dist(n * n, kUnreachable);
  for (std::size_t i = 0; i < n; ++i) {
    dist[i * n + i] = 0.0;
    for (const Neighbor& nb : graph.neighbors(i)) {
      dist[i * n + nb.node] = std::min(dist[i * n + nb.node], nb.weight);
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      const double dik = dist[i * n + k];
      if (dik == kUnreachable) continue;
      for (std::size_t j = 0; j < n; ++j) {
        const double through = dik + dist[k * n + j];
        if (through < dist[i * n + j]) dist[i * n + j] = through;
      }
    }
  }
  return dist;
}

}  // namespace idde::net
