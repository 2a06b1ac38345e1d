#include "routecomp/gr_sweep.hpp"

#include <algorithm>
#include <deque>

#include "exec/parallel.hpp"

namespace dragon::routecomp {

using topology::NodeId;
using topology::Rel;
using topology::Topology;

GrStableState gr_sweep_multi(const Topology& topo,
                             std::span<const NodeId> origins,
                             const std::vector<char>* suppressed) {
  const std::size_t n = topo.node_count();
  GrStableState state;
  state.origins.assign(origins.begin(), origins.end());
  state.cls.assign(n, kUnreachableClass);
  state.dist.assign(n, kInfiniteDistance);

  // A filtered (suppressed) node elects a route but does not announce it;
  // origins always announce their own route.
  auto announces = [&](NodeId v) {
    return suppressed == nullptr || !(*suppressed)[v] || state.is_origin(v);
  };

  // Phase 1: customer routes.  Multi-source BFS upward: a node elects a
  // customer route iff some origin is in its customer cone through a chain
  // of announcing nodes; BFS depth = AS-path length.
  std::deque<NodeId> queue;
  for (NodeId o : origins) {
    if (state.cls[o] == kCustomer) continue;
    state.cls[o] = kCustomer;
    state.dist[o] = 0;
    queue.push_back(o);
  }
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    if (!announces(v)) continue;
    for (const auto& nb : topo.neighbors(v)) {
      if (nb.rel != Rel::kProvider) continue;  // v announces up to providers
      if (state.cls[nb.id] == kCustomer) continue;
      state.cls[nb.id] = kCustomer;
      state.dist[nb.id] = static_cast<std::uint16_t>(state.dist[v] + 1);
      queue.push_back(nb.id);
    }
  }

  // Phase 2: peer routes: nodes without a customer route whose announcing
  // peer elects a customer route; path length = peer's length + 1.
  for (NodeId u = 0; u < n; ++u) {
    if (state.cls[u] == kCustomer) continue;
    std::uint16_t best = kInfiniteDistance;
    for (const auto& nb : topo.neighbors(u)) {
      if (nb.rel != Rel::kPeer || state.cls[nb.id] != kCustomer) continue;
      if (!announces(nb.id)) continue;
      best = std::min<std::uint16_t>(
          best, static_cast<std::uint16_t>(state.dist[nb.id] + 1));
    }
    if (best != kInfiniteDistance) {
      state.cls[u] = kPeer;
      state.dist[u] = best;
    }
  }

  // Phase 3: provider routes.  Multi-source shortest-hop propagation down
  // provider->customer links from every announcing node routed so far.
  // Sources start at different distances, so expand in distance order with
  // a bucket queue (all link "weights" are 1).
  std::vector<std::vector<NodeId>> buckets;
  auto bucket_push = [&buckets](NodeId u, std::uint16_t d) {
    if (buckets.size() <= d) buckets.resize(static_cast<std::size_t>(d) + 1);
    buckets[d].push_back(u);
  };
  for (NodeId u = 0; u < n; ++u) {
    if (state.cls[u] != kUnreachableClass) bucket_push(u, state.dist[u]);
  }
  for (std::size_t d = 0; d < buckets.size(); ++d) {
    // buckets may grow while iterating; index-based loops throughout.
    for (std::size_t i = 0; i < buckets[d].size(); ++i) {
      const NodeId v = buckets[d][i];
      if (state.dist[v] != d) continue;  // superseded entry
      if (!announces(v)) continue;
      for (const auto& nb : topo.neighbors(v)) {
        if (nb.rel != Rel::kCustomer) continue;  // v announces down
        const NodeId u = nb.id;
        if (state.cls[u] == kCustomer || state.cls[u] == kPeer) continue;
        const auto cand = static_cast<std::uint16_t>(d + 1);
        if (state.cls[u] == kProvider && state.dist[u] <= cand) continue;
        state.cls[u] = kProvider;
        state.dist[u] = cand;
        bucket_push(u, cand);
      }
    }
  }
  return state;
}

GrRegionBuilder::GrRegionBuilder(const Topology& topo)
    : topo_(topo), mark_(topo.node_count(), kProvider) {}

std::vector<RegionNode> GrRegionBuilder::build(
    std::span<const NodeId> origins) {
  // Phase 1 of gr_sweep_multi without distances: the upset, by search
  // along customer->provider links.
  std::vector<RegionNode> region;
  for (NodeId o : origins) {
    if (mark_[o] == kCustomer) continue;
    mark_[o] = kCustomer;
    region.push_back({o, kCustomer});
  }
  for (std::size_t i = 0; i < region.size(); ++i) {
    for (const auto& nb : topo_.neighbors(region[i].id)) {
      if (nb.rel != Rel::kProvider || mark_[nb.id] == kCustomer) continue;
      mark_[nb.id] = kCustomer;
      region.push_back({nb.id, kCustomer});
    }
  }
  // Phase 2: the upset's peers outside it elect peer routes.
  const std::size_t upset = region.size();
  for (std::size_t i = 0; i < upset; ++i) {
    for (const auto& nb : topo_.neighbors(region[i].id)) {
      if (nb.rel != Rel::kPeer || mark_[nb.id] != kProvider) continue;
      mark_[nb.id] = kPeer;
      region.push_back({nb.id, kPeer});
    }
  }
  for (const RegionNode& r : region) mark_[r.id] = kProvider;
  std::sort(region.begin(), region.end(),
            [](const RegionNode& a, const RegionNode& b) {
              return a.id < b.id;
            });
  return region;
}

GrStableState gr_sweep(const Topology& topo, NodeId origin) {
  const NodeId origins[1] = {origin};
  return gr_sweep_multi(topo, origins, nullptr);
}

std::vector<GrStableState> gr_sweep_batch(const Topology& topo,
                                          std::span<const NodeId> origins,
                                          exec::ThreadPool* pool) {
  return exec::parallel_map<GrStableState>(
      pool, origins.size(),
      [&topo, origins](std::size_t i, exec::TaskContext&) {
        return gr_sweep(topo, origins[i]);
      });
}

std::vector<NodeId> forwarding_neighbors(const Topology& topo,
                                         const GrStableState& state,
                                         NodeId u) {
  std::vector<NodeId> out;
  if (state.is_origin(u) || state.cls[u] == kUnreachableClass) return out;
  for (const auto& nb : topo.neighbors(u)) {
    const NodeId v = nb.id;
    if (state.cls[v] == kUnreachableClass) continue;
    if (state.dist[v] + 1 != state.dist[u]) continue;
    // The candidate route u learns from v must have u's elected class.
    bool matches = false;
    switch (nb.rel) {
      case Rel::kCustomer:
        matches = state.cls[u] == kCustomer && state.cls[v] == kCustomer;
        break;
      case Rel::kPeer:
        matches = state.cls[u] == kPeer && state.cls[v] == kCustomer;
        break;
      case Rel::kProvider:
        matches = state.cls[u] == kProvider;
        break;
    }
    if (matches) out.push_back(v);
  }
  return out;
}

NodeId best_forwarding_neighbor(const Topology& topo,
                                const GrStableState& state, NodeId u) {
  const auto all = forwarding_neighbors(topo, state, u);
  if (all.empty()) return kNoNeighbor;
  return *std::min_element(all.begin(), all.end());
}

}  // namespace dragon::routecomp
