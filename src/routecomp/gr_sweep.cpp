#include "routecomp/gr_sweep.hpp"

#include <algorithm>

#include "exec/parallel.hpp"

namespace dragon::routecomp {

using topology::NodeId;
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
  // of announcing nodes; BFS depth = AS-path length.  `region` is the BFS
  // queue and ends up holding every node routed by phases 1 and 2.
  std::vector<NodeId> region;
  for (NodeId o : origins) {
    if (state.cls[o] == kCustomer) continue;
    state.cls[o] = kCustomer;
    state.dist[o] = 0;
    region.push_back(o);
  }
  for (std::size_t i = 0; i < region.size(); ++i) {
    const NodeId v = region[i];
    if (!announces(v)) continue;
    for (const NodeId p : topo.providers(v)) {  // v announces up
      if (state.cls[p] == kCustomer) continue;
      state.cls[p] = kCustomer;
      state.dist[p] = static_cast<std::uint16_t>(state.dist[v] + 1);
      region.push_back(p);
    }
  }

  // Phase 2: peer routes: nodes without a customer route whose announcing
  // peer elects a customer route; path length = the shortest such peer's
  // length + 1.  Only the upset's peer links can carry one.
  const std::size_t upset = region.size();
  for (std::size_t i = 0; i < upset; ++i) {
    const NodeId v = region[i];
    if (!announces(v)) continue;
    const auto cand = static_cast<std::uint16_t>(state.dist[v] + 1);
    for (const NodeId u : topo.peers(v)) {
      if (state.cls[u] == kCustomer) continue;
      if (state.cls[u] == kUnreachableClass) {
        state.cls[u] = kPeer;
        region.push_back(u);
      }
      state.dist[u] = std::min(state.dist[u], cand);
    }
  }

  // Phase 3: provider routes.  Multi-source shortest-hop propagation down
  // provider->customer links from every announcing node routed so far.
  // Sources start at different distances, so expand in distance order with
  // a bucket queue (all link "weights" are 1).  Only nodes with customers
  // are queued: a stub's class and length are final once set, and it has
  // nothing to propagate.
  std::vector<std::vector<NodeId>> buckets;
  auto bucket_push = [&buckets, &topo](NodeId u, std::uint16_t d) {
    if (topo.is_stub(u)) return;
    if (buckets.size() <= d) buckets.resize(static_cast<std::size_t>(d) + 1);
    buckets[d].push_back(u);
  };
  for (const NodeId u : region) bucket_push(u, state.dist[u]);
  for (std::size_t d = 0; d < buckets.size(); ++d) {
    // buckets may grow while iterating; index-based loops throughout.
    for (std::size_t i = 0; i < buckets[d].size(); ++i) {
      const NodeId v = buckets[d][i];
      if (state.dist[v] != d) continue;  // superseded entry
      if (!announces(v)) continue;
      for (const NodeId u : topo.customers(v)) {  // v announces down
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
    for (const NodeId p : topo_.providers(region[i].id)) {
      if (mark_[p] == kCustomer) continue;
      mark_[p] = kCustomer;
      region.push_back({p, kCustomer});
    }
  }
  // Phase 2: the upset's peers outside it elect peer routes.
  const std::size_t upset = region.size();
  for (std::size_t i = 0; i < upset; ++i) {
    for (const NodeId u : topo_.peers(region[i].id)) {
      if (mark_[u] != kProvider) continue;
      mark_[u] = kPeer;
      region.push_back({u, kPeer});
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

namespace {

/// The neighbours u's elected route can come from: a customer route is
/// learned from customers, a peer route from peers, a provider route from
/// providers.
std::span<const NodeId> learned_over(const Topology& topo,
                                     const GrStableState& state, NodeId u) {
  switch (state.cls[u]) {
    case kCustomer:
      return topo.customers(u);
    case kPeer:
      return topo.peers(u);
    default:
      return topo.providers(u);
  }
}

/// True if the route u learns from v (a neighbour in learned_over) is u's
/// elected route: one hop longer, and exported to u.  Customers and peers
/// export only customer routes; providers export every route.
bool forwards(const GrStableState& state, NodeId u, NodeId v) {
  if (state.cls[v] == kUnreachableClass) return false;
  if (state.dist[v] + 1 != state.dist[u]) return false;
  return state.cls[u] == kProvider || state.cls[v] == kCustomer;
}

}  // namespace

std::vector<NodeId> forwarding_neighbors(const Topology& topo,
                                         const GrStableState& state,
                                         NodeId u) {
  std::vector<NodeId> out;
  if (state.is_origin(u) || state.cls[u] == kUnreachableClass) return out;
  for (const NodeId v : learned_over(topo, state, u)) {
    if (forwards(state, u, v)) out.push_back(v);
  }
  return out;
}

NodeId best_forwarding_neighbor(const Topology& topo,
                                const GrStableState& state, NodeId u) {
  NodeId best = kNoNeighbor;
  if (state.is_origin(u) || state.cls[u] == kUnreachableClass) return best;
  for (const NodeId v : learned_over(topo, state, u)) {
    if (forwards(state, u, v)) best = std::min(best, v);
  }
  return best;
}

}  // namespace dragon::routecomp
