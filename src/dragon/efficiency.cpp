#include "dragon/efficiency.hpp"

#include <algorithm>
#include <span>
#include <unordered_map>

#include "prefix/prefix_forest.hpp"
#include "routecomp/gr_sweep.hpp"
#include "topology/cleaner.hpp"

namespace dragon::core {

using routecomp::GrStableState;
using routecomp::kUnreachableClass;
using routecomp::RegionNode;
using topology::NodeId;

namespace {

/// Does code CR's premise hold at u, per the slack setting?
bool cr_premise(const GrStableState& q, const GrStableState& p, NodeId u,
                int slack_x) {
  const std::uint8_t cq = q.cls[u];
  const std::uint8_t cp = p.cls[u];
  if (cp == kUnreachableClass) return false;  // no parent route to fall back on
  if (cq > cp) return true;  // q-route less preferred (or absent entirely)
  if (cq < cp) return false;
  if (slack_x < 0) return true;  // classes equal, X = infinity
  return static_cast<int>(p.dist[u]) - static_cast<int>(q.dist[u]) <= slack_x;
}

/// Bounded cache of per-origin sweeps (cleared wholesale when full, which
/// is simpler than LRU and good enough: parent origins repeat in runs).
class SweepCache {
 public:
  SweepCache(const topology::Topology& topo, std::size_t cap)
      : topo_(topo), cap_(cap) {}

  const GrStableState& single(NodeId origin) {
    auto it = cache_.find(origin);
    if (it != cache_.end()) return it->second;
    if (cache_.size() >= cap_) cache_.clear();
    return cache_.emplace(origin, routecomp::gr_sweep(topo_, origin))
        .first->second;
  }

 private:
  const topology::Topology& topo_;
  std::size_t cap_;
  std::unordered_map<NodeId, GrStableState> cache_;
};

struct PairKey {
  NodeId q_origin;
  std::uint32_t parent_key;  // < node_count: parent origin; else aggregate id
  bool operator==(const PairKey&) const = default;
};

struct PairKeyHash {
  std::size_t operator()(const PairKey& k) const noexcept {
    return std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(k.q_origin) << 32) | k.parent_key);
  }
};

/// Distinct (child origin, parent) pairs with their weights, sorted by
/// parent key, then child origin.
using WeightedPairs = std::vector<std::pair<PairKey, std::uint32_t>>;

/// True when every node elects a route for every non-empty origin set:
/// the roots peer pairwise and every node descends from a root.  An
/// origin's upset then holds a root, every other root learns a peer route
/// from it, and provider routes flow down to every node.
/// is_policy_connected alone is not enough: it also holds beside a
/// rootless customer-provider cycle, whose nodes no outside origin
/// reaches.  O(V + E).
bool every_node_routed(const topology::Topology& topo) {
  if (!topology::is_policy_connected(topo)) return false;
  std::vector<char> reached(topo.node_count(), 0);
  std::vector<NodeId> stack = topo.roots();
  for (NodeId r : stack) reached[r] = 1;
  std::size_t count = stack.size();
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    for (const NodeId c : topo.customers(u)) {
      if (reached[c]) continue;
      reached[c] = 1;
      ++count;
      stack.push_back(c);
    }
  }
  return count == topo.node_count();
}

/// Dense path, any slack and any topology: each pair compares a child
/// sweep with a parent sweep at all n nodes.
void add_forgone_dense(const topology::Topology& topo,
                       const WeightedPairs& pairs,
                       const std::vector<AggregationPrefix>& aggregates,
                       int slack_x, std::vector<std::int64_t>& forgone) {
  const std::size_t n = topo.node_count();
  SweepCache cache(topo, 512);
  GrStableState agg_state;
  std::uint32_t agg_state_key = 0xFFFFFFFFu;
  for (const auto& [key, count] : pairs) {
    // Copied, not referenced: the parent lookup below may evict the cache.
    const GrStableState sq = cache.single(key.q_origin);
    const GrStableState* sp = nullptr;
    const std::vector<NodeId>* excluded = nullptr;
    std::vector<NodeId> single_exclusion;
    if (key.parent_key < n) {
      sp = &cache.single(key.parent_key);
      single_exclusion = {key.parent_key};
      excluded = &single_exclusion;
    } else {
      const auto agg_id = key.parent_key - static_cast<std::uint32_t>(n);
      if (agg_state_key != key.parent_key) {
        agg_state = routecomp::gr_sweep_multi(
            topo, aggregates[agg_id].originators, nullptr);
        agg_state_key = key.parent_key;
      }
      sp = &agg_state;
      excluded = &aggregates[agg_id].originators;
    }
    for (NodeId u = 0; u < n; ++u) {
      if (!cr_premise(sq, *sp, u, slack_x)) continue;
      if (std::find(excluded->begin(), excluded->end(), u) !=
          excluded->end()) {
        continue;
      }
      forgone[u] += count;
    }
  }
}

/// Sparse path: X = infinity on a topology where every_node_routed holds.
/// No class is then unreachable, so the premise fails exactly where the
/// child's class beats the parent's.  Only customer and peer beat
/// anything, so such nodes lie in the child origin's region.  Each pair
/// is therefore forgone by every node (the returned weight) minus once at
/// each parent originator (a set) and at each node of the child's region
/// whose class beats the parent's (subtracted from `forgone`).  A parent
/// originator holds a customer route, which no class beats, so no node is
/// subtracted twice.  Each origin's region is built once; the parent's is
/// stamped into an n-byte class array once per parent key.
std::uint64_t add_forgone_sparse(
    const topology::Topology& topo, const WeightedPairs& pairs,
    const std::vector<AggregationPrefix>& aggregates,
    std::vector<std::int64_t>& forgone) {
  const std::size_t n = topo.node_count();
  routecomp::GrRegionBuilder builder(topo);
  // A region holds at least its origin, so empty means "not built yet".
  std::vector<std::vector<RegionNode>> origin_region(n);
  const auto region_of = [&](NodeId o) -> const std::vector<RegionNode>& {
    if (origin_region[o].empty()) {
      origin_region[o] = builder.build(std::span<const NodeId>(&o, 1));
    }
    return origin_region[o];
  };

  std::vector<std::uint8_t> parent_cls(n, routecomp::kProvider);
  NodeId parent_origin = 0;
  std::span<const NodeId> originators;
  std::vector<RegionNode> agg_region;
  const std::vector<RegionNode>* parent_region = nullptr;
  std::uint32_t stamped_key = 0xFFFFFFFFu;
  std::uint64_t everywhere = 0;
  for (const auto& [key, count] : pairs) {
    if (key.parent_key != stamped_key) {
      if (parent_region != nullptr) {
        for (const RegionNode& r : *parent_region) {
          parent_cls[r.id] = routecomp::kProvider;
        }
      }
      if (key.parent_key < n) {
        parent_origin = key.parent_key;
        originators = std::span<const NodeId>(&parent_origin, 1);
        parent_region = &region_of(parent_origin);
      } else {
        originators = aggregates[key.parent_key - n].originators;
        agg_region = builder.build(originators);
        parent_region = &agg_region;
      }
      for (const RegionNode& r : *parent_region) parent_cls[r.id] = r.cls;
      stamped_key = key.parent_key;
    }
    // No originator means no parent route anywhere: the premise fails at
    // every node, as on the dense path.
    if (originators.empty()) continue;
    everywhere += count;
    for (NodeId o : originators) forgone[o] -= count;
    for (const RegionNode& r : region_of(key.q_origin)) {
      if (r.cls < parent_cls[r.id]) forgone[r.id] -= count;
    }
  }
  return everywhere;
}

}  // namespace

EfficiencyResult dragon_efficiency(const topology::Topology& topo,
                                   const addressing::Assignment& assignment,
                                   const EfficiencyOptions& options) {
  const std::size_t n = topo.node_count();
  EfficiencyResult result;
  result.original_prefixes = assignment.size();
  result.agg_per_as.assign(n, 0);

  // Optional aggregation prefixes become additional (anycast) parents.
  std::vector<AggregationPrefix> aggregates;
  if (options.with_aggregation) {
    aggregates = elect_aggregation_prefixes(topo, assignment);
    result.aggregation_prefixes = aggregates.size();
    std::vector<char> originates(n, 0);
    for (const auto& agg : aggregates) {
      for (NodeId u : agg.originators) {
        ++result.agg_per_as[u];
        originates[u] = 1;
      }
    }
    result.aggregating_ases = static_cast<std::size_t>(
        std::count(originates.begin(), originates.end(), 1));
  }

  // Combined prefix list: originals then aggregates (aggregates never equal
  // an original prefix and are parentless in the combined forest).
  std::vector<prefix::Prefix> combined = assignment.prefixes;
  combined.reserve(assignment.size() + aggregates.size());
  for (const auto& agg : aggregates) combined.push_back(agg.aggregate);
  prefix::PrefixForest forest(combined);

  // Child pairs: (q, parent).  Same-origin pairs use the closed form
  // (E = everyone but the origin); distinct pairs are deduplicated.
  std::uint64_t universal_pairs = 0;           // forgone by every node ...
  std::vector<std::int64_t> forgone(n, 0);     // ... with per-node corrections
  std::unordered_map<PairKey, std::uint32_t, PairKeyHash> distinct;
  std::size_t children_count = 0;

  for (std::size_t i = 0; i < combined.size(); ++i) {
    const auto parent = forest.parent(i);
    if (parent == prefix::PrefixForest::kNone) continue;
    ++children_count;
    const auto pi = static_cast<std::size_t>(parent);
    // q is always an original prefix (aggregates are parentless).
    const NodeId tq = assignment.origin[i];
    if (pi < assignment.size()) {
      const NodeId tp = assignment.origin[pi];
      if (tp == tq) {
        // Identical sweeps: premise holds everywhere; only origin excluded.
        ++universal_pairs;
        forgone[tp] -= 1;
      } else {
        ++distinct[PairKey{tq, tp}];
      }
    } else {
      const auto agg_id =
          static_cast<std::uint32_t>(pi - assignment.size());
      ++distinct[PairKey{tq, static_cast<std::uint32_t>(n) + agg_id}];
    }
  }

  // Deterministic processing order, grouped by parent: the dense path
  // reuses the parent's sweep, the sparse path stamps its region once.
  WeightedPairs pairs(distinct.begin(), distinct.end());
  std::sort(pairs.begin(), pairs.end(), [](const auto& a, const auto& b) {
    if (a.first.parent_key != b.first.parent_key) {
      return a.first.parent_key < b.first.parent_key;
    }
    return a.first.q_origin < b.first.q_origin;
  });

  if (options.slack_x < 0 && every_node_routed(topo)) {
    universal_pairs += add_forgone_sparse(topo, pairs, aggregates, forgone);
  } else {
    add_forgone_dense(topo, pairs, aggregates, options.slack_x, forgone);
  }

  // Assemble per-AS tables.
  const std::size_t total_after_base = combined.size();
  result.fib_entries.assign(n, 0);
  result.efficiency.assign(n, 0.0);
  const double orig = static_cast<double>(result.original_prefixes);
  for (NodeId u = 0; u < n; ++u) {
    const std::int64_t f = forgone[u] + static_cast<std::int64_t>(universal_pairs);
    result.fib_entries[u] =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(total_after_base) - f);
    result.efficiency[u] =
        orig > 0.0
            ? (orig - static_cast<double>(result.fib_entries[u])) / orig
            : 0.0;
  }
  result.max_efficiency =
      orig > 0.0 ? (static_cast<double>(children_count) -
                    static_cast<double>(aggregates.size())) /
                       orig
                 : 0.0;
  return result;
}

std::vector<double> partial_deployment_efficiency(
    const topology::Topology& topo, const addressing::Assignment& assignment,
    const std::vector<char>& deployed) {
  const std::size_t n = topo.node_count();
  prefix::PrefixForest forest(assignment.prefixes);

  // Deduplicate (q-origin, parent-origin) pairs; the filter set and the
  // obliviousness pattern depend only on the pair and the deployment mask.
  std::unordered_map<PairKey, std::uint32_t, PairKeyHash> distinct;
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    const auto parent = forest.parent(i);
    if (parent == prefix::PrefixForest::kNone) continue;
    const auto pi = static_cast<std::size_t>(parent);
    ++distinct[PairKey{assignment.origin[i], assignment.origin[pi]}];
  }

  SweepCache cache(topo, 512);
  std::vector<std::int64_t> forgone(n, 0);
  std::vector<std::pair<PairKey, std::uint32_t>> pairs(distinct.begin(),
                                                       distinct.end());
  std::sort(pairs.begin(), pairs.end(), [](const auto& a, const auto& b) {
    if (a.first.parent_key != b.first.parent_key) {
      return a.first.parent_key < b.first.parent_key;
    }
    return a.first.q_origin < b.first.q_origin;
  });

  std::vector<char> filters(n, 0);
  for (const auto& [key, count] : pairs) {
    const NodeId tq = key.q_origin;
    const NodeId tp = key.parent_key;
    // Same-origin pairs: premise holds everywhere; deployed nodes filter,
    // then others may become oblivious.
    std::fill(filters.begin(), filters.end(), 0);
    if (tq == tp) {
      for (NodeId u = 0; u < n; ++u) {
        filters[u] = static_cast<char>(deployed[u] && u != tp);
      }
    } else {
      // Copied, not referenced: the tp lookup below may evict the cache.
      const GrStableState sq = cache.single(tq);
      const GrStableState& sp = cache.single(tp);
      for (NodeId u = 0; u < n; ++u) {
        filters[u] = static_cast<char>(deployed[u] && u != tp &&
                                       cr_premise(sq, sp, u, -1));
      }
    }
    const NodeId origins[1] = {tq};
    const GrStableState after =
        routecomp::gr_sweep_multi(topo, origins, &filters);
    for (NodeId u = 0; u < n; ++u) {
      if (u == tp) continue;
      if (filters[u] || after.cls[u] == kUnreachableClass) {
        forgone[u] += count;
      }
    }
  }

  std::vector<double> efficiency(n, 0.0);
  const double orig = static_cast<double>(assignment.size());
  for (NodeId u = 0; u < n; ++u) {
    efficiency[u] =
        orig > 0.0 ? static_cast<double>(forgone[u]) / orig : 0.0;
  }
  return efficiency;
}

}  // namespace dragon::core
