#include "addressing/assignment.hpp"

#include "prefix/prefix_trie.hpp"
#include "topology/ancestry.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>
#include <unordered_set>

namespace dragon::addressing {

namespace {

using prefix::Address;
using prefix::Prefix;
using topology::NodeId;
using topology::Role;

/// Aligned bump allocation of a 2^(32-length) block inside `parent`,
/// starting no earlier than *next.  Returns nullopt when the parent block
/// is exhausted; on success advances *next past the allocation.
std::optional<Prefix> allocate_sub(const Prefix& parent, std::uint64_t* next,
                                   int length) {
  if (length <= parent.length() || length > prefix::kAddressBits) {
    return std::nullopt;
  }
  const std::uint64_t size = std::uint64_t{1} << (prefix::kAddressBits - length);
  const std::uint64_t parent_end = parent.first_address() + parent.size();
  std::uint64_t start = std::max<std::uint64_t>(*next, parent.first_address());
  start = (start + size - 1) & ~(size - 1);
  if (start + size > parent_end) return std::nullopt;
  *next = start + size;
  return Prefix(static_cast<Address>(start), length);
}

/// Discrete Pareto draw: P(X >= x) = x^-alpha, x >= 1, capped.
std::uint32_t pareto_count(util::Rng& rng, double alpha, std::uint32_t cap) {
  const double u = std::max(rng.uniform(), 1e-12);
  const double x = std::pow(u, -1.0 / alpha);
  return static_cast<std::uint32_t>(std::min<double>(x, cap));
}

/// A regional registry pool.  Registries hand out same-sized blocks
/// sequentially, so allocations of one size are contiguous ("lanes") —
/// which is what makes the address space aggregatable (§3.7): a fully
/// filled lane superblock is exactly tiled by its member allocations.
struct Pool {
  Prefix block;
  std::uint64_t next = 0;

  struct Lane {
    Prefix super;
    std::uint64_t next = 0;
    bool valid = false;
  };
  std::map<int, Lane> lanes;
};

/// Allocates a 2^(32-length) block from the pool's lane for that length,
/// opening a fresh superblock (16 slots) when the lane runs dry.
/// `hole_probability` models reserved-but-unannounced slots, which bound
/// how much of the PI space aggregation prefixes can cover.
std::optional<Prefix> pool_allocate(Pool& pool, int length, util::Rng& rng,
                                    double hole_probability) {
  auto& lane = pool.lanes[length];
  for (;;) {
    if (!lane.valid) {
      const int super_len = std::max(pool.block.length(), length - 4);
      auto super = allocate_sub(pool.block, &pool.next, super_len);
      if (!super) return std::nullopt;
      lane.super = *super;
      lane.next = super->first_address();
      lane.valid = true;
    }
    auto p = allocate_sub(lane.super, &lane.next, length);
    if (!p) {
      lane.valid = false;
      continue;
    }
    if (rng.chance(hole_probability)) continue;  // reserved hole
    return p;
  }
}

}  // namespace

Assignment generate_assignment(const topology::GeneratedTopology& topo,
                               const AssignmentParams& params) {
  util::Rng rng(params.seed);
  const std::size_t n = topo.graph.node_count();
  Assignment out;

  // Regional registry pools: one top-level block per region.
  int region_bits = 0;
  std::uint32_t regions = 1;
  std::uint32_t max_region = 0;
  for (std::uint32_t r : topo.region) max_region = std::max(max_region, r);
  while (regions < max_region + 1) {
    regions <<= 1;
    ++region_bits;
  }
  std::vector<Pool> pools;
  pools.reserve(max_region + 1);
  for (std::uint32_t r = 0; r <= max_region; ++r) {
    Pool pool;
    pool.block = Prefix(r << (prefix::kAddressBits - region_bits), region_bits);
    pool.next = pool.block.first_address();
    pools.push_back(pool);
  }

  // Per-AS bookkeeping: announced prefixes (for TE de-aggregation) and the
  // delegation cursor of the primary block.  The global announced set keeps
  // the dataset free of multi-origin prefixes (a provider's own TE
  // de-aggregate could otherwise collide exactly with a delegated
  // sub-block).
  std::vector<std::vector<Prefix>> announced(n);
  std::unordered_set<Prefix> announced_global;
  prefix::PrefixSet announced_trie;                  // for coverage queries
  std::unordered_map<Prefix, NodeId> origin_of;      // exact announced prefix
  struct Primary {
    Prefix block;
    std::uint64_t delegation_next = 0;
    bool valid = false;
  };
  std::vector<Primary> primary(n);

  auto announce = [&](NodeId u, const Prefix& p) {
    if (!announced_global.insert(p).second) return false;
    announced[u].push_back(p);
    announced_trie.insert(p);
    origin_of.emplace(p, u);
    out.prefixes.push_back(p);
    out.origin.push_back(u);
    return true;
  };

  auto allocate_pi = [&](NodeId u, bool primary) -> std::optional<Prefix> {
    Pool& pool = pools[topo.region[u]];
    // Primary allocations are sized by role; extra blocks are small so the
    // heavy-tailed announcers do not exhaust the regional pools.
    int length = 18 + static_cast<int>(rng.below(7));  // /18../24
    if (primary) {
      length = topo.role[u] == Role::kStub
                   ? 18 + static_cast<int>(rng.below(5))   // /18../22
                   : 12 + static_cast<int>(rng.below(6));  // /12../17
    }
    return pool_allocate(pool, length, rng, params.pi_hole_probability);
  };

  auto allocate_pa = [&](NodeId u) -> std::optional<Prefix> {
    auto providers = topo.graph.providers(u);
    if (providers.empty()) return std::nullopt;
    // Try each provider starting from a random one.
    const std::size_t offset = rng.below(providers.size());
    for (std::size_t k = 0; k < providers.size(); ++k) {
      const NodeId p = providers[(offset + k) % providers.size()];
      Primary& pp = primary[p];
      if (!pp.valid) continue;
      const int length = std::min(pp.block.length() + 4 +
                                      static_cast<int>(rng.below(5)),
                                  28);
      // Retry past exact collisions with the provider's own TE
      // de-aggregates (the cursor advances each attempt).
      for (int attempt = 0; attempt < 8; ++attempt) {
        auto sub = allocate_sub(pp.block, &pp.delegation_next, length);
        if (!sub) break;
        if (!announced_global.contains(*sub)) return sub;
      }
    }
    return std::nullopt;
  };

  // Per-AS announcement budget (heavy-tailed).
  std::vector<std::uint32_t> budget(n);
  for (NodeId u = 0; u < n; ++u) {
    budget[u] = pareto_count(rng, params.pareto_alpha,
                             params.max_prefixes_per_as);
  }

  // Phase 1: primary blocks.  Node ids are ordered tier-1, transit, stub by
  // the generator, so providers always receive their block before their
  // customers ask for a delegation.
  for (NodeId u = 0; u < n; ++u) {
    std::optional<Prefix> block;
    if (topo.role[u] == Role::kStub &&
        !rng.chance(params.stub_pi_probability)) {
      block = allocate_pa(u);
    }
    if (!block) block = allocate_pi(u, /*primary=*/true);
    if (!block) {
      ++out.pool_exhausted;
      continue;
    }
    primary[u] = {*block, block->first_address(), true};
    announce(u, *block);
  }

  // Phase 2: extra announcements — mostly traffic-engineering
  // de-aggregates of own space, occasionally fresh blocks.
  for (NodeId u = 0; u < n; ++u) {
    for (std::uint32_t k = 1; k < budget[u]; ++k) {
      if (rng.chance(params.extra_block_probability)) {
        std::optional<Prefix> block;
        if (topo.role[u] != Role::kTier1 && rng.chance(0.5)) {
          block = allocate_pa(u);
        }
        if (!block) block = allocate_pi(u, /*primary=*/false);
        if (block) announce(u, *block);
        continue;
      }
      if (announced[u].empty()) break;
      // Traffic-engineering de-aggregate.  Splits concentrate on the
      // primary block (deep prefix-trees rooted at the main allocation, as
      // in the paper's dataset where the median non-trivial tree has 5
      // prefixes) and descend past already-announced children, so heavy
      // announcers grow multi-level trees.
      Prefix base = rng.chance(0.6)
                        ? announced[u].front()
                        : announced[u][rng.below(announced[u].size())];
      // A TE split may never land inside space delegated to another AS
      // (that would be a foreign-parent anomaly the paper's cleaning rules
      // remove); te_ok rejects candidates whose most specific covering
      // announcement is foreign.
      const auto te_ok = [&](const Prefix& c) {
        const auto cover = announced_trie.parent_of(c);
        return !cover || origin_of.at(*cover) == u;
      };
      for (int depth = 0; depth < 8 && base.length() < 30; ++depth) {
        const int bit = static_cast<int>(rng.below(2));
        bool done = false;
        for (int side = 0; side < 2 && !done; ++side) {
          const Prefix c = base.child(side == 0 ? bit : 1 - bit);
          if (!te_ok(c) || !announce(u, c)) continue;
          // Operators usually announce the split pair together (/19 into
          // two /20s), sometimes recursing one level; every announcement
          // consumes budget.
          const Prefix sib = base.child(side == 0 ? 1 - bit : bit);
          if (k + 1 < budget[u] && te_ok(sib) && announce(u, sib)) ++k;
          if (rng.chance(0.5) && k + 2 < budget[u] && c.length() < 30) {
            if (announce(u, c.child(0))) ++k;
            if (announce(u, c.child(1))) ++k;
          }
          done = true;
        }
        if (done) break;
        // Both children already announced: descend into one of our own.
        const auto own = [&](const Prefix& c) {
          const auto it = origin_of.find(c);
          return it != origin_of.end() && it->second == u;
        };
        if (own(base.child(bit))) {
          base = base.child(bit);
        } else if (own(base.child(1 - bit))) {
          base = base.child(1 - bit);
        } else {
          break;
        }
      }
    }
  }

  // Phase 3: optional dataset anomalies for exercising the cleaning rules.
  if (params.anomaly_rate > 0.0 && n > 1 && !out.prefixes.empty()) {
    const std::size_t clean_size = out.prefixes.size();
    for (std::size_t i = 0; i < clean_size; ++i) {
      if (!rng.chance(params.anomaly_rate)) continue;
      const NodeId other =
          static_cast<NodeId>(rng.below(n));
      if (other == out.origin[i]) continue;
      if (rng.chance(0.5)) {
        // Multi-origin anomaly: a second AS originates the same prefix.
        out.prefixes.push_back(out.prefixes[i]);
        out.origin.push_back(other);
      } else if (out.prefixes[i].length() < 30) {
        // Foreign-parent anomaly: a child delegated outside the provider
        // chain of the parent's origin.
        const Prefix child = out.prefixes[i].child(0);
        if (announced_global.insert(child).second) {
          out.prefixes.push_back(child);
          out.origin.push_back(other);
        }
      }
    }
  }

  return out;
}

Assignment clean_assignment(const topology::Topology& topo,
                            const Assignment& input,
                            AssignmentCleanReport* report) {
  AssignmentCleanReport local;
  local.original = input.size();

  // Rule 1: drop prefixes originated by multiple ASs (all copies).
  std::unordered_map<Prefix, NodeId> first_origin;
  std::unordered_set<Prefix> multi_origin;
  for (std::size_t i = 0; i < input.size(); ++i) {
    auto [it, fresh] = first_origin.try_emplace(input.prefixes[i],
                                                input.origin[i]);
    if (!fresh && it->second != input.origin[i]) {
      multi_origin.insert(input.prefixes[i]);
    }
  }
  Assignment current;
  std::unordered_set<Prefix> emitted;
  for (std::size_t i = 0; i < input.size(); ++i) {
    const Prefix& p = input.prefixes[i];
    if (multi_origin.contains(p)) {
      ++local.removed_multi_origin;
      continue;
    }
    if (!emitted.insert(p).second) continue;  // exact duplicate, same origin
    current.prefixes.push_back(p);
    current.origin.push_back(input.origin[i]);
  }

  // Rule 2: drop prefixes whose parent is not originated by the same AS or
  // by a direct/indirect provider.  Removing a child can expose
  // grandchildren to a new parent, so iterate to a fixpoint.
  topology::AncestryCache upsets(topo);
  for (;;) {
    prefix::PrefixForest forest(current.prefixes);
    std::vector<char> drop(current.size(), 0);
    std::size_t dropped = 0;
    for (std::size_t i = 0; i < current.size(); ++i) {
      const auto parent = forest.parent(i);
      if (parent == prefix::PrefixForest::kNone) continue;
      const NodeId child_origin = current.origin[i];
      const NodeId parent_origin =
          current.origin[static_cast<std::size_t>(parent)];
      if (child_origin == parent_origin) continue;
      if (upsets.is_ancestor(parent_origin, child_origin)) continue;
      drop[i] = 1;
      ++dropped;
    }
    if (dropped == 0) break;
    Assignment next;
    next.prefixes.reserve(current.size() - dropped);
    next.origin.reserve(current.size() - dropped);
    for (std::size_t i = 0; i < current.size(); ++i) {
      if (drop[i]) {
        ++local.removed_foreign_parent;
      } else {
        next.prefixes.push_back(current.prefixes[i]);
        next.origin.push_back(current.origin[i]);
      }
    }
    current = std::move(next);
  }

  local.kept = current.size();
  if (report) *report = local;
  return current;
}

AssignmentStats compute_stats(const Assignment& assignment,
                              std::size_t node_count) {
  AssignmentStats stats;
  stats.total_prefixes = assignment.size();

  prefix::PrefixForest forest(assignment.prefixes);
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    const auto parent = forest.parent(i);
    if (parent == prefix::PrefixForest::kNone) {
      ++stats.parentless;
    } else {
      ++stats.with_parent;
      if (assignment.origin[i] ==
          assignment.origin[static_cast<std::size_t>(parent)]) {
        ++stats.same_origin_as_parent;
      }
    }
  }

  std::vector<std::uint32_t> per_as(node_count, 0);
  for (topology::NodeId u : assignment.origin) ++per_as[u];
  std::vector<std::uint32_t> nonzero;
  for (std::uint32_t c : per_as) {
    if (c > 0) nonzero.push_back(c);
  }
  std::sort(nonzero.begin(), nonzero.end());
  auto pct = [&](double q) -> double {
    if (nonzero.empty()) return 0.0;
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(nonzero.size() - 1));
    return nonzero[idx];
  };
  stats.median_per_as = pct(0.50);
  stats.p95_per_as = pct(0.95);
  stats.p99_per_as = pct(0.99);

  std::vector<std::size_t> tree_sizes;
  for (auto r : forest.non_trivial_roots()) {
    tree_sizes.push_back(forest.tree_members(r).size());
  }
  stats.non_trivial_trees = tree_sizes.size();
  std::sort(tree_sizes.begin(), tree_sizes.end());
  stats.median_tree_size =
      tree_sizes.empty()
          ? 0.0
          : static_cast<double>(tree_sizes[tree_sizes.size() / 2]);
  return stats;
}

}  // namespace dragon::addressing
