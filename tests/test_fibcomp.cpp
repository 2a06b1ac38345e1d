#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "addressing/assignment.hpp"
#include "dragon/aggregation.hpp"
#include "fibcomp/fib.hpp"
#include "fibcomp/ortc.hpp"
#include "routecomp/gr_sweep.hpp"
#include "topology/generator.hpp"
#include "util/rng.hpp"

namespace dragon::fibcomp {
namespace {

using prefix::Prefix;

Prefix bp(const char* s) { return *Prefix::from_bit_string(s); }

TEST(Fib, LookupIsLongestPrefixMatch) {
  const Fib fib{{bp("1"), 1}, {bp("10"), 2}, {bp("101"), 3}};
  const auto trie = build_trie(fib);
  EXPECT_EQ(lookup(trie, 0b10100000u << 24), 3u);
  EXPECT_EQ(lookup(trie, 0b10000000u << 24), 2u);
  EXPECT_EQ(lookup(trie, 0b11000000u << 24), 1u);
  EXPECT_EQ(lookup(trie, 0b01000000u << 24), kDrop);
}

TEST(Fib, NextHopFromNodeRejectsSentinelCollisions) {
  EXPECT_EQ(next_hop_from_node(0), 0u);
  EXPECT_EQ(next_hop_from_node(kSentinelBase - 1), kSentinelBase - 1);
  EXPECT_THROW((void)next_hop_from_node(kSentinelBase), std::invalid_argument);
  EXPECT_THROW((void)next_hop_from_node(kDrop), std::invalid_argument);
  EXPECT_THROW((void)next_hop_from_node(kLocal), std::invalid_argument);
  EXPECT_THROW((void)next_hop_from_node(0x1'00000000ull),
               std::invalid_argument);
}

TEST(Fib, BuildTrieRejectsUndefinedSentinels) {
  // kDrop/kLocal are legitimate FIB entries; anything else in the
  // reserved range is a node id that silently collided — reject loudly.
  const Fib ok{{bp("1"), kDrop}, {bp("10"), kLocal}, {bp("11"), 7}};
  EXPECT_NO_THROW((void)build_trie(ok));
  const Fib bad{{bp("1"), kSentinelBase}};
  EXPECT_THROW((void)build_trie(bad), std::invalid_argument);
  EXPECT_THROW(check_fib_next_hops(bad), std::invalid_argument);
  const Fib bad2{{bp("1"), kLocal - 1}};
  EXPECT_THROW((void)build_trie(bad2), std::invalid_argument);
}

TEST(Fib, ForwardingEquivalence) {
  const Fib a{{bp("1"), 1}, {bp("10"), 1}};
  const Fib b{{bp("1"), 1}};
  EXPECT_TRUE(forwarding_equivalent(a, b));  // the 10 entry is redundant
  const Fib c{{bp("1"), 2}};
  EXPECT_FALSE(forwarding_equivalent(a, c));
  const Fib d{};
  EXPECT_FALSE(forwarding_equivalent(a, d));
  EXPECT_TRUE(forwarding_equivalent(d, Fib{}));
}

TEST(Conservative, RemovesRedundantChild) {
  const Fib input{{bp("1"), 1}, {bp("10"), 1}, {bp("11"), 2}};
  const auto out = compress_conservative(input);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_TRUE(forwarding_equivalent(input, out));
  // Output is a subset of the input.
  for (const auto& e : out) {
    EXPECT_NE(std::find(input.begin(), input.end(), e), input.end());
  }
}

TEST(Conservative, RemovesShadowedParent) {
  // The parent is fully covered by children with their own next hops.
  const Fib input{{bp("1"), 9}, {bp("10"), 1}, {bp("11"), 2}};
  const auto out = compress_conservative(input);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_TRUE(forwarding_equivalent(input, out));
}

TEST(Conservative, KeepsNecessaryEntries) {
  const Fib input{{bp("1"), 1}, {bp("10"), 2}};
  const auto out = compress_conservative(input);
  EXPECT_EQ(out.size(), 2u);
}

TEST(Ortc, MergesSiblingsWithNewAggregate) {
  // Classic ORTC win: both children share a hop reachable by announcing
  // the (synthesised) parent once... here the parent entry replaces both.
  const Fib input{{bp("10"), 5}, {bp("11"), 5}};
  const auto out = compress_ortc(input);
  EXPECT_TRUE(forwarding_equivalent(input, out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].prefix, bp("1"));
  EXPECT_EQ(out[0].next_hop, 5u);
}

TEST(Ortc, ClassicDravesExample) {
  // Root default to hop 1, 00->2, 10->2.  Every node's candidate set is
  // {1, 2} down to the leaves, so the smallest hop wins at the root and
  // the two leaves for hop 2 stay (the equally small {*->2, 01->1,
  // 11->1} would need the largest hop chosen).
  const Fib input{{Prefix{}, 1}, {bp("00"), 2}, {bp("10"), 2}};
  const auto out = compress_ortc(input);
  EXPECT_TRUE(forwarding_equivalent(input, out));
  const Fib want{{Prefix{}, 1}, {bp("00"), 2}, {bp("10"), 2}};
  EXPECT_EQ(out, want);
}

TEST(Ortc, PreservesDropRegions) {
  // No root entry: addresses under 0 are dropped and must stay dropped.
  const Fib input{{bp("1"), 1}, {bp("11"), 1}};
  const auto out = compress_ortc(input);
  EXPECT_TRUE(forwarding_equivalent(input, out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].prefix, bp("1"));
}

TEST(Ortc, NeverWorseThanConservative) {
  util::Rng rng(123);
  for (int trial = 0; trial < 30; ++trial) {
    Fib fib;
    for (int i = 0; i < 60; ++i) {
      fib.push_back({Prefix(static_cast<prefix::Address>(rng()),
                            1 + static_cast<int>(rng.below(10))),
                     static_cast<NextHop>(rng.below(4))});
    }
    // Deduplicate prefixes (keep first).
    Fib dedup;
    for (const auto& e : fib) {
      const bool seen =
          std::any_of(dedup.begin(), dedup.end(), [&](const FibEntry& d) {
            return d.prefix == e.prefix;
          });
      if (!seen) dedup.push_back(e);
    }
    const auto cons = compress_conservative(dedup);
    const auto ortc = compress_ortc(dedup);
    EXPECT_LE(ortc.size(), cons.size());
    EXPECT_LE(cons.size(), dedup.size());
  }
}

/// FNV-1a over every entry's (bits, length, hop), in order.
std::uint64_t hash_entries(const Fib& fib, std::uint64_t h) {
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 0x100000001b3ull;
    }
  };
  for (const FibEntry& e : fib) {
    mix(e.prefix.bits());
    mix(static_cast<std::uint64_t>(e.prefix.length()));
    mix(e.next_hop);
  }
  return h;
}

// Both compressors' outputs, entry for entry, on FIBs built the way
// bench_fig8_filtering builds them: each origin's prefixes (origins in
// ascending order) carry the sampled AS's best forwarding neighbour,
// kLocal at the origin and kDrop without a neighbour; ORTC's FIBs also
// carry the elected aggregation prefixes.  Injected anomalies put some
// prefixes in a FIB twice with different hops, so the later-wins rule,
// the emit order and ORTC's smallest-hop choice all reach the hashes.
TEST(FibCompression, OutputsPinnedOnSweptFibs) {
  using topology::NodeId;
  topology::GeneratorParams tparams;
  tparams.tier1_count = 6;
  tparams.transit_count = 300;
  tparams.stub_count = 1200;
  tparams.seed = 71;
  const auto gen = topology::generate_internet(tparams);
  const auto& topo = gen.graph;
  addressing::AssignmentParams aparams;
  aparams.seed = 72;
  aparams.anomaly_rate = 0.02;
  const auto asg = addressing::generate_assignment(gen, aparams);
  const auto aggs = core::elect_aggregation_prefixes(topo, asg);

  // Four transit and four stub ASs, in shuffled order.
  std::vector<NodeId> order(topo.node_count());
  std::iota(order.begin(), order.end(), NodeId{0});
  util::Rng rng(73);
  rng.shuffle(order);
  std::vector<NodeId> sample;
  for (const bool stub : {false, true}) {
    std::size_t taken = 0;
    for (const NodeId u : order) {
      if (taken < 4 && topo.is_stub(u) == stub) {
        sample.push_back(u);
        ++taken;
      }
    }
  }

  const auto hop = [&](const routecomp::GrStableState& sweep, NodeId u) {
    if (sweep.is_origin(u)) return kLocal;
    const NodeId fwd = routecomp::best_forwarding_neighbor(topo, sweep, u);
    return fwd == routecomp::kNoNeighbor ? kDrop : next_hop_from_node(fwd);
  };
  std::map<NodeId, std::vector<std::size_t>> by_origin;
  for (std::size_t i = 0; i < asg.size(); ++i) {
    by_origin[asg.origin[i]].push_back(i);
  }
  std::vector<Fib> fibs_def(sample.size());
  for (const auto& [origin, indices] : by_origin) {
    const auto sweep = routecomp::gr_sweep(topo, origin);
    for (std::size_t s = 0; s < sample.size(); ++s) {
      const NextHop nh = hop(sweep, sample[s]);
      for (const std::size_t i : indices) {
        fibs_def[s].push_back({asg.prefixes[i], nh});
      }
    }
  }
  std::vector<Fib> fibs_agg = fibs_def;
  for (const auto& agg : aggs) {
    const auto sweep = routecomp::gr_sweep_multi(topo, agg.originators);
    for (std::size_t s = 0; s < sample.size(); ++s) {
      fibs_agg[s].push_back({agg.aggregate, hop(sweep, sample[s])});
    }
  }
  const std::set<Prefix> distinct(asg.prefixes.begin(), asg.prefixes.end());
  ASSERT_LT(distinct.size(), asg.size());  // duplicates reach the FIBs

  std::uint64_t cons_hash = 0xcbf29ce484222325ull;
  std::uint64_t ortc_hash = 0xcbf29ce484222325ull;
  std::size_t cons_entries = 0;
  std::size_t ortc_entries = 0;
  for (std::size_t s = 0; s < sample.size(); ++s) {
    const Fib cons = compress_conservative(fibs_def[s]);
    const Fib ortc = compress_ortc(fibs_agg[s]);
    cons_hash = hash_entries(cons, cons_hash);
    ortc_hash = hash_entries(ortc, ortc_hash);
    cons_entries += cons.size();
    ortc_entries += ortc.size();
  }
  EXPECT_EQ(asg.size(), 21224u);
  EXPECT_EQ(aggs.size(), 2187u);
  EXPECT_EQ(cons_entries, 80503u);
  EXPECT_EQ(ortc_entries, 22744u);
  EXPECT_EQ(cons_hash, 0x90461b3ecbfc7025ull);
  EXPECT_EQ(ortc_hash, 0x9082628c34d1772full);
}

NextHop random_hop(util::Rng& rng) {
  switch (rng.below(8)) {
    case 0:
      return kLocal;
    case 1:
      return kDrop;
    default:
      return static_cast<NextHop>(rng.below(4));
  }
}

/// A random FIB: mostly 20-100 entries, one draw in five 1k-3k.  Prefixes
/// are fresh (length 0-32), more-specifics of earlier ones down to /32,
/// siblings of earlier ones, or repeats of earlier ones with a new hop.
Fib random_fib(util::Rng& rng) {
  const std::size_t entries = rng.below(5) == 0 ? 1000 + rng.below(2001)
                                                : 20 + rng.below(81);
  Fib fib;
  while (fib.size() < entries) {
    const auto addr = static_cast<prefix::Address>(rng());
    Prefix p(addr, static_cast<int>(rng.below(33)));
    if (!fib.empty()) {
      const Prefix& earlier = fib[rng.below(fib.size())].prefix;
      switch (rng.below(4)) {
        case 0: {
          const auto below_earlier = static_cast<prefix::Address>(
              std::uint64_t{0xFFFFFFFFu} >> earlier.length());
          p = Prefix(earlier.bits() | (addr & below_earlier),
                     earlier.length() +
                         static_cast<int>(rng.below(33 - earlier.length())));
          break;
        }
        case 1:
          if (earlier.length() > 0) p = earlier.sibling();
          break;
        case 2:
          p = earlier;
          break;
        default:
          break;
      }
    }
    fib.push_back({p, random_hop(rng)});
  }
  return fib;
}

class FibCompressionProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(FibCompressionProperty, BothPreserveForwardingExactly) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const Fib fib = random_fib(rng);
    const auto cons = compress_conservative(fib);
    EXPECT_TRUE(forwarding_equivalent(fib, cons));
    const auto ortc = compress_ortc(fib);
    EXPECT_TRUE(forwarding_equivalent(fib, ortc));
    // Compression is idempotent.
    EXPECT_EQ(compress_conservative(cons).size(), cons.size());
    EXPECT_EQ(compress_ortc(ortc).size(), ortc.size());
    // Conservative output is a subset of the input after later-wins
    // deduplication, each prefix at most once.
    std::map<Prefix, NextHop> last;
    for (const auto& e : fib) last[e.prefix] = e.next_hop;
    std::set<Prefix> emitted;
    for (const auto& e : cons) {
      const auto it = last.find(e.prefix);
      ASSERT_NE(it, last.end()) << e.prefix.to_cidr();
      EXPECT_EQ(it->second, e.next_hop) << e.prefix.to_cidr();
      EXPECT_TRUE(emitted.insert(e.prefix).second) << e.prefix.to_cidr();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FibCompressionProperty,
                         ::testing::Values(51, 52, 53, 54, 55));

}  // namespace
}  // namespace dragon::fibcomp
