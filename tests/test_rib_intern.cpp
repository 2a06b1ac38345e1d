// Property tests for the hot-path RIB memory layout (DESIGN.md §10): the
// prefix interner's dense ids and memoized covering links, the flat
// PrefixId-keyed containers in engine/rib.hpp checked against std
// reference containers, and the engine-level guarantees the layout must
// not disturb — snapshot/restore bit-identical replay (including interner
// growth past the captured state, and dirty-node restores against whole
// copies), crash/restart on the flat RIB, and sequential-vs-4-thread
// digest equality.
//
// The `RibIntern` suite is the tier-1 `rib_smoke` ctest entry.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "addressing/assignment.hpp"
#include "algebra/gr_path_algebra.hpp"
#include "chaos/fault_plan.hpp"
#include "chaos/sweep.hpp"
#include "chaos/watchdog.hpp"
#include "engine/rib.hpp"
#include "engine/simulator.hpp"
#include "exec/thread_pool.hpp"
#include "paper_networks.hpp"
#include "prefix/intern.hpp"
#include "prefix/prefix_trie.hpp"
#include "test_support.hpp"
#include "topology/generator.hpp"
#include "util/rng.hpp"

namespace dragon::engine {
namespace {

using algebra::GrClass;
using algebra::GrPathAlgebra;
using prefix::kNoPrefixId;
using prefix::Prefix;
using prefix::PrefixId;
using prefix::PrefixInterner;
using prefix::PrefixSet;
using topology::NodeId;
using dragon::testing::quiesce;
using F1 = dragon::testing::Figure1;
using F2 = dragon::testing::Figure2;

Prefix bp(const char* s) { return *Prefix::from_bit_string(s); }

constexpr algebra::Attr kCust = GrPathAlgebra::make(GrClass::kCustomer, 0);

std::vector<Prefix> random_prefixes(std::size_t count, std::uint64_t seed,
                                    int max_extra_len = 16) {
  util::Rng rng(seed);
  std::vector<Prefix> out;
  PrefixSet seen;
  while (out.size() < count) {
    const Prefix p(
        static_cast<prefix::Address>(rng()),
        4 + static_cast<int>(rng.below(
                static_cast<std::uint64_t>(max_extra_len) + 1)));
    if (seen.contains(p)) continue;
    seen.insert(p);
    out.push_back(p);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Intern table
// ---------------------------------------------------------------------------

TEST(RibIntern, RoundTripAndStableIds) {
  const auto prefixes = random_prefixes(600, 1);
  PrefixInterner interner;
  std::vector<PrefixId> ids;
  for (const auto& p : prefixes) ids.push_back(interner.intern(p));
  ASSERT_EQ(interner.size(), prefixes.size());
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    // id -> prefix -> id round trip, and re-interning never mints new ids.
    EXPECT_EQ(interner.prefix_of(ids[i]), prefixes[i]);
    EXPECT_EQ(interner.find(prefixes[i]), ids[i]);
    EXPECT_EQ(interner.intern(prefixes[i]), ids[i]);
  }
  EXPECT_EQ(interner.size(), prefixes.size());
  EXPECT_EQ(interner.find(bp("010101010101010101010101")), kNoPrefixId);
}

TEST(RibIntern, MemoizedParentsMatchTrieOnRandomSets) {
  // The memoized parent link must agree with the PrefixSet (trie) parent
  // computation regardless of insertion order: later insertions splice
  // themselves between existing ancestor/descendant pairs.
  for (std::uint64_t seed = 2; seed < 8; ++seed) {
    auto prefixes = random_prefixes(400, seed, 12);
    // Densify ancestry: add a truncation of every fourth prefix so the
    // covering chains are several links deep, then shuffle.
    const std::size_t n = prefixes.size();
    PrefixSet have;
    for (const auto& p : prefixes) have.insert(p);
    for (std::size_t i = 0; i < n; i += 4) {
      if (prefixes[i].length() <= 6) continue;
      const Prefix anc(prefixes[i].bits(), prefixes[i].length() - 3);
      if (have.contains(anc)) continue;
      have.insert(anc);
      prefixes.push_back(anc);
    }
    util::Rng rng(seed * 31);
    for (std::size_t i = prefixes.size(); i > 1; --i) {
      std::swap(prefixes[i - 1], prefixes[rng.below(i)]);
    }

    PrefixInterner interner;
    PrefixSet set;
    for (const auto& p : prefixes) {
      interner.intern(p);
      set.insert(p);
    }
    for (const auto& p : prefixes) {
      const PrefixId id = interner.find(p);
      ASSERT_NE(id, kNoPrefixId);
      const PrefixId parent = interner.parent_of(id);
      const std::optional<Prefix> expect = set.parent_of(p);
      if (expect.has_value()) {
        ASSERT_NE(parent, kNoPrefixId) << "missing parent for " << p.to_bit_string();
        EXPECT_EQ(interner.prefix_of(parent), *expect) << p.to_bit_string();
      } else {
        EXPECT_EQ(parent, kNoPrefixId) << p.to_bit_string();
      }
    }
  }
}

TEST(RibIntern, CoveringChainFilteredByMembershipMatchesIteratedTrieParent) {
  // The engine's §3.6 "parent in locally-known set" query is the covering
  // chain filtered by per-node membership; the reference computation
  // iterates the trie's parent_of over the same membership subset.
  const auto prefixes = random_prefixes(300, 9, 12);
  PrefixInterner interner;
  PrefixSet all;
  for (const auto& p : prefixes) {
    interner.intern(p);
    all.insert(p);
  }
  util::Rng rng(10);
  PrefixSet member;
  std::vector<Prefix> members;
  for (const auto& p : prefixes) {
    if (rng.below(2) == 0) {
      member.insert(p);
      members.push_back(p);
    }
  }
  for (const auto& p : prefixes) {
    // Interner side: walk the covering chain, keep the first member hit.
    PrefixId got = kNoPrefixId;
    for (PrefixId pp = interner.parent_of(interner.find(p));
         pp != kNoPrefixId; pp = interner.parent_of(pp)) {
      if (member.contains(interner.prefix_of(pp))) {
        got = pp;
        break;
      }
    }
    // Trie side: iterate parent_of over the full set, skipping non-members.
    std::optional<Prefix> expect;
    for (std::optional<Prefix> q = all.parent_of(p); q.has_value();
         q = all.parent_of(*q)) {
      if (member.contains(*q)) {
        expect = *q;
        break;
      }
    }
    if (expect.has_value()) {
      ASSERT_NE(got, kNoPrefixId) << p.to_bit_string();
      EXPECT_EQ(interner.prefix_of(got), *expect) << p.to_bit_string();
    } else {
      EXPECT_EQ(got, kNoPrefixId) << p.to_bit_string();
    }
  }
}

TEST(RibIntern, SubtreeVisitMatchesTrieOrder) {
  const auto prefixes = random_prefixes(400, 11, 10);
  PrefixInterner interner;
  PrefixSet set;
  for (const auto& p : prefixes) {
    interner.intern(p);
    set.insert(p);
  }
  for (std::size_t i = 0; i < prefixes.size(); i += 7) {
    const Prefix& root = prefixes[i];
    std::vector<Prefix> via_interner;
    interner.visit_subtree(interner.find(root), [&](PrefixId q) {
      via_interner.push_back(interner.prefix_of(q));
    });
    std::vector<Prefix> via_trie;
    set.visit_subtree(root,
                      [&](const Prefix& q) { via_trie.push_back(q); });
    // Same members, same (global prefix) order.
    EXPECT_EQ(via_interner, via_trie) << root.to_bit_string();
  }
}

TEST(RibIntern, IdLessSortReproducesPrefixOrder) {
  const auto prefixes = random_prefixes(500, 12);
  PrefixInterner interner;
  std::vector<PrefixId> ids;
  for (const auto& p : prefixes) ids.push_back(interner.intern(p));
  std::sort(ids.begin(), ids.end(),
            [&](PrefixId a, PrefixId b) { return interner.id_less(a, b); });
  auto sorted = prefixes;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(interner.prefix_of(ids[i]), sorted[i]);
  }
}

// ---------------------------------------------------------------------------
// Flat containers vs std reference containers
// ---------------------------------------------------------------------------

TEST(RibIntern, PrefixIdMapMatchesStdMapUnderRandomOps) {
  util::Rng rng(13);
  PrefixIdMap<std::uint64_t> map;
  std::unordered_map<PrefixId, std::uint64_t> ref;
  for (int step = 0; step < 20000; ++step) {
    const auto key = static_cast<PrefixId>(rng.below(512));
    switch (rng.below(4)) {
      case 0: {
        const std::uint64_t v = rng();
        map.put(key, v);
        ref[key] = v;
        break;
      }
      case 1: {
        const std::uint64_t v = rng();
        std::uint64_t& slot = map.get_or_insert(key, v);
        auto [it, fresh] = ref.try_emplace(key, v);
        ASSERT_EQ(slot, it->second);
        slot += 1;
        it->second += 1;
        break;
      }
      case 2:
        ASSERT_EQ(map.erase(key), ref.erase(key) > 0);
        break;
      default: {
        const std::uint64_t* got = map.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(got != nullptr, it != ref.end());
        if (got != nullptr) {
          ASSERT_EQ(*got, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(map.size(), ref.size());
  }
  // Full-content sweep at the end (probe order vs hash order: compare as
  // sorted pair lists).
  std::vector<std::pair<PrefixId, std::uint64_t>> got, want(ref.begin(),
                                                            ref.end());
  map.for_each([&](PrefixId k, const std::uint64_t& v) {
    got.emplace_back(k, v);
  });
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

TEST(RibIntern, PrefixIdSetSortedIdsMatchStdSet) {
  const auto prefixes = random_prefixes(300, 14);
  PrefixInterner interner;
  std::vector<PrefixId> ids;
  for (const auto& p : prefixes) ids.push_back(interner.intern(p));
  util::Rng rng(15);
  PrefixIdSet set;
  std::set<Prefix> ref;  // the seed's pending/stale container
  for (int step = 0; step < 5000; ++step) {
    const PrefixId id = ids[rng.below(ids.size())];
    if (rng.below(3) == 0) {
      ASSERT_EQ(set.erase(id), ref.erase(interner.prefix_of(id)) > 0);
    } else {
      ASSERT_EQ(set.insert(id),
                ref.insert(interner.prefix_of(id)).second);
    }
    ASSERT_EQ(set.size(), ref.size());
  }
  // sorted_ids must reproduce the seed's std::set<Prefix> iteration order.
  const std::vector<PrefixId> sorted = set.sorted_ids(interner);
  ASSERT_EQ(sorted.size(), ref.size());
  auto it = ref.begin();
  for (const PrefixId id : sorted) {
    EXPECT_EQ(interner.prefix_of(id), *it++);
  }
}

TEST(RibIntern, RibInMatchesStdMapAndIteratesSorted) {
  util::Rng rng(16);
  RibIn rib;
  std::map<NodeId, algebra::Attr> ref;  // the seed's Adj-RIB-In container
  for (int step = 0; step < 4000; ++step) {
    const auto n = static_cast<NodeId>(rng.below(24));
    if (rng.below(3) == 0) {
      ASSERT_EQ(rib.erase(n), ref.erase(n) > 0);
    } else {
      const auto attr = static_cast<algebra::Attr>(rng());
      rib.set(n, attr);
      ref[n] = attr;
    }
    ASSERT_EQ(rib.size(), ref.size());
    const algebra::Attr* got = rib.find(n);
    const auto it = ref.find(n);
    ASSERT_EQ(got != nullptr, it != ref.end());
    if (got != nullptr) {
      ASSERT_EQ(*got, it->second);
    }
  }
  auto it = ref.begin();
  for (const auto& [node, attr] : rib) {
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(node, it->first);
    EXPECT_EQ(attr, it->second);
    ++it;
  }
  EXPECT_EQ(it, ref.end());
}

TEST(RibIntern, FlatTableSortedIterationAndFreshFlag) {
  const auto prefixes = random_prefixes(400, 17);
  PrefixInterner interner;
  std::vector<PrefixId> ids;
  for (const auto& p : prefixes) ids.push_back(interner.intern(p));
  FlatTable<std::uint32_t> table;
  bool fresh = false;
  for (const PrefixId id : ids) {
    table.get_or_create(id, &fresh) = id;
    ASSERT_TRUE(fresh);
    table.get_or_create(id, &fresh);
    ASSERT_FALSE(fresh);
  }
  ASSERT_EQ(table.size(), ids.size());
  EXPECT_EQ(table.find(interner.intern(bp("0101010101010101010101"))),
            nullptr);
  auto sorted = prefixes;
  std::sort(sorted.begin(), sorted.end());
  std::size_t i = 0;
  table.for_each_sorted(interner, [&](PrefixId id, const std::uint32_t& v) {
    ASSERT_LT(i, sorted.size());
    EXPECT_EQ(interner.prefix_of(id), sorted[i]);
    EXPECT_EQ(v, id);
    ++i;
  });
  EXPECT_EQ(i, sorted.size());
  table.clear();
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.find(ids[0]), nullptr);
}

// ---------------------------------------------------------------------------
// Engine-level guarantees on the flat RIB
// ---------------------------------------------------------------------------

Config dragon_config() {
  Config config;
  config.mrai = 0.5;
  config.link_delay = 0.01;
  config.enable_dragon = true;
  config.l_attr = [](algebra::Attr a) {
    return static_cast<std::uint32_t>(GrPathAlgebra::class_of(a));
  };
  return config;
}

std::vector<std::uint64_t> fault_digest(Simulator& sim,
                                        const topology::Topology& topo) {
  std::vector<std::uint64_t> digest{sim.stats().announcements,
                                    sim.stats().withdrawals};
  for (NodeId u = 0; u < topo.node_count(); ++u) {
    digest.push_back(sim.elected(u, bp("10")));
    digest.push_back(sim.elected(u, bp("10000")));
    digest.push_back(sim.fib_size(u));
  }
  return digest;
}

TEST(RibIntern, SnapshotRestoreReplaysFaultsBitIdentically) {
  // Snapshot at quiescence, then run the same fail/restore arc three
  // times from one snapshot: the flat tables (and the interner being
  // *excluded* from the snapshot) must replay bit-identically.
  const auto topo = F1::topology();
  GrPathAlgebra alg;
  Simulator sim(topo, alg, dragon_config());
  sim.originate(bp("10"), F1::origin_p, kCust);
  sim.originate(bp("10000"), F1::origin_q, kCust);
  quiesce(sim);
  const auto snap = sim.snapshot();

  const auto run_trial = [&] {
    sim.restore(snap);
    sim.reset_stats();
    sim.fail_link(F1::u4, F1::u6);
    quiesce(sim);
    sim.restore_link(F1::u4, F1::u6);
    quiesce(sim);
    return fault_digest(sim, topo);
  };
  const auto first = run_trial();
  // Grow the interner past the captured state between trials: ids are
  // append-only and every engine query filters by per-node membership, so
  // a bigger intern table must not perturb the replay (DESIGN.md §10).
  sim.restore(snap);
  sim.originate(bp("110011"), F1::u1, kCust);
  quiesce(sim);
  EXPECT_NE(sim.elected(F1::u6, bp("110011")), algebra::kUnreachable);
  const auto second = run_trial();
  const auto third = run_trial();
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, third);
  // And the grown prefix is gone again after restore, not just unelected.
  EXPECT_EQ(sim.elected(F1::u1, bp("110011")), algebra::kUnreachable);
  EXPECT_FALSE(sim.originates(F1::u1, bp("110011")));
}

TEST(RibIntern, CrashRestartOnFlatRibRecoversAndReplays) {
  // Crash/restart wipes node state in place (NodeState::clear keeps the
  // io vector sized); the recovery must converge back to the pre-crash
  // routes and replay bit-identically from one snapshot.
  const auto topo = F2::topology();
  GrPathAlgebra alg;
  Config config = dragon_config();
  config.session.enabled = true;
  config.session.graceful_restart = true;
  config.session.hold_time = 3.0;
  config.session.keepalive = 1.0;
  config.session.restart_window = 10.0;
  config.session.reestablish_delay = 1.0;
  Simulator sim(topo, alg, config);
  sim.originate(bp("10"), F2::origin_p, kCust);
  sim.originate(bp("10000"), F2::origin_q, kCust);
  quiesce(sim);
  const auto before = fault_digest(sim, topo);
  const auto snap = sim.snapshot();

  const auto run_trial = [&] {
    sim.restore(snap);
    sim.reset_stats();
    sim.crash_node(F2::u2);
    (void)sim.run_bounded(sim.now() + 4.0, 1'000'000);
    sim.restart_node(F2::u2);
    quiesce(sim);
    return fault_digest(sim, topo);
  };
  const auto first = run_trial();
  EXPECT_EQ(first, run_trial());
  // Elected state recovered to the pre-crash routes (stats differ, so
  // compare only the per-node tail of the digest).
  ASSERT_EQ(first.size(), before.size());
  for (std::size_t i = 2; i < before.size(); ++i) {
    EXPECT_EQ(first[i], before[i]) << "entry " << i;
  }
}

/// Everything the public API shows of a simulator's state: every route
/// entry's fields and Adj-RIB-In candidates, and per node the FIB size
/// and each session's state and stale-route count.
std::vector<std::uint64_t> state_dump(const Simulator& sim,
                                      const topology::Topology& topo) {
  std::vector<std::uint64_t> out;
  sim.for_each_route([&out](NodeId u, const Prefix& p, const RouteEntry& e) {
    out.insert(out.end(),
               {u, p.first_address(), static_cast<std::uint64_t>(p.length()),
                e.elected, e.filtered, e.originated, e.origin_attr,
                e.origin_paused, e.origin_reagg, e.fib_installed,
                e.rib_in.size()});
    for (const auto& [v, attr] : e.rib_in) {
      out.push_back(v);
      out.push_back(attr);
    }
  });
  for (NodeId u = 0; u < topo.node_count(); ++u) {
    out.push_back(sim.fib_size(u));
    for (const auto& nb : topo.neighbors(u)) {
      out.push_back(static_cast<std::uint64_t>(sim.session_state(u, nb.id)));
      out.push_back(sim.stale_route_count(u, nb.id));
    }
  }
  return out;
}

/// Index of the first differing word ("none" when equal).
std::string first_difference(const std::vector<std::uint64_t>& a,
                             const std::vector<std::uint64_t>& b) {
  const auto [ia, ib] = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
  if (ia == a.end() && ib == b.end()) return "none";
  return "word " + std::to_string(ia - a.begin()) + " of " +
         std::to_string(a.size()) + "/" + std::to_string(b.size());
}

TEST(RibIntern, RestoreDirtyMatchesWholeCopy) {
  // Differential for Simulator::restore's two paths.  Sim A restores one
  // snapshot before every trial, so from its second trial on it copies
  // back only the nodes the previous trial touched; sim B alternates
  // between two snapshots taken at the same instant, so each of its
  // restores is a whole copy.  The trials run every engine mutation path
  // (the coverage counts at the end prove it): a mutation that bypasses
  // touch() leaves its node changed in A but not in B, and the dumps or
  // counts of the next trial differ.
  topology::GeneratorParams tparams;
  tparams.tier1_count = 3;
  tparams.transit_count = 9;
  tparams.stub_count = 28;
  tparams.seed = 5;
  const auto generated = topology::generate_internet(tparams);
  const topology::Topology& topo = generated.graph;
  addressing::AssignmentParams aparams;
  aparams.max_prefixes_per_as = 2;
  aparams.seed = 6;
  const auto assignment = addressing::clean_assignment(
      topo, addressing::generate_assignment(generated, aparams));
  // A single-homed stub that originates nothing, cut off from its
  // provider when the snapshots are taken and reconnected at the start of
  // every trial.  That sends the provider's table down and nothing back,
  // so in a trial without faults the provider's Adj-RIB-Out towards the
  // stub is all that changes at the provider: a write reached only
  // through io().  Were it left unrestored, the next trial's reconnect
  // would find the table already sent.
  NodeId quiet_stub = 0;
  NodeId quiet_provider = 0;
  bool found = false;
  for (NodeId u = 0; u < topo.node_count() && !found; ++u) {
    if (!topo.is_stub(u) || topo.provider_count(u) != 1) continue;
    for (const auto& nb : topo.neighbors(u)) {
      if (nb.rel == topology::Rel::kProvider) quiet_provider = nb.id;
    }
    quiet_stub = u;
    found = true;
  }
  ASSERT_TRUE(found);
  std::vector<chaos::OriginSpec> origins;
  PrefixSet assigned;
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    assigned.insert(assignment.prefixes[i]);
    if (assignment.origin[i] == quiet_stub) continue;
    origins.push_back({assignment.prefixes[i], assignment.origin[i], kCust});
  }
  ASSERT_GE(origins.size(), 20u);
  const Prefix watch_root(static_cast<prefix::Address>(0xF0000000u), 4);
  ASSERT_FALSE(assigned.contains(watch_root));

  // Route leaks run only with §3.7 self-organised origination off: a
  // leaked aggregate re-originated elsewhere never settles (the chaos
  // scenario engine keeps the two apart the same way).
  struct Variant {
    const char* name;
    bool session;
    bool graceful_restart;
    bool leaks;
  };
  constexpr int kTrialsPerVariant = 20;
  // Counters that prove the trials ran each mutation path (the fault
  // kinds of the plans are counted too).
  const char* const kPathCounters[] = {
      "dragon.engine.msgs_lost",          "dragon.engine.msgs_dup",
      "dragon.engine.damp_suppressions",  "dragon.engine.damp_releases",
      "dragon.dragon.filter_transitions", "dragon.dragon.deaggregations",
      "dragon.dragon.agg_originations",   "dragon.session.node_crashes",
      "dragon.session.node_restarts",     "dragon.session.stale_retained",
      "dragon.session.stale_swept",       "dragon.session.torn_down"};
  std::map<std::string, std::uint64_t> coverage;
  for (const Variant variant :
       {Variant{"no-session", false, false, false},
        Variant{"graceful-restart", true, true, true},
        Variant{"no-graceful-restart", true, false, true}}) {
    SCOPED_TRACE(variant.name);
    Config config = dragon_config();
    config.enable_reaggregation = !variant.leaks;
    config.seed = 17;
    config.faults.loss = 0.05;
    config.faults.duplicate = 0.1;
    config.faults.delay_prob = 0.2;
    config.damping.enabled = true;
    config.damping.suppress = 2.0;
    config.damping.half_life = 4.0;
    config.leak_mask = [](algebra::Attr) {
      return GrPathAlgebra::make(GrClass::kCustomer,
                                 GrPathAlgebra::kMaxPathLength);
    };
    if (variant.session) {
      config.session.enabled = true;
      config.session.graceful_restart = variant.graceful_restart;
      // Two keepalives per hold window: an observed loss tears its
      // session down with probability loss^2, so teardown and
      // re-establishment run too.  (With one keepalive per window,
      // teardowns outpace the refreshes and bring-up never settles.)
      config.session.hold_time = 2.0;
      config.session.keepalive = 1.0;
      config.session.restart_window = 6.0;
      config.session.reestablish_delay = 1.0;
    }
    GrPathAlgebra alg;
    Simulator a(topo, alg, config);
    Simulator b(topo, alg, config);
    for (Simulator* sim : {&a, &b}) {
      for (const auto& o : origins) sim->originate(o.prefix, o.origin, o.attr);
      quiesce(*sim);
      sim->fail_link(quiet_provider, quiet_stub);
      quiesce(*sim);
    }
    const auto snap_a = a.snapshot();
    const std::shared_ptr<const Simulator::Snapshot> snaps_b[2] = {
        b.snapshot(), b.snapshot()};

    for (int trial = 0; trial < kTrialsPerVariant; ++trial) {
      SCOPED_TRACE("trial " + std::to_string(trial));
      a.restore(snap_a);
      b.restore(snaps_b[trial % 2]);
      const auto restored = state_dump(a, topo);
      ASSERT_EQ(first_difference(restored, state_dump(b, topo)), "none");

      chaos::PlanParams params;
      params.start = a.now();
      params.events = 4;
      params.horizon = 15.0;
      params.restore_prob = 0.6;
      params.restore_delay = 8.0;
      params.origin_flap_prob = 0.1;
      params.crash_prob = variant.session ? 0.2 : 0.0;
      params.leak_prob = variant.leaks ? 0.15 : 0.0;
      params.hijack_prob = 0.15;
      params.node_fault_prob = 0.1;
      const chaos::FaultPlan plan = chaos::generate_plan(
          topo, origins, params, 100 + static_cast<std::uint64_t>(trial));
      // Every fourth trial runs no faults; every third originates a
      // prefix nobody was assigned (the interner grows past the
      // snapshot's ids); with §3.7 on, every fifth watches an aggregation
      // root, which creates an entry for it at every node.
      const bool faults = trial % 4 != 3;
      const bool watch = config.enable_reaggregation && trial % 5 == 1;
      const Prefix extra(static_cast<prefix::Address>(0xF0000000u) |
                             (static_cast<prefix::Address>(trial) << 16),
                         16);
      ASSERT_FALSE(assigned.contains(extra));
      const NodeId extra_origin =
          static_cast<NodeId>(trial * 7) % topo.node_count();

      std::vector<std::uint64_t> result[2];
      for (int k = 0; k < 2; ++k) {
        Simulator& sim = k == 0 ? a : b;
        sim.reset_stats();
        sim.restore_link(quiet_provider, quiet_stub);
        if (trial % 3 == 2) sim.originate(extra, extra_origin, kCust);
        if (watch) sim.watch_aggregate(watch_root, kCust);
        if (faults) chaos::schedule_plan(sim, plan);
        const auto run = chaos::run_to_quiescence(sim, {1e6, 5'000'000});
        ASSERT_TRUE(run.quiescent) << run.diagnostics << plan.to_json();
        result[k] = {run.events, sim.stats().updates(),
                     static_cast<std::uint64_t>(sim.now() * 1e6)};
        const auto dump = state_dump(sim, topo);
        result[k].insert(result[k].end(), dump.begin(), dump.end());
      }
      ASSERT_EQ(result[0][0], result[1][0]) << "events";
      ASSERT_EQ(result[0][1], result[1][1]) << "updates";
      ASSERT_EQ(first_difference(result[0], result[1]), "none")
          << plan.to_json();

      for (const char* name : kPathCounters) {
        coverage[name] += a.metrics().counter(name)->value();
      }
      for (const chaos::FaultAction& act : plan.actions) {
        if (faults) ++coverage[chaos::to_string(act.kind)];
      }
      coverage["originate_between_trials"] += trial % 3 == 2 ? 1 : 0;
      coverage["watch_aggregate_between_trials"] += watch ? 1 : 0;
    }
  }
  for (const auto& [name, count] : coverage) {
    EXPECT_GT(count, 0u) << name << " never ran";
  }
  EXPECT_EQ(coverage.size(),
            std::size(kPathCounters) +
                static_cast<std::size_t>(chaos::FaultKind::kCount_) + 2u)
      << "a fault kind never ran";
}

TEST(RibIntern, ChaosSweepSequentialVsFourThreadsBitIdentical) {
  // The flat layout must preserve PR 3's guarantee: one Simulator per
  // worker, so a 4-thread sweep is outcome-for-outcome identical to the
  // sequential one.
  const auto topo = F1::topology();
  GrPathAlgebra alg;
  chaos::SweepSpec spec;
  spec.topo = &topo;
  spec.alg = &alg;
  spec.config = dragon_config();
  spec.origins = {{bp("10"), F1::origin_p, kCust},
                  {bp("10000"), F1::origin_q, kCust}};
  spec.params.events = 4;
  spec.params.horizon = 30.0;
  spec.params.restore_prob = 0.7;
  spec.params.origin_flap_prob = 0.2;
  spec.invariants.max_sources = 16;

  util::Rng seeder(21);
  std::vector<std::uint64_t> seeds(24);
  for (auto& s : seeds) s = seeder();

  const auto sequential = chaos::run_schedule_sweep(spec, seeds, nullptr);
  exec::ThreadPool pool(4);
  const auto parallel = chaos::run_schedule_sweep(spec, seeds, &pool);
  ASSERT_EQ(parallel.size(), sequential.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    ASSERT_TRUE(sequential[i].ok())
        << sequential[i].diagnostics << sequential[i].plan_json;
    EXPECT_EQ(parallel[i].plan_json, sequential[i].plan_json);
    EXPECT_EQ(parallel[i].end_time, sequential[i].end_time);
    EXPECT_EQ(parallel[i].stats.announcements,
              sequential[i].stats.announcements);
    EXPECT_EQ(parallel[i].stats.withdrawals,
              sequential[i].stats.withdrawals);
    EXPECT_EQ(parallel[i].msgs_lost, sequential[i].msgs_lost);
  }
}

}  // namespace
}  // namespace dragon::engine
