#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "addressing/assignment.hpp"
#include "algebra/gr_path_algebra.hpp"
#include "engine/event_queue.hpp"
#include "engine/simulator.hpp"
#include "paper_networks.hpp"
#include "prefix/prefix_forest.hpp"
#include "routecomp/gr_sweep.hpp"
#include "test_support.hpp"
#include "topology/generator.hpp"

namespace dragon::engine {
namespace {

using algebra::GrClass;
using algebra::GrPathAlgebra;
using obs::EventKind;
using prefix::Prefix;
using topology::NodeId;
using F1 = testing::Figure1;
using dragon::testing::quiesce;

Prefix bp(const char* s) { return *Prefix::from_bit_string(s); }

// ---------------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------------

TEST(EventQueue, RunsInTimeOrderWithFifoTies) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(2.0, [&] { order.push_back(3); });
  queue.schedule(1.0, [&] { order.push_back(1); });
  queue.schedule(1.0, [&] { order.push_back(2); });
  while (!queue.empty()) queue.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(queue.now(), 2.0);
}

TEST(EventQueue, EventsMayScheduleEvents) {
  EventQueue queue;
  int fired = 0;
  queue.schedule(1.0, [&] {
    ++fired;
    queue.schedule(2.0, [&] { ++fired; });
  });
  EXPECT_EQ(queue.run_until(10.0), 2u);
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunUntilStopsAtDeadline) {
  EventQueue queue;
  int fired = 0;
  queue.schedule(1.0, [&] { ++fired; });
  queue.schedule(5.0, [&] { ++fired; });
  EXPECT_EQ(queue.run_until(2.0), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(queue.empty());
}

TEST(EventQueue, PastSchedulesClampToNow) {
  EventQueue queue;
  double seen = -1;
  queue.schedule(5.0, [&] {
    queue.schedule(1.0, [&] { seen = queue.now(); });  // in the past
  });
  queue.run_until(100.0);
  EXPECT_DOUBLE_EQ(seen, 5.0);
}

// ---------------------------------------------------------------------------
// Simulator: plain BGP behaviour
// ---------------------------------------------------------------------------

Config bgp_config() {
  Config config;
  config.mrai = 0.5;  // keep tests fast; ratios preserved
  config.link_delay = 0.01;
  config.enable_dragon = false;
  return config;
}

Config dragon_config() {
  Config config = bgp_config();
  config.enable_dragon = true;
  return config;
}

constexpr algebra::Attr kOriginAttr =
    GrPathAlgebra::make(GrClass::kCustomer, 0);

TEST(Simulator, ConvergesToSweepState) {
  const auto topo = F1::topology();
  GrPathAlgebra alg;
  Simulator sim(topo, alg, bgp_config());
  sim.originate(bp("10"), F1::origin_p, kOriginAttr);
  quiesce(sim);

  const auto sweep = routecomp::gr_sweep(topo, F1::origin_p);
  for (NodeId u = 0; u < topo.node_count(); ++u) {
    const auto got = sim.elected(u, bp("10"));
    ASSERT_NE(got, algebra::kUnreachable) << u;
    EXPECT_EQ(static_cast<std::uint8_t>(GrPathAlgebra::class_of(got)),
              sweep.cls[u])
        << u;
    EXPECT_EQ(GrPathAlgebra::path_length_of(got), sweep.dist[u]) << u;
  }
  EXPECT_GT(obs::count(sim.metrics(), EventKind::kAnnounce), 0u);
  EXPECT_EQ(obs::count(sim.metrics(), EventKind::kWithdraw), 0u);
}

TEST(Simulator, TraceDeliversAlongHierarchy) {
  const auto topo = F1::topology();
  GrPathAlgebra alg;
  Simulator sim(topo, alg, bgp_config());
  sim.originate(bp("10"), F1::origin_p, kOriginAttr);
  quiesce(sim);

  for (NodeId u = 0; u < topo.node_count(); ++u) {
    const auto result = sim.trace(u, bp("10").first_address());
    EXPECT_EQ(result.outcome, Simulator::Outcome::kDelivered) << u;
    EXPECT_EQ(result.path.back(), F1::origin_p);
  }
  // An address outside the announced prefix black-holes.
  EXPECT_EQ(sim.trace(F1::u1, bp("01").first_address()).outcome,
            Simulator::Outcome::kBlackHole);
}

TEST(Simulator, LinkFailureReconvergesToNewStableState) {
  const auto topo = F1::topology();
  GrPathAlgebra alg;
  Simulator sim(topo, alg, bgp_config());
  sim.originate(bp("10"), F1::origin_q, kOriginAttr);  // q at u6
  quiesce(sim);
  sim.reset_stats();

  // Fail {u3, u6}: u3 loses its customer route and must go via u2.
  sim.fail_link(F1::u3, F1::u6);
  quiesce(sim);
  EXPECT_GT(obs::updates(sim.metrics()), 0u);

  auto failed_topo = F1::topology();
  failed_topo.remove_link(F1::u3, F1::u6);
  const auto sweep = routecomp::gr_sweep(failed_topo, F1::origin_q);
  for (NodeId u = 0; u < topo.node_count(); ++u) {
    const auto got = sim.elected(u, bp("10"));
    EXPECT_EQ(static_cast<std::uint8_t>(GrPathAlgebra::class_of(got)),
              sweep.cls[u])
        << u;
  }
  // Delivery still works everywhere.
  for (NodeId u = 0; u < topo.node_count(); ++u) {
    EXPECT_EQ(sim.trace(u, bp("10").first_address()).outcome,
              Simulator::Outcome::kDelivered);
  }
}

TEST(Simulator, LinkRestorationRecoversOriginalState) {
  const auto topo = F1::topology();
  GrPathAlgebra alg;
  Simulator sim(topo, alg, bgp_config());
  sim.originate(bp("10"), F1::origin_q, kOriginAttr);
  quiesce(sim);
  const auto before = sim.elected(F1::u3, bp("10"));

  sim.fail_link(F1::u3, F1::u6);
  quiesce(sim);
  EXPECT_NE(sim.elected(F1::u3, bp("10")), before);

  sim.restore_link(F1::u3, F1::u6);
  quiesce(sim);
  EXPECT_EQ(sim.elected(F1::u3, bp("10")), before);
}

TEST(Simulator, SnapshotRestoreReproducesTrialsExactly) {
  const auto topo = F1::topology();
  GrPathAlgebra alg;
  Simulator sim(topo, alg, bgp_config());
  sim.originate(bp("10"), F1::origin_q, kOriginAttr);
  quiesce(sim);
  const auto snap = sim.snapshot();

  sim.reset_stats();
  sim.fail_link(F1::u4, F1::u6);
  quiesce(sim);
  const auto first_updates = obs::updates(sim.metrics());

  sim.restore(snap);
  sim.reset_stats();
  sim.fail_link(F1::u4, F1::u6);
  quiesce(sim);
  EXPECT_EQ(obs::updates(sim.metrics()), first_updates);
}

TEST(Simulator, WithdrawOriginRemovesPrefixNetworkWide) {
  const auto topo = F1::topology();
  GrPathAlgebra alg;
  Simulator sim(topo, alg, bgp_config());
  sim.originate(bp("10"), F1::origin_p, kOriginAttr);
  quiesce(sim);
  sim.withdraw_origin(bp("10"), F1::origin_p);
  quiesce(sim);
  for (NodeId u = 0; u < topo.node_count(); ++u) {
    EXPECT_EQ(sim.elected(u, bp("10")), algebra::kUnreachable) << u;
  }
  EXPECT_GT(obs::count(sim.metrics(), EventKind::kWithdraw), 0u);
}

// ---------------------------------------------------------------------------
// Simulator: DRAGON in the control loop
// ---------------------------------------------------------------------------

TEST(DragonEngine, Figure1FilteringFixpoint) {
  const auto topo = F1::topology();
  GrPathAlgebra alg;
  Simulator sim(topo, alg, dragon_config());
  sim.originate(bp("10"), F1::origin_p, kOriginAttr);     // p
  sim.originate(bp("10000"), F1::origin_q, kOriginAttr);  // q
  quiesce(sim);

  // §3.1: u2 and u5 filter q; u1 is oblivious of q.
  EXPECT_TRUE(sim.filtered(F1::u2, bp("10000")));
  EXPECT_TRUE(sim.filtered(F1::u5, bp("10000")));
  EXPECT_EQ(sim.elected(F1::u1, bp("10000")), algebra::kUnreachable);
  EXPECT_FALSE(sim.filtered(F1::u3, bp("10000")));
  EXPECT_FALSE(sim.filtered(F1::u4, bp("10000")));

  // FIB sizes: filtering nodes hold one entry, keepers hold two.
  EXPECT_EQ(sim.fib_size(F1::u2), 1u);
  EXPECT_EQ(sim.fib_size(F1::u1), 1u);
  EXPECT_EQ(sim.fib_size(F1::u3), 2u);

  // Packets to q still reach u6 from everywhere (route consistency).
  for (NodeId u = 0; u < topo.node_count(); ++u) {
    const auto result = sim.trace(u, bp("10000").first_address());
    EXPECT_EQ(result.outcome, Simulator::Outcome::kDelivered) << u;
    EXPECT_EQ(result.path.back(), F1::origin_q) << u;
  }
  // Packets to p-not-q still reach u4 (address starting 101...).
  const auto other = sim.trace(F1::u5, bp("101").first_address());
  EXPECT_EQ(other.outcome, Simulator::Outcome::kDelivered);
  EXPECT_EQ(other.path.back(), F1::origin_p);
}

TEST(DragonEngine, PeerFailureIsHandledLocally) {
  // §3.8 first case: failing {u3, u6} does not affect the customer q-route
  // at the origin of p (u4), so code CR alone handles it: u3 forgoes q (in
  // the event-driven evolution its filtering upstream neighbour u2 never
  // re-announces q, so u3 ends up oblivious — the same forgo outcome as the
  // paper's static "u3 now filters q" reading) and no de-aggregation
  // happens.
  const auto topo = F1::topology();
  GrPathAlgebra alg;
  Simulator sim(topo, alg, dragon_config());
  sim.originate(bp("10"), F1::origin_p, kOriginAttr);
  sim.originate(bp("10000"), F1::origin_q, kOriginAttr);
  quiesce(sim);
  ASSERT_FALSE(sim.filtered(F1::u3, bp("10000")));
  ASSERT_TRUE(sim.fib_active(F1::u3, bp("10000")));

  sim.fail_link(F1::u3, F1::u6);
  quiesce(sim);
  EXPECT_FALSE(sim.fib_active(F1::u3, bp("10000")));  // u3 forgoes q
  EXPECT_EQ(obs::count(sim.metrics(), EventKind::kDeaggregate), 0u);
  EXPECT_TRUE(sim.originates(F1::u4, bp("10")));  // p untouched
  for (NodeId u = 0; u < topo.node_count(); ++u) {
    EXPECT_EQ(sim.trace(u, bp("10000").first_address()).outcome,
              Simulator::Outcome::kDelivered)
        << u;
  }
}

TEST(DragonEngine, OriginFailureTriggersDeaggregation) {
  // §3.8 second case: failing {u4, u6} leaves the origin of p without a
  // customer q-route; RA forces u4 to withdraw p = 10 and announce the
  // complements 10001, 1001, 101; u2 re-originates p as an aggregate.
  const auto topo = F1::topology();
  GrPathAlgebra alg;
  Simulator sim(topo, alg, dragon_config());
  sim.originate(bp("10"), F1::origin_p, kOriginAttr);
  sim.originate(bp("10000"), F1::origin_q, kOriginAttr);
  quiesce(sim);

  sim.fail_link(F1::u4, F1::u6);
  quiesce(sim);

  EXPECT_GT(obs::count(sim.metrics(), EventKind::kDeaggregate), 0u);
  // u4 no longer announces p itself...
  EXPECT_FALSE(sim.originates(F1::u4, bp("10")));
  // ...but announces the complement prefixes.
  EXPECT_TRUE(sim.originates(F1::u4, bp("10001")));
  EXPECT_TRUE(sim.originates(F1::u4, bp("1001")));
  EXPECT_TRUE(sim.originates(F1::u4, bp("101")));
  // u2 elects customer routes for all pieces and re-originates p (§3.8).
  EXPECT_TRUE(sim.originates(F1::u2, bp("10")));
  EXPECT_GT(obs::count(sim.metrics(), EventKind::kAggOriginate), 0u);

  // Packets to q and to the rest of p still arrive.
  for (NodeId u = 0; u < topo.node_count(); ++u) {
    EXPECT_EQ(sim.trace(u, bp("10000").first_address()).outcome,
              Simulator::Outcome::kDelivered)
        << "q from " << u;
    EXPECT_EQ(sim.trace(u, bp("101").first_address()).outcome,
              Simulator::Outcome::kDelivered)
        << "p-rest from " << u;
  }

  // Repairing the link re-aggregates: u4 announces p again, u2 stops.
  sim.restore_link(F1::u4, F1::u6);
  quiesce(sim);
  EXPECT_GT(obs::count(sim.metrics(), EventKind::kReaggregate), 0u);
  EXPECT_TRUE(sim.originates(F1::u4, bp("10")));
  EXPECT_FALSE(sim.originates(F1::u4, bp("101")));
  EXPECT_FALSE(sim.originates(F1::u2, bp("10")));
}

TEST(DragonEngine, RaDowngradeWhenMoreSpecificsTileTheRoot) {
  // §3.9 flavour: X originates p = 10, but both halves (100 and 101) are
  // originated elsewhere and reach X only as peer routes.  Since the
  // more-specifics tile p, rule RA is satisfied by *downgrading* the p
  // announcement to a peer route (exported only to customers) instead of
  // de-aggregating.
  //   topology: X peers with Z; Z is a provider of C; W is X's customer.
  enum : NodeId { X = 0, Z = 1, C = 2, W = 3 };
  topology::Topology topo(4);
  topo.add_peer_peer(X, Z);
  topo.add_provider_customer(Z, C);
  topo.add_provider_customer(X, W);

  GrPathAlgebra alg;
  Simulator sim(topo, alg, dragon_config());
  // The TE halves are in place before X brings up its block (as in §3.9:
  // u7's p0/p1 announcements exist when the providers make their RA
  // decision for p).
  sim.originate(bp("100"), C, kOriginAttr);
  sim.originate(bp("101"), C, kOriginAttr);
  quiesce(sim);
  sim.originate(bp("10"), X, kOriginAttr);
  quiesce(sim);

  EXPECT_GT(obs::count(sim.metrics(), EventKind::kDowngrade), 0u);
  EXPECT_EQ(obs::count(sim.metrics(), EventKind::kDeaggregate), 0u);
  // X still announces p, but with a peer attribute: W (customer) learns it,
  // the peer Z does not.
  EXPECT_TRUE(sim.originates(X, bp("10")));
  EXPECT_EQ(static_cast<GrClass>(
                GrPathAlgebra::class_of(sim.elected(W, bp("10")))),
            GrClass::kProvider);
  EXPECT_EQ(sim.elected(Z, bp("10")), algebra::kUnreachable);
  // Packets from W to either half still arrive at C.
  for (const char* s : {"100", "101"}) {
    const auto result = sim.trace(W, bp(s).first_address());
    EXPECT_EQ(result.outcome, Simulator::Outcome::kDelivered) << s;
    EXPECT_EQ(result.path.back(), C) << s;
  }
}

TEST(DragonEngine, Figure5AnycastAggregation) {
  // Both u3 and u4 originate the aggregate 10; u1 and u2 filter the PI
  // prefixes (§3.7, Fig. 5).
  const auto topo = testing::Figure5::topology();
  using F5 = testing::Figure5;
  GrPathAlgebra alg;
  Simulator sim(topo, alg, dragon_config());
  sim.originate(bp("100"), F5::t1, kOriginAttr);
  sim.originate(bp("1010"), F5::t2, kOriginAttr);
  sim.originate(bp("1011"), F5::t3, kOriginAttr);
  // Watch the aggregation root: u3 and u4 discover the tiling themselves.
  sim.watch_aggregate(bp("10"), kOriginAttr);
  quiesce(sim);

  EXPECT_TRUE(sim.originates(F5::u3, bp("10")));
  EXPECT_TRUE(sim.originates(F5::u4, bp("10")));
  EXPECT_TRUE(sim.filtered(F5::u1, bp("100")) ||
              sim.elected(F5::u1, bp("100")) == algebra::kUnreachable);
  EXPECT_TRUE(sim.filtered(F5::u2, bp("1011")) ||
              sim.elected(F5::u2, bp("1011")) == algebra::kUnreachable);
  // Packets still reach the PI owners.
  EXPECT_EQ(sim.trace(F5::u1, bp("1011").first_address()).outcome,
            Simulator::Outcome::kDelivered);
}

TEST(DragonEngine, Figure6TakeoverAndStop) {
  // u2 can aggregate 10; u1 initially could too but learns the customer
  // route from u2 and stands down (§3.7, Fig. 6).
  const auto topo = testing::Figure6::topology();
  using F6 = testing::Figure6;
  GrPathAlgebra alg;
  Simulator sim(topo, alg, dragon_config());
  sim.originate(bp("100"), F6::t1, kOriginAttr);
  sim.originate(bp("1010"), F6::t2, kOriginAttr);
  sim.originate(bp("1011"), F6::t3, kOriginAttr);
  sim.watch_aggregate(bp("10"), kOriginAttr);
  quiesce(sim);

  EXPECT_TRUE(sim.originates(F6::u2, bp("10")));
  EXPECT_FALSE(sim.originates(F6::u1, bp("10")));
  // u1 filters the PI prefixes against the aggregate it learns from u2.
  for (const char* s : {"100", "1010", "1011"}) {
    EXPECT_TRUE(sim.filtered(F6::u1, bp(s))) << s;
  }
  EXPECT_EQ(sim.trace(F6::u1, bp("1010").first_address()).outcome,
            Simulator::Outcome::kDelivered);
}

TEST(DragonEngine, FewerUpdatesThanBgpAcrossFailures) {
  // The headline of §5.3: across link failures that do not force
  // de-aggregation, DRAGON exchanges fewer routes than BGP — under DRAGON
  // only the root of a non-trivial prefix-tree has network-wide effects,
  // while BGP re-floods every prefix of the tree.  Summed over all single
  // link failures of a generated topology with a 5-prefix tree.
  topology::GeneratorParams params;
  params.tier1_count = 3;
  params.transit_count = 12;
  params.stub_count = 40;
  params.seed = 5;
  const auto gen = topology::generate_internet(params);
  GrPathAlgebra alg;

  // A prefix tree: a transit AS owns the root block and de-aggregates it
  // for traffic engineering (same-origin children, the dominant case in
  // the paper's dataset).
  const NodeId owner = static_cast<NodeId>(params.tier1_count + 1);
  const auto links = gen.graph.links();

  auto run = [&](bool dragon) {
    Simulator sim(gen.graph, alg, dragon ? dragon_config() : bgp_config());
    sim.originate(bp("10"), owner, kOriginAttr);
    for (const char* s : {"100", "101", "1000", "1011"}) {
      sim.originate(bp(s), owner, kOriginAttr);
    }
    quiesce(sim);
    const auto snap = sim.snapshot();
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < links.size(); i += 3) {  // sample every 3rd
      sim.restore(snap);
      sim.reset_stats();
      sim.fail_link(links[i].a, links[i].b);
      quiesce(sim);
      if (obs::count(sim.metrics(), EventKind::kDeaggregate) == 0) {
        total += obs::updates(sim.metrics());
      }
    }
    return total;
  };
  const auto bgp_total = run(false);
  const auto dragon_total = run(true);
  EXPECT_LT(dragon_total, bgp_total);
  EXPECT_GT(bgp_total, 0u);
}

/// FNV-1a over trace records in order and over per-node FIB sizes.  The
/// tracer is folded in and cleared after every bounded slice of events,
/// so its ring never wraps.
struct RunHash {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i, v >>= 8) {
      h = (h ^ (v & 0xFFu)) * 0x100000001b3ull;
    }
  }
  void fold(obs::EventTracer& tracer) {
    ASSERT_EQ(tracer.dropped(), 0u);
    tracer.for_each([this](const obs::TraceRecord& r) {
      mix(std::bit_cast<std::uint64_t>(r.sim_time));
      mix(static_cast<std::uint64_t>(r.kind));
      mix(r.node);
      mix(static_cast<std::uint64_t>(r.peer));
      mix(r.has_prefix ? (std::uint64_t{r.prefix.bits()} << 8) |
                             static_cast<std::uint64_t>(r.prefix.length())
                       : ~std::uint64_t{0});
      mix(r.has_attr ? r.attr : ~std::uint64_t{0});
    });
    tracer.clear();
  }
  void converge(Simulator& sim, obs::EventTracer& tracer) {
    std::size_t events = 0;
    for (;;) {
      const auto run = sim.run_bounded(1e7, 256);
      fold(tracer);
      events += run.events;
      if (run.quiescent) break;
      ASSERT_LT(events, 2'000'000u) << "no quiescence";
    }
    for (NodeId u = 0; u < sim.topology_used().node_count(); ++u) {
      mix(sim.fib_size(u));
    }
  }
};

TEST(DragonEngine, ReactionOrderPinnedWithReaggregation) {
  // Every election runs rule RA at the node's originations of a block
  // covering the prefix and §3.7 at every watched root covering it, in
  // the order of the origination records and the watches.  This pins the
  // resulting event sequence where that order has choices: whole
  // prefix-trees of a generated assignment originated with §3.7 on, so
  // origins hold several roots, children are both same-origin and
  // delegated, and watched roots nest.  Then an origination moves to the
  // end of the records (withdrawn and re-originated), an unassigned
  // covering block gains a watch, and a failure trial runs from a
  // snapshot taken before both edits.
  topology::GeneratorParams tparams;
  tparams.tier1_count = 4;
  tparams.transit_count = 40;
  tparams.stub_count = 200;
  tparams.seed = 5;
  const auto gen = topology::generate_internet(tparams);
  const auto& topo = gen.graph;
  addressing::AssignmentParams aparams;
  aparams.seed = 6;
  const auto asg = addressing::clean_assignment(
      topo, addressing::generate_assignment(gen, aparams));

  const prefix::PrefixForest forest(asg.prefixes);
  std::vector<std::size_t> chosen;
  for (const std::int32_t r : forest.non_trivial_roots()) {
    const auto members = forest.tree_members(r);
    if (members.size() < 3 || members.size() > 12) continue;
    chosen.insert(chosen.end(), members.begin(), members.end());
    if (chosen.size() >= 60) break;
  }
  ASSERT_GE(chosen.size(), 60u);
  // The first tree's root moves from the front of the records to the end.
  const std::size_t moved = chosen.front();
  ASSERT_FALSE(forest.children(moved).empty());
  // The unassigned block one bit above it gains a watch.
  const Prefix cover = asg.prefixes[moved].trie_parent();
  ASSERT_EQ(std::count(asg.prefixes.begin(), asg.prefixes.end(), cover), 0);
  // The trial fails the link from a delegated prefix's origin to the
  // origin of its parent and grandparent: rule RA then acts at two nested
  // records of one node, which also holds several roots.  Both ids stay
  // 0 when no chosen prefix qualifies.
  NodeId holder = 0;
  NodeId delegate = 0;
  for (const std::size_t i : chosen) {
    const std::int32_t parent = forest.parent(i);
    if (parent == prefix::PrefixForest::kNone ||
        forest.parent(parent) == prefix::PrefixForest::kNone) {
      continue;
    }
    const NodeId x = asg.origin[static_cast<std::size_t>(parent)];
    if (asg.origin[static_cast<std::size_t>(forest.parent(parent))] == x &&
        asg.origin[i] != x && topo.linked(x, asg.origin[i])) {
      holder = x;
      delegate = asg.origin[i];
      break;
    }
  }
  ASSERT_NE(holder, delegate);

  GrPathAlgebra alg;
  Config config = dragon_config();
  ASSERT_TRUE(config.enable_reaggregation);
  Simulator sim(topo, alg, config);
  obs::EventTracer tracer(1 << 16);
  sim.set_tracer(&tracer);
  RunHash hash;
  for (const std::size_t i : chosen) {
    sim.originate(asg.prefixes[i], asg.origin[i], kOriginAttr);
  }
  hash.converge(sim, tracer);
  const auto snap = sim.snapshot();

  sim.withdraw_origin(asg.prefixes[moved], asg.origin[moved]);
  hash.converge(sim, tracer);
  sim.originate(asg.prefixes[moved], asg.origin[moved], kOriginAttr);
  hash.converge(sim, tracer);
  sim.watch_aggregate(cover, kOriginAttr);
  hash.converge(sim, tracer);

  sim.restore(snap);
  sim.reset_stats();
  sim.fail_link(holder, delegate);
  hash.converge(sim, tracer);
  EXPECT_GT(obs::count(sim.metrics(), EventKind::kRaViolation), 0u);
  EXPECT_EQ(hash.h, 0x23650dea42308a0full);
}

TEST(DragonEngine, SelfOrganisedOriginationLivelockPinned) {
  // EXPERIMENTS.md deviation 4: §3.7 self-organised origination can keep
  // a network from ever quiescing.  ReactionOrderPinnedWithReaggregation's
  // procedure at generator seed 11 and assignment seed 12 converges
  // through bring-up and every edit, but its failure trial, of the link
  // 13-233 its rule picks, never quiesces (past 300k events) and the
  // classifier finds no period.  This pins the trial's first 50k events,
  // so a change to §3.7 that moves them must update the numbers on
  // purpose.  The trial also re-enters rule RA on a record whose
  // fragments an outer RA pass is walking (engine_smoke runs it under
  // ASan).
  topology::GeneratorParams tparams;
  tparams.tier1_count = 4;
  tparams.transit_count = 40;
  tparams.stub_count = 200;
  tparams.seed = 11;
  const auto gen = topology::generate_internet(tparams);
  addressing::AssignmentParams aparams;
  aparams.seed = 12;
  const auto asg = addressing::clean_assignment(
      gen.graph, addressing::generate_assignment(gen, aparams));
  const prefix::PrefixForest forest(asg.prefixes);
  std::vector<std::size_t> chosen;
  for (const std::int32_t r : forest.non_trivial_roots()) {
    const auto members = forest.tree_members(r);
    if (members.size() < 3 || members.size() > 12) continue;
    chosen.insert(chosen.end(), members.begin(), members.end());
    if (chosen.size() >= 60) break;
  }
  const std::size_t moved = chosen.front();

  GrPathAlgebra alg;
  Simulator sim(gen.graph, alg, dragon_config());
  const auto converge = [&sim] {
    const auto r = chaos::run_to_quiescence(sim, {1e7, 300'000});
    EXPECT_TRUE(r.quiescent) << r.diagnostics;
    return r.events;
  };
  for (const std::size_t i : chosen) {
    sim.originate(asg.prefixes[i], asg.origin[i], kOriginAttr);
  }
  EXPECT_EQ(converge(), 10'962u);
  const auto snap = sim.snapshot();
  sim.withdraw_origin(asg.prefixes[moved], asg.origin[moved]);
  EXPECT_EQ(converge(), 6'002u);
  sim.originate(asg.prefixes[moved], asg.origin[moved], kOriginAttr);
  EXPECT_EQ(converge(), 5'066u);
  sim.watch_aggregate(asg.prefixes[moved].trie_parent(), kOriginAttr);
  converge();

  sim.restore(snap);
  sim.reset_stats();
  sim.fail_link(13, 233);
  chaos::WatchdogLimits limits{1e7, 50'000};
  limits.classify = true;
  const auto trial = chaos::run_to_quiescence(sim, limits);
  EXPECT_FALSE(trial.quiescent);
  EXPECT_EQ(trial.classification, chaos::Quiescence::kLivelock);
  EXPECT_EQ(trial.period, 0u);
  const auto& m = sim.metrics();
  EXPECT_EQ(obs::count(m, EventKind::kRaViolation), 1'279u);
  EXPECT_EQ(obs::count(m, EventKind::kDeaggregate), 19u);
  EXPECT_EQ(obs::count(m, EventKind::kReaggregate), 18u);
  EXPECT_EQ(obs::count(m, EventKind::kAggOriginate), 97u);
}

// ---------------------------------------------------------------------------
// Observability wiring
// ---------------------------------------------------------------------------

// The engine counts and traces each event in one call, so over any window
// (here: since the last reset_stats() and tracer clear) every counted
// kind's registry counter equals its number of trace records, and the
// per-class update counters partition the update total.  The runs reuse
// the setups that fire every counted kind: rule RA de-aggregation, §3.7
// origination and re-aggregation (Figure 1), a §3.9 downgrade, crash and
// restart with and without graceful restart, and message loss,
// duplication and reordering.
TEST(Observability, EventCountersMatchTraceRecords) {
  std::set<EventKind> fired;
  obs::EventTracer tracer(1 << 16);
  const auto check_window = [&](Simulator& sim) {
    ASSERT_EQ(tracer.dropped(), 0u);
    std::array<std::uint64_t, obs::kEventKindCount> traced{};
    tracer.for_each([&](const obs::TraceRecord& r) {
      ++traced[static_cast<std::size_t>(r.kind)];
    });
    for (std::size_t k = 0; k < obs::kEventKindCount; ++k) {
      const auto kind = static_cast<EventKind>(k);
      if (obs::counter_name(kind).empty()) {
        EXPECT_THROW((void)obs::count(sim.metrics(), kind),
                     std::invalid_argument);
        continue;
      }
      EXPECT_EQ(obs::count(sim.metrics(), kind), traced[k])
          << obs::to_string(kind);
      if (traced[k] > 0) fired.insert(kind);
    }
    std::uint64_t class_total = 0;
    for (const char* c : {"stub", "transit", "tier1"}) {
      const std::string name = std::string("dragon.engine.updates.class.") + c;
      class_total += sim.metrics().find_counter(name)->value();
    }
    EXPECT_EQ(class_total, obs::updates(sim.metrics()));
    sim.reset_stats();
    tracer.clear();
  };

  {  // Figure 1: RA de-aggregation, §3.7 origination, re-aggregation.
    const auto topo = F1::topology();
    GrPathAlgebra alg;
    Simulator sim(topo, alg, dragon_config());
    sim.set_tracer(&tracer);
    sim.originate(bp("10"), F1::origin_p, kOriginAttr);
    sim.originate(bp("10000"), F1::origin_q, kOriginAttr);
    quiesce(sim);
    check_window(sim);
    EXPECT_EQ(obs::updates(sim.metrics()), 0u);
    sim.fail_link(F1::u4, F1::u6);
    quiesce(sim);
    sim.restore_link(F1::u4, F1::u6);
    quiesce(sim);
    check_window(sim);
  }
  {  // §3.9 downgrade (RaDowngradeWhenMoreSpecificsTileTheRoot).
    enum : NodeId { X = 0, Z = 1, C = 2, W = 3 };
    topology::Topology topo(4);
    topo.add_peer_peer(X, Z);
    topo.add_provider_customer(Z, C);
    topo.add_provider_customer(X, W);
    GrPathAlgebra alg;
    Simulator sim(topo, alg, dragon_config());
    sim.set_tracer(&tracer);
    sim.originate(bp("100"), C, kOriginAttr);
    sim.originate(bp("101"), C, kOriginAttr);
    quiesce(sim);
    sim.originate(bp("10"), X, kOriginAttr);
    quiesce(sim);
    check_window(sim);
  }
  for (const bool graceful_restart : {true, false}) {  // crash / restart
    using F2 = testing::Figure2;
    const auto topo = F2::topology();
    GrPathAlgebra alg;
    Config config = dragon_config();
    config.session.enabled = true;
    config.session.graceful_restart = graceful_restart;
    Simulator sim(topo, alg, config);
    sim.set_tracer(&tracer);
    sim.originate(bp("10"), F2::origin_p, kOriginAttr);
    sim.originate(bp("0"), F2::origin_q, kOriginAttr);
    quiesce(sim);
    sim.crash_node(F2::u3);
    quiesce(sim);
    sim.restart_node(F2::u3);
    quiesce(sim);
    check_window(sim);
  }
  {  // Message loss, duplication and reordering
     // (MessageFaultsStillConvergeToFaultFreeState), plus origin flaps
     // whose updates race delayed ones, so the sequence guard discards
     // stale deliveries.
    const auto topo = F1::topology();
    GrPathAlgebra alg;
    Config config = dragon_config();
    config.faults.loss = 0.2;
    config.faults.duplicate = 0.2;
    config.faults.delay_prob = 0.3;
    Simulator sim(topo, alg, config);
    sim.set_tracer(&tracer);
    sim.originate(bp("10"), F1::origin_p, kOriginAttr);
    sim.originate(bp("10000"), F1::origin_q, kOriginAttr);
    quiesce(sim);
    for (int flap = 0; flap < 4; ++flap) {
      sim.withdraw_origin(bp("10000"), F1::origin_q);
      (void)sim.run_bounded(sim.now() + 0.2, 1'000'000);
      sim.originate(bp("10000"), F1::origin_q, kOriginAttr);
      (void)sim.run_bounded(sim.now() + 0.2, 1'000'000);
    }
    quiesce(sim);
    check_window(sim);
  }

  for (std::size_t k = 0; k < obs::kEventKindCount; ++k) {
    const auto kind = static_cast<EventKind>(k);
    if (obs::counter_name(kind).empty()) continue;
    EXPECT_TRUE(fired.contains(kind)) << obs::to_string(kind) << " never fired";
  }
}

// The fib_entries gauge tracks the per-node fib_size() sum exactly, and
// survives reset_stats() (it is state, not an accumulator).
TEST(Observability, FibGaugeMatchesFibSizes) {
  const auto topo = F1::topology();
  GrPathAlgebra alg;
  Simulator sim(topo, alg, dragon_config());
  sim.originate(bp("10"), F1::origin_p, kOriginAttr);
  sim.originate(bp("10000"), F1::origin_q, kOriginAttr);
  quiesce(sim);

  const auto fib_sum = [&] {
    std::size_t sum = 0;
    for (NodeId u = 0; u < topo.node_count(); ++u) sum += sim.fib_size(u);
    return sum;
  };
  const auto* gauge = sim.metrics().find_gauge("dragon.engine.fib_entries");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(static_cast<std::size_t>(gauge->value()), fib_sum());

  sim.reset_stats();
  EXPECT_EQ(static_cast<std::size_t>(gauge->value()), fib_sum());

  sim.fail_link(F1::u4, F1::u6);
  quiesce(sim);
  EXPECT_EQ(static_cast<std::size_t>(gauge->value()), fib_sum());
}

// An attached tracer sees the convergence episode: sends, receipts,
// elections, FIB installs; record times are monotone overall (the engine
// emits in event order).
TEST(Observability, TracerCapturesConvergence) {
  const auto topo = F1::topology();
  GrPathAlgebra alg;
  Simulator sim(topo, alg, dragon_config());
  obs::EventTracer tracer(1 << 12);
  sim.set_tracer(&tracer);
  sim.originate(bp("10"), F1::origin_p, kOriginAttr);
  quiesce(sim);

  std::uint64_t announces = 0, installs = 0;
  double last_t = -1.0;
  bool monotone = true;
  tracer.for_each([&](const obs::TraceRecord& r) {
    if (r.kind == obs::EventKind::kAnnounce) ++announces;
    if (r.kind == obs::EventKind::kFibInstall) ++installs;
    if (r.sim_time < last_t) monotone = false;
    last_t = r.sim_time;
  });
  EXPECT_TRUE(monotone);
  EXPECT_EQ(announces, obs::count(sim.metrics(), EventKind::kAnnounce));
  // Everybody installs the one prefix.
  EXPECT_EQ(installs, topo.node_count());
}

// A timeline attached before convergence produces samples with monotone
// times and non-decreasing cumulative update counts, ending at the
// final FIB state.
TEST(Observability, TimelineSamplesConvergence) {
  const auto topo = F1::topology();
  GrPathAlgebra alg;
  Simulator sim(topo, alg, bgp_config());
  obs::Timeline timeline(0.005);  // half a link delay, so grid ticks fire
  sim.attach_timeline(&timeline);
  sim.originate(bp("10"), F1::origin_p, kOriginAttr);
  quiesce(sim);
  sim.attach_timeline(nullptr);

  const auto& samples = timeline.samples();
  ASSERT_GE(samples.size(), 2u);  // at least one grid tick + the final
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].t, samples[i - 1].t);
    EXPECT_GE(samples[i].updates, samples[i - 1].updates);
  }
  const auto& last = samples.back();
  EXPECT_EQ(last.updates, obs::updates(sim.metrics()));
  EXPECT_EQ(last.fib_entries, topo.node_count());  // one prefix, all install
  EXPECT_EQ(last.queue_depth, 0u);
}

}  // namespace
}  // namespace dragon::engine
