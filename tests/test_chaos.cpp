// Chaos subsystem tests: fault plans, the convergence watchdog, invariant
// checkers, the differential oracle, and the seeded schedule sweeps that
// back the robustness claims (DESIGN.md "Fault injection & invariants").
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

#include "addressing/assignment.hpp"
#include "algebra/gr_path_algebra.hpp"
#include "chaos/fault_plan.hpp"
#include "chaos/invariants.hpp"
#include "chaos/oracle.hpp"
#include "chaos/watchdog.hpp"
#include "engine/simulator.hpp"
#include "paper_networks.hpp"
#include "test_support.hpp"
#include "topology/generator.hpp"

namespace dragon::chaos {
namespace {

using algebra::GrClass;
using algebra::GrPathAlgebra;
using engine::Config;
using engine::Simulator;
using obs::EventKind;
using prefix::Prefix;
using topology::NodeId;
using dragon::testing::quiesce;
using F1 = dragon::testing::Figure1;
using F2 = dragon::testing::Figure2;

Prefix bp(const char* s) { return *Prefix::from_bit_string(s); }

Config bgp_config() {
  Config config;
  config.mrai = 0.5;
  config.link_delay = 0.01;
  config.enable_dragon = false;
  return config;
}

Config dragon_config() {
  Config config = bgp_config();
  config.enable_dragon = true;
  return config;
}

constexpr algebra::Attr kCust = GrPathAlgebra::make(GrClass::kCustomer, 0);

// ---------------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------------

TEST(FaultPlan, DeterministicInSeed) {
  const auto topo = F1::topology();
  const std::vector<OriginSpec> origins{{bp("10"), F1::origin_p, kCust},
                                        {bp("10000"), F1::origin_q, kCust}};
  PlanParams params;
  params.events = 6;
  params.origin_flap_prob = 0.3;
  params.node_fault_prob = 0.2;
  const FaultPlan a = generate_plan(topo, origins, params, 99);
  const FaultPlan b = generate_plan(topo, origins, params, 99);
  EXPECT_EQ(a.to_json(), b.to_json());
  const FaultPlan c = generate_plan(topo, origins, params, 100);
  EXPECT_NE(a.to_json(), c.to_json());
  // Non-decreasing timestamps.
  for (std::size_t i = 1; i < a.actions.size(); ++i) {
    EXPECT_LE(a.actions[i - 1].t, a.actions[i].t);
  }
}

TEST(FaultPlan, NetEffectsReplayTheSchedule) {
  FaultPlan plan;
  // Double fail, one restore -> alive; plus a permanent failure.
  plan.actions.push_back({1.0, FaultKind::kLinkFail, 0, 1, {}, 0, 0});
  plan.actions.push_back({2.0, FaultKind::kLinkFail, 1, 0, {}, 0, 0});
  plan.actions.push_back({3.0, FaultKind::kLinkRestore, 0, 1, {}, 0, 0});
  plan.actions.push_back({4.0, FaultKind::kLinkFail, 2, 3, {}, 0, 0});
  // Origin flap ending announced, another ending withdrawn.
  plan.actions.push_back({5.0, FaultKind::kOriginWithdraw, 0, 0, bp("10"), 7, 3});
  plan.actions.push_back({6.0, FaultKind::kOriginAnnounce, 0, 0, bp("10"), 7, 3});
  plan.actions.push_back({7.0, FaultKind::kOriginWithdraw, 0, 0, bp("11"), 8, 3});

  const auto down = plan.net_failed_links();
  ASSERT_EQ(down.size(), 1u);
  EXPECT_EQ(down[0], std::make_pair(NodeId{2}, NodeId{3}));

  const std::vector<OriginSpec> initial{{bp("10"), 7, 3}, {bp("11"), 8, 3}};
  const auto survivors = plan.surviving_origins(initial);
  ASSERT_EQ(survivors.size(), 1u);
  EXPECT_EQ(survivors[0].prefix, bp("10"));
  EXPECT_DOUBLE_EQ(plan.last_time(), 7.0);
}

TEST(FaultPlan, JsonRoundTripsEveryActionKind) {
  FaultPlan plan;
  plan.seed = 424242;
  plan.actions.push_back({1.25, FaultKind::kLinkFail, 0, 1, {}, 0, 0});
  plan.actions.push_back({2.5, FaultKind::kLinkRestore, 0, 1, {}, 0, 0});
  plan.actions.push_back({3.0625, FaultKind::kNodeCrash, 5, 0, {}, 0, 0});
  plan.actions.push_back({4.75, FaultKind::kNodeRestart, 5, 0, {}, 0, 0});
  plan.actions.push_back(
      {5.0, FaultKind::kOriginWithdraw, 0, 0, bp("10"), 7, 3});
  plan.actions.push_back(
      {6.5, FaultKind::kOriginAnnounce, 0, 0, bp("10000"), 8, 2});
  plan.actions.push_back({7.0, FaultKind::kRouteLeakStart, 2, 0, {}, 0, 0});
  plan.actions.push_back({8.0, FaultKind::kRouteLeakStop, 2, 0, {}, 0, 0});
  plan.actions.push_back(
      {9.0, FaultKind::kHijackAnnounce, 0, 0, bp("100"), 6, 1});
  plan.actions.push_back(
      {10.0, FaultKind::kHijackWithdraw, 0, 0, bp("100"), 6, 1});
  // Every enumerator is covered: the sentinel pins the count, and the
  // static_assert on the name table in fault_plan.cpp pins to_string.
  ASSERT_EQ(plan.actions.size(), static_cast<std::size_t>(FaultKind::kCount_));

  const std::string json = plan.to_json();
  const auto parsed = FaultPlan::from_json(json);
  ASSERT_TRUE(parsed.has_value()) << json;
  // Byte-exact round trip: a violation report's plan JSON replays the
  // original schedule, not an approximation of it.
  EXPECT_EQ(parsed->to_json(), json);
  EXPECT_EQ(parsed->seed, plan.seed);
  ASSERT_EQ(parsed->actions.size(), plan.actions.size());
  for (std::size_t i = 0; i < plan.actions.size(); ++i) {
    EXPECT_EQ(parsed->actions[i].kind, plan.actions[i].kind) << i;
  }
  EXPECT_EQ(parsed->actions[2].kind, FaultKind::kNodeCrash);
  EXPECT_EQ(parsed->actions[2].a, 5u);
  EXPECT_EQ(parsed->actions[4].prefix, bp("10"));
  EXPECT_EQ(parsed->actions[4].origin, 7u);
  EXPECT_EQ(parsed->actions[4].attr, 3u);
  EXPECT_EQ(parsed->actions[6].a, 2u);
  EXPECT_EQ(parsed->actions[8].prefix, bp("100"));
  EXPECT_EQ(parsed->actions[8].origin, 6u);
}

TEST(FaultPlan, FuzzedAdversarialPlansRoundTripAndReplayNetState) {
  const auto topo = F1::topology();
  const std::vector<OriginSpec> origins{{bp("10"), F1::origin_p, kCust},
                                        {bp("10000"), F1::origin_q, kCust}};
  PlanParams params;
  params.events = 10;
  params.origin_flap_prob = 0.2;
  params.node_fault_prob = 0.1;
  params.crash_prob = 0.2;
  params.leak_prob = 0.3;
  params.hijack_prob = 0.3;
  params.restore_prob = 0.5;
  bool saw_leak = false, saw_hijack = false;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const FaultPlan plan = generate_plan(topo, origins, params, seed);
    const auto parsed = FaultPlan::from_json(plan.to_json());
    ASSERT_TRUE(parsed.has_value()) << plan.to_json();
    EXPECT_EQ(parsed->to_json(), plan.to_json());
    // Net-state replays agree action for action: the leaker set and the
    // rogue origination table are derived, not stored.
    EXPECT_EQ(parsed->net_leaking_nodes(), plan.net_leaking_nodes());
    const auto rogues = plan.net_rogue_origins();
    const auto rogues2 = parsed->net_rogue_origins();
    ASSERT_EQ(rogues2.size(), rogues.size());
    for (std::size_t i = 0; i < rogues.size(); ++i) {
      EXPECT_EQ(rogues2[i].prefix, rogues[i].prefix);
      EXPECT_EQ(rogues2[i].origin, rogues[i].origin);
      EXPECT_EQ(rogues2[i].attr, rogues[i].attr);
    }
    for (const auto& act : plan.actions) {
      saw_leak |= act.kind == FaultKind::kRouteLeakStart;
      saw_hijack |= act.kind == FaultKind::kHijackAnnounce;
      if (act.kind == FaultKind::kHijackAnnounce) {
        // A hijack must target a covered more-specific of a real origin
        // from a node that is not its legitimate origin.
        bool covers = false;
        for (const auto& o : origins) {
          covers |= o.prefix.covers(act.prefix) && o.origin != act.origin;
        }
        EXPECT_TRUE(covers) << plan.to_json();
      }
    }
  }
  EXPECT_TRUE(saw_leak) << "leak_prob=0.3 never drew a leak in 30 plans";
  EXPECT_TRUE(saw_hijack) << "hijack_prob=0.3 never drew a hijack in 30 plans";
}

TEST(FaultPlan, ZeroAdversarialProbsLeavePlansBitIdentical) {
  // Like crash_prob: disabled leak/hijack branches must not consume
  // randomness, or every pre-existing seeded schedule would change.
  const auto topo = F1::topology();
  const std::vector<OriginSpec> origins{{bp("10"), F1::origin_p, kCust}};
  PlanParams with, without;
  with.events = without.events = 10;
  with.origin_flap_prob = without.origin_flap_prob = 0.3;
  with.node_fault_prob = without.node_fault_prob = 0.2;
  with.leak_prob = 0.0;
  with.hijack_prob = 0.0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    EXPECT_EQ(generate_plan(topo, origins, with, seed).to_json(),
              generate_plan(topo, origins, without, seed).to_json());
  }
}

TEST(FaultPlan, GeneratedCrashPlansRoundTripAndReplayNetState) {
  const auto topo = F1::topology();
  const std::vector<OriginSpec> origins{{bp("10"), F1::origin_p, kCust},
                                        {bp("10000"), F1::origin_q, kCust}};
  PlanParams params;
  params.events = 8;
  params.crash_prob = 0.6;
  params.restore_prob = 0.5;
  params.origin_flap_prob = 0.2;
  bool saw_crash = false;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const FaultPlan plan = generate_plan(topo, origins, params, seed);
    const auto parsed = FaultPlan::from_json(plan.to_json());
    ASSERT_TRUE(parsed.has_value()) << plan.to_json();
    EXPECT_EQ(parsed->to_json(), plan.to_json());
    EXPECT_EQ(parsed->net_down_nodes(), plan.net_down_nodes());
    for (const auto& act : plan.actions) {
      saw_crash |= act.kind == FaultKind::kNodeCrash;
    }
  }
  EXPECT_TRUE(saw_crash) << "crash_prob=0.6 never drew a crash in 20 plans";
}

TEST(FaultPlan, ZeroCrashProbLeavesPlansBitIdentical) {
  // The crash branch must not consume randomness when disabled, or every
  // pre-existing seeded schedule would silently change.
  const auto topo = F1::topology();
  const std::vector<OriginSpec> origins{{bp("10"), F1::origin_p, kCust}};
  PlanParams with, without;
  with.events = without.events = 10;
  with.origin_flap_prob = without.origin_flap_prob = 0.3;
  with.node_fault_prob = without.node_fault_prob = 0.2;
  with.crash_prob = 0.0;  // explicit zero == field left at default
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    EXPECT_EQ(generate_plan(topo, origins, with, seed).to_json(),
              generate_plan(topo, origins, without, seed).to_json());
  }
}

TEST(FaultPlan, FromJsonRejectsMalformedInput) {
  const char* bad[] = {
      "",
      "{",
      "[1,2]",
      "{\"seed\":1}",
      "{\"seed\":-1,\"actions\":[]}",
      "{\"seed\":1,\"actions\":}",
      "{\"seed\":1,\"actions\":[{\"t\":0}]}",
      "{\"seed\":1,\"actions\":[{\"t\":0,\"kind\":\"bogus\"}]}",
      "{\"seed\":1,\"actions\":[{\"t\":0,\"kind\":\"node_crash\"}]}",
      "{\"seed\":1,\"actions\":[{\"t\":0,\"kind\":\"link_fail\",\"a\":0}]}",
      "{\"seed\":1,\"actions\":[{\"t\":0,\"kind\":\"origin_withdraw\","
      "\"origin\":1,\"attr\":2,\"prefix\":\"1x\"}]}",
      "{\"seed\":1,\"actions\":[]}trailing",
      // Out of range: a seed past UINT64_MAX, a node id past UINT32_MAX,
      // and a time that overflows a double.
      "{\"seed\":18446744073709551616,\"actions\":[]}",
      "{\"seed\":1,\"actions\":[{\"t\":0,\"kind\":\"link_fail\","
      "\"a\":18446744073709551617,\"b\":2}]}",
      "{\"seed\":1,\"actions\":[{\"t\":0,\"kind\":\"link_fail\","
      "\"a\":4294967296,\"b\":2}]}",
      "{\"seed\":1,\"actions\":[{\"t\":1e999,\"kind\":\"node_crash\","
      "\"node\":1}]}",
  };
  for (const char* s : bad) {
    EXPECT_FALSE(FaultPlan::from_json(s).has_value()) << s;
  }
  // The happy path next to them, as a parser sanity anchor.
  EXPECT_TRUE(FaultPlan::from_json("{\"seed\":1,\"actions\":[]}").has_value());
  EXPECT_TRUE(FaultPlan::from_json(" { \"seed\" : 1 , \"actions\" : [ ] } ")
                  .has_value());
}

TEST(FaultPlan, NetDownNodesReplaysCrashesAndRestarts) {
  FaultPlan plan;
  plan.actions.push_back({1.0, FaultKind::kNodeCrash, 3, 0, {}, 0, 0});
  plan.actions.push_back({2.0, FaultKind::kNodeCrash, 1, 0, {}, 0, 0});
  plan.actions.push_back({3.0, FaultKind::kNodeRestart, 3, 0, {}, 0, 0});
  plan.actions.push_back({4.0, FaultKind::kNodeCrash, 5, 0, {}, 0, 0});
  const auto down = plan.net_down_nodes();
  ASSERT_EQ(down.size(), 2u);
  EXPECT_EQ(down[0], NodeId{1});
  EXPECT_EQ(down[1], NodeId{5});
}

// ---------------------------------------------------------------------------
// Session-reset semantics of fail_link / restore_link
// ---------------------------------------------------------------------------

TEST(SessionReset, WithdrawalsPropagateOnFailure) {
  const auto topo = F2::topology();
  GrPathAlgebra alg;
  Simulator sim(topo, alg, bgp_config());
  sim.originate(bp("10"), F2::origin_p, kCust);  // p at u3
  quiesce(sim);
  ASSERT_NE(sim.elected(F2::u1, bp("10")), algebra::kUnreachable);
  const auto withdrawn = obs::count(sim.metrics(), EventKind::kWithdraw);

  sim.fail_link(F2::u2, F2::u3);
  quiesce(sim);
  // Upstream of the cut loses the route (withdrawal propagated)...
  EXPECT_EQ(sim.elected(F2::u1, bp("10")), algebra::kUnreachable);
  EXPECT_EQ(sim.elected(F2::u2, bp("10")), algebra::kUnreachable);
  // ... downstream keeps it.
  EXPECT_NE(sim.elected(F2::u4, bp("10")), algebra::kUnreachable);
  EXPECT_GT(obs::count(sim.metrics(), EventKind::kWithdraw), withdrawn);
}

TEST(SessionReset, RestoreReadvertisesAndRecoversExactState) {
  const auto topo = F2::topology();
  GrPathAlgebra alg;
  Simulator sim(topo, alg, bgp_config());
  sim.originate(bp("10"), F2::origin_p, kCust);
  quiesce(sim);
  std::vector<algebra::Attr> want;
  for (NodeId u = 0; u < topo.node_count(); ++u) {
    want.push_back(sim.elected(u, bp("10")));
  }

  sim.fail_link(F2::u2, F2::u3);
  quiesce(sim);
  sim.restore_link(F2::u2, F2::u3);
  quiesce(sim);
  for (NodeId u = 0; u < topo.node_count(); ++u) {
    EXPECT_EQ(sim.elected(u, bp("10")), want[u]) << "node " << u;
  }
  EXPECT_TRUE(sim.failed_links().empty());
}

TEST(SessionReset, DoubleFailAndUnknownLinksAreNoOps) {
  const auto topo = F2::topology();
  GrPathAlgebra alg;
  Simulator sim(topo, alg, bgp_config());
  sim.originate(bp("10"), F2::origin_p, kCust);
  quiesce(sim);

  sim.fail_link(F2::u2, F2::u3);
  quiesce(sim);
  const auto announced = obs::count(sim.metrics(), EventKind::kAnnounce);
  const auto withdrawn = obs::count(sim.metrics(), EventKind::kWithdraw);

  sim.fail_link(F2::u2, F2::u3);   // double fail
  sim.fail_link(F2::u3, F2::u2);   // ... reversed endpoints
  sim.fail_link(F2::u1, F2::u3);   // not a link in the chain
  sim.fail_link(F2::u1, F2::u1);   // self loop
  sim.fail_link(F2::u1, 99);       // out of range
  sim.restore_link(F2::u1, F2::u4);  // not a link
  sim.restore_link(F2::u1, F2::u2);  // link exists but is not failed
  EXPECT_EQ(sim.queue_depth(), 0u) << "no-ops must not schedule events";
  EXPECT_EQ(obs::count(sim.metrics(), EventKind::kAnnounce), announced);
  EXPECT_EQ(obs::count(sim.metrics(), EventKind::kWithdraw), withdrawn);
  ASSERT_EQ(sim.failed_links().size(), 1u);

  // A restore of a never-failed bogus pair must not have opened a phantom
  // session: only the real failed link is down, and restoring it heals.
  sim.restore_link(F2::u2, F2::u3);
  quiesce(sim);
  EXPECT_TRUE(sim.failed_links().empty());
  EXPECT_NE(sim.elected(F2::u1, bp("10")), algebra::kUnreachable);
}

// ---------------------------------------------------------------------------
// Snapshot / restore hardening
// ---------------------------------------------------------------------------

TEST(SnapshotRestore, ThrowsLoudlyWithInFlightMessages) {
  const auto topo = F1::topology();
  GrPathAlgebra alg;
  Simulator sim(topo, alg, bgp_config());
  sim.originate(bp("10"), F1::origin_p, kCust);
  ASSERT_GT(sim.queue_depth(), 0u);
  EXPECT_THROW((void)sim.snapshot(), std::logic_error);

  quiesce(sim);
  const auto snap = sim.snapshot();  // fine at quiescence
  sim.fail_link(F1::u2, F1::u4);     // queues withdrawals
  ASSERT_GT(sim.queue_depth(), 0u);
  EXPECT_THROW(sim.restore(snap), std::logic_error);
  quiesce(sim);
  sim.restore(snap);  // fine again
  EXPECT_TRUE(sim.failed_links().empty());
}

TEST(SnapshotRestore, ThrowsOnSnapshotOfAnotherTopology) {
  // A snapshot's node vector has its topology's size and degrees; restored
  // elsewhere it would resize the node vector or index io out of range.
  const auto fig1 = F1::topology();
  const auto fig2 = F2::topology();
  GrPathAlgebra alg;
  Simulator on_fig1(fig1, alg, bgp_config());
  Simulator on_fig2(fig2, alg, bgp_config());
  on_fig1.originate(bp("10"), F1::origin_p, kCust);
  on_fig2.originate(bp("10"), F2::origin_p, kCust);
  quiesce(on_fig1);
  quiesce(on_fig2);
  const auto snap1 = on_fig1.snapshot();
  const auto links2 = on_fig2.forwarding_links();
  EXPECT_THROW(on_fig2.restore(snap1), std::invalid_argument);
  // The refused restore left the simulator as it was, and usable.
  EXPECT_EQ(on_fig2.forwarding_links(), links2);
  on_fig2.restore(on_fig2.snapshot());
  EXPECT_EQ(on_fig2.forwarding_links(), links2);

  // The check is identity: a copy of the same graph is another topology.
  const auto fig1_copy = F1::topology();
  Simulator on_copy(fig1_copy, alg, bgp_config());
  EXPECT_THROW(on_copy.restore(snap1), std::invalid_argument);

  // Another simulator on the same topology object restores it.  It
  // originated the same prefix first, so its interned ids agree.
  Simulator twin(fig1, alg, bgp_config());
  twin.originate(bp("10"), F1::origin_p, kCust);
  quiesce(twin);
  twin.fail_link(F1::u2, F1::u4);
  quiesce(twin);
  twin.restore(snap1);
  EXPECT_TRUE(twin.failed_links().empty());
  EXPECT_EQ(twin.forwarding_links(), on_fig1.forwarding_links());
}

TEST(SnapshotRestore, ThrowsOnSnapshotOfAnotherInterner) {
  // Node state holds PrefixIds, which name prefixes only through the
  // simulator's interner.  Restored into an interner with other prefixes
  // at those ids, or fewer of them, they would name other prefixes or
  // index past its end.
  const auto topo = F1::topology();
  GrPathAlgebra alg;
  Simulator sim(topo, alg, dragon_config());
  sim.originate(bp("10"), F1::origin_p, kCust);
  sim.originate(bp("10000"), F1::origin_q, kCust);
  quiesce(sim);
  const auto snap = sim.snapshot();

  // A twin on the same topology that originated a different prefix first
  // holds the same prefixes under swapped ids.
  Simulator swapped(topo, alg, dragon_config());
  swapped.originate(bp("10000"), F1::origin_q, kCust);
  swapped.originate(bp("10"), F1::origin_p, kCust);
  quiesce(swapped);
  const auto links = swapped.forwarding_links();
  EXPECT_THROW(swapped.restore(snap), std::invalid_argument);
  // The refused restore left the simulator as it was, and usable.
  EXPECT_EQ(swapped.forwarding_links(), links);
  swapped.restore(swapped.snapshot());
  EXPECT_EQ(swapped.forwarding_links(), links);

  // A twin that interned fewer prefixes.
  Simulator fewer(topo, alg, dragon_config());
  fewer.originate(bp("10"), F1::origin_p, kCust);
  quiesce(fewer);
  EXPECT_THROW(fewer.restore(snap), std::invalid_argument);

  // A trial that de-aggregates interns fragments after the snapshot: the
  // interner holds more prefixes, the snapshot's at their ids, and the
  // restore goes through.
  const auto before = sim.forwarding_links();
  sim.fail_link(F1::u4, F1::u6);
  quiesce(sim);
  ASSERT_GT(obs::count(sim.metrics(), EventKind::kDeaggregate), 0u);
  ASSERT_TRUE(sim.originates(F1::u4, bp("101")));
  sim.restore(snap);
  EXPECT_TRUE(sim.failed_links().empty());
  EXPECT_TRUE(sim.originates(F1::u4, bp("10")));
  EXPECT_FALSE(sim.originates(F1::u4, bp("101")));
  EXPECT_EQ(sim.forwarding_links(), before);
}

TEST(SnapshotRestore, RestoreThenFailLinkTrialsReplayExactly) {
  // Regression for repeated failure trials under message faults: restore
  // must rewind the fault RNG stream and sequence counter too, or the
  // second trial sees different loss/duplication draws.
  const auto topo = F1::topology();
  GrPathAlgebra alg;
  Config config = dragon_config();
  config.faults.loss = 0.25;
  config.faults.duplicate = 0.2;
  config.faults.delay_prob = 0.3;
  Simulator sim(topo, alg, config);
  sim.originate(bp("10"), F1::origin_p, kCust);
  sim.originate(bp("10000"), F1::origin_q, kCust);
  quiesce(sim);
  const auto snap = sim.snapshot();

  const auto run_trial = [&] {
    sim.restore(snap);
    sim.reset_stats();
    sim.fail_link(F1::u4, F1::u6);
    quiesce(sim);
    std::vector<std::uint32_t> state{
        static_cast<std::uint32_t>(
            obs::count(sim.metrics(), EventKind::kAnnounce)),
        static_cast<std::uint32_t>(
            obs::count(sim.metrics(), EventKind::kWithdraw))};
    for (NodeId u = 0; u < topo.node_count(); ++u) {
      state.push_back(sim.elected(u, bp("10")));
      state.push_back(sim.elected(u, bp("10000")));
      state.push_back(sim.filtered(u, bp("10000")) ? 1u : 0u);
    }
    sim.restore_link(F1::u4, F1::u6);
    quiesce(sim);
    return state;
  };
  const auto first = run_trial();
  const auto second = run_trial();
  EXPECT_EQ(first, second);
  EXPECT_GT(obs::count(sim.metrics(), EventKind::kMsgLost), 0u);
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

// A copyable self-rescheduling event: the queue never drains.
struct Wedge {
  Simulator* sim;
  void operator()() const {
    sim->inject(sim->now() + 1.0, Wedge{sim});
  }
};

TEST(Watchdog, EventBudgetTripsOnWedgedRun) {
  const auto topo = F2::topology();
  GrPathAlgebra alg;
  Simulator sim(topo, alg, bgp_config());
  sim.inject(0.0, Wedge{&sim});
  const auto r = run_to_quiescence(sim, {1e9, 500});
  EXPECT_FALSE(r.quiescent);
  EXPECT_EQ(r.events, 500u);
  EXPECT_NE(r.diagnostics.find("watchdog"), std::string::npos);
  EXPECT_NE(r.diagnostics.find("queue_depth"), std::string::npos);
}

TEST(Watchdog, ClassifyModeAnnotatesBudgetTripWithTraceTail) {
  // An event-budget trip in classify mode must say *what kind* of stall
  // it saw and end with the tracer's last records — the diagnostics are
  // the only artefact a failed CI run leaves behind.
  const auto topo = F2::topology();
  GrPathAlgebra alg;
  Config config = bgp_config();
  config.faults.loss = 1.0;  // every update dropped, retransmitted forever
  Simulator sim(topo, alg, config);
  obs::EventTracer tracer(256);
  sim.set_tracer(&tracer);
  sim.originate(bp("10"), F2::origin_p, kCust);
  WatchdogLimits limits{50.0, 5'000};
  limits.classify = true;
  limits.sample_every_events = 7;
  const auto r = run_to_quiescence(sim, limits, &tracer);
  EXPECT_FALSE(r.quiescent);
  EXPECT_GT(r.samples, 0u);
  EXPECT_NE(r.classification, Quiescence::kConverged);
  EXPECT_NE(r.diagnostics.find("classification="), std::string::npos)
      << r.diagnostics;
  EXPECT_NE(r.diagnostics.find("trace tail"), std::string::npos)
      << r.diagnostics;
  sim.set_tracer(nullptr);
}

TEST(Watchdog, HorizonBudgetTripsOnWedgedRun) {
  const auto topo = F2::topology();
  GrPathAlgebra alg;
  Simulator sim(topo, alg, bgp_config());
  sim.inject(0.0, Wedge{&sim});
  const auto r = run_to_quiescence(sim, {100.0, 1'000'000});
  EXPECT_FALSE(r.quiescent);
  EXPECT_LE(sim.now(), 101.0);
  EXPECT_FALSE(r.diagnostics.empty());
}

TEST(Watchdog, TotalMessageLossNeverConvergesButFailsLoudly) {
  const auto topo = F2::topology();
  GrPathAlgebra alg;
  Config config = bgp_config();
  config.faults.loss = 1.0;  // every update dropped, retransmitted forever
  Simulator sim(topo, alg, config);
  obs::EventTracer tracer(256);
  sim.set_tracer(&tracer);
  sim.originate(bp("10"), F2::origin_p, kCust);
  const auto r = run_to_quiescence(sim, {50.0, 5'000}, &tracer);
  EXPECT_FALSE(r.quiescent);
  EXPECT_NE(r.diagnostics.find("msgs_lost"), std::string::npos);
  EXPECT_NE(r.diagnostics.find("trace tail"), std::string::npos);
  EXPECT_EQ(sim.elected(F2::u1, bp("10")), algebra::kUnreachable);
  sim.set_tracer(nullptr);
}

TEST(Watchdog, QuiescentRunReportsCleanResult) {
  const auto topo = F2::topology();
  GrPathAlgebra alg;
  Simulator sim(topo, alg, bgp_config());
  sim.originate(bp("10"), F2::origin_p, kCust);
  const auto r = run_to_quiescence(sim);
  EXPECT_TRUE(r.quiescent);
  EXPECT_GT(r.events, 0u);
  EXPECT_TRUE(r.diagnostics.empty());
}

// ---------------------------------------------------------------------------
// Invariants
// ---------------------------------------------------------------------------

TEST(Invariants, CleanOnConvergedPaperNetworks) {
  for (const bool dragon : {false, true}) {
    const auto topo = F1::topology();
    GrPathAlgebra alg;
    Simulator sim(topo, alg, dragon ? dragon_config() : bgp_config());
    sim.originate(bp("10"), F1::origin_p, kCust);
    sim.originate(bp("10000"), F1::origin_q, kCust);
    quiesce(sim);
    const auto report = check_invariants(sim);
    EXPECT_TRUE(report.ok()) << report.to_string();
    EXPECT_GT(report.checks_run, 0u);
  }
}

TEST(Invariants, DetectTransientForwardingAnomalyMidConvergence) {
  const auto topo = F2::topology();
  GrPathAlgebra alg;
  Simulator sim(topo, alg, bgp_config());
  sim.originate(bp("10"), F2::origin_p, kCust);
  quiesce(sim);
  // Cut the chain: u2 loses its customer route synchronously and falls
  // back to the stale provider route through u1, whose withdrawal is
  // still in flight — traffic from u1 loops u1 -> u2 -> u1 (or, absent
  // the fallback, drops into a black hole) until the queue drains.
  sim.fail_link(F2::u2, F2::u3);
  const auto report = check_invariants(sim);
  ASSERT_FALSE(report.ok());
  bool saw_forwarding_anomaly = false;
  for (const auto& v : report.violations) {
    if (v.check == "loop" || v.check == "black_hole") {
      saw_forwarding_anomaly = true;
    }
  }
  EXPECT_TRUE(saw_forwarding_anomaly) << report.to_string();
  quiesce(sim);
  EXPECT_TRUE(check_invariants(sim).ok());
}

// ---------------------------------------------------------------------------
// Differential oracle
// ---------------------------------------------------------------------------

TEST(Oracle, MatchesAfterFailureAndHeal) {
  const auto topo = F1::topology();
  GrPathAlgebra alg;
  Simulator sim(topo, alg, dragon_config());
  sim.originate(bp("10"), F1::origin_p, kCust);
  sim.originate(bp("10000"), F1::origin_q, kCust);
  quiesce(sim);
  sim.fail_link(F1::u4, F1::u6);
  quiesce(sim);
  const auto r = differential_check(sim);
  EXPECT_TRUE(r.match) << r.to_string();
  EXPECT_TRUE(r.reference_quiescent);
}

TEST(Oracle, DetectsMidConvergenceDivergence) {
  const auto topo = F1::topology();
  GrPathAlgebra alg;
  Simulator sim(topo, alg, bgp_config());
  sim.originate(bp("10"), F1::origin_p, kCust);
  (void)sim.run_bounded(1e9, 2);  // barely started: state is partial
  const auto r = differential_check(sim);
  EXPECT_FALSE(r.match);
  EXPECT_FALSE(r.mismatches.empty());
}

// ---------------------------------------------------------------------------
// Chaos smoke (the `chaos_smoke` ctest entry; also the asan preset filter)
// ---------------------------------------------------------------------------

TEST(ChaosSmoke, Figure2ShortScheduleInvariantSweep) {
  const auto topo = F2::topology();
  const std::vector<OriginSpec> origins{{bp("1"), F2::origin_q, kCust},
                                        {bp("10"), F2::origin_p, kCust}};
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    GrPathAlgebra alg;
    Simulator sim(topo, alg, dragon_config());
    for (const auto& o : origins) sim.originate(o.prefix, o.origin, o.attr);
    quiesce(sim);

    PlanParams params;
    params.start = sim.now();  // actions interleave with live convergence
    params.events = 4;
    params.horizon = 20.0;
    params.restore_prob = 0.6;
    params.origin_flap_prob = 0.25;
    const FaultPlan plan = generate_plan(topo, origins, params, seed);
    schedule_plan(sim, plan);
    const auto run = run_to_quiescence(sim, {1e6, 2'000'000});
    ASSERT_TRUE(run.quiescent)
        << "seed=" << seed << "\n" << run.diagnostics << plan.to_json();

    const auto report = check_invariants(sim);
    EXPECT_TRUE(report.ok())
        << "seed=" << seed << "\n" << report.to_string() << plan.to_json();
    const auto oracle = differential_check(sim);
    EXPECT_TRUE(oracle.match)
        << "seed=" << seed << "\n" << oracle.to_string() << plan.to_json();
  }
}

TEST(ChaosSmoke, MessageFaultsStillConvergeToFaultFreeState) {
  const auto topo = F1::topology();
  GrPathAlgebra alg;
  Config config = dragon_config();
  config.faults.loss = 0.2;
  config.faults.duplicate = 0.2;
  config.faults.delay_prob = 0.3;
  Simulator sim(topo, alg, config);
  sim.originate(bp("10"), F1::origin_p, kCust);
  sim.originate(bp("10000"), F1::origin_q, kCust);
  const auto run = run_to_quiescence(sim, {1e6, 2'000'000});
  ASSERT_TRUE(run.quiescent) << run.diagnostics;
  EXPECT_GT(obs::count(sim.metrics(), EventKind::kMsgLost), 0u);

  const auto report = check_invariants(sim);
  EXPECT_TRUE(report.ok()) << report.to_string();
  // The oracle's reference is fault-free: lossy convergence must land on
  // the identical stable state.
  const auto oracle = differential_check(sim);
  EXPECT_TRUE(oracle.match) << oracle.to_string();
}

TEST(ChaosSmoke, ReorderedUpdatesHitTheSequenceGuard) {
  // MRAI spaces one peer's updates for a prefix at least 0.375 s apart
  // here, so only an extra delay longer than that reorders them.  Path
  // exploration under GrPathVectorAlgebra sends several updates per
  // prefix and peer; with no origin flaps, the sequence guard in
  // deliver() alone keeps each (neighbour, prefix) stream in order.
  topology::GeneratorParams tparams;
  tparams.tier1_count = 3;
  tparams.transit_count = 20;
  tparams.stub_count = 127;
  tparams.seed = 21;
  const auto gen = topology::generate_internet(tparams);
  addressing::AssignmentParams aparams;
  aparams.seed = 22;
  const auto asg = addressing::clean_assignment(
      gen.graph, addressing::generate_assignment(gen, aparams));
  ASSERT_GE(asg.size(), 30u);

  algebra::GrPathVectorAlgebra alg;
  Config config = bgp_config();
  config.enable_dragon = true;
  config.enable_reaggregation = false;  // the §5.3 setting at this scale
  config.faults.delay_prob = 0.3;
  config.faults.extra_delay = 2.0;
  ASSERT_GT(config.faults.extra_delay, config.mrai);
  Simulator sim(gen.graph, alg, config);
  for (std::size_t i = 0; i < 30; ++i) {
    sim.originate(asg.prefixes[i], asg.origin[i],
                  algebra::GrPathVectorAlgebra::make(GrClass::kCustomer, 0));
  }
  const auto run = run_to_quiescence(sim, {1e6, 2'000'000});
  ASSERT_TRUE(run.quiescent) << run.diagnostics;
  EXPECT_GT(obs::count(sim.metrics(), EventKind::kMsgStale), 0u);

  const auto report = check_invariants(sim);
  EXPECT_TRUE(report.ok()) << report.to_string();
  const auto oracle = differential_check(sim);
  EXPECT_TRUE(oracle.match) << oracle.to_string();
}

TEST(ChaosSmoke, WatchdogGuardsTheSweep) {
  // The watchdog path stays exercised inside the smoke filter too.
  const auto topo = F2::topology();
  GrPathAlgebra alg;
  Simulator sim(topo, alg, bgp_config());
  sim.inject(0.0, Wedge{&sim});
  EXPECT_FALSE(run_to_quiescence(sim, {1e9, 200}).quiescent);
}

// ---------------------------------------------------------------------------
// Oracle sweeps (acceptance: >= 200 seeded schedules overall)
// ---------------------------------------------------------------------------

struct SweepCase {
  const char* name;
  topology::Topology topo;
  std::vector<OriginSpec> origins;
};

void run_sweep(const SweepCase& sc, std::uint64_t seed_base, int schedules,
               const PlanParams& params, bool reaggregation) {
  for (int i = 0; i < schedules; ++i) {
    const std::uint64_t seed = seed_base + static_cast<std::uint64_t>(i);
    GrPathAlgebra alg;
    Config config = dragon_config();
    config.enable_reaggregation = reaggregation;
    config.seed = seed;
    if (seed % 2 == 1) {  // alternate schedules add message-level faults
      config.faults.loss = 0.15;
      config.faults.duplicate = 0.1;
      config.faults.delay_prob = 0.25;
    }
    Simulator sim(sc.topo, alg, config);
    for (const auto& o : sc.origins) sim.originate(o.prefix, o.origin, o.attr);
    auto run = run_to_quiescence(sim, {1e6, 5'000'000});
    ASSERT_TRUE(run.quiescent)
        << sc.name << " seed=" << seed << "\n" << run.diagnostics;

    PlanParams p = params;
    p.start = sim.now();  // fault window opens at the converged state
    const FaultPlan plan = generate_plan(sc.topo, sc.origins, p, seed);
    schedule_plan(sim, plan);
    run = run_to_quiescence(sim, {1e6, 5'000'000});
    ASSERT_TRUE(run.quiescent) << sc.name << " seed=" << seed << "\n"
                               << run.diagnostics << plan.to_json();

    InvariantOptions iopts;
    iopts.max_sources = 64;
    const auto report = check_invariants(sim, iopts);
    ASSERT_TRUE(report.ok()) << sc.name << " seed=" << seed << "\n"
                             << report.to_string() << plan.to_json();
    const auto oracle = differential_check(sim);
    ASSERT_TRUE(oracle.match) << sc.name << " seed=" << seed << "\n"
                              << oracle.to_string() << plan.to_json();
  }
}

TEST(OracleSweep, Figure1Schedules) {
  SweepCase sc{"fig1",
               F1::topology(),
               {{bp("10"), F1::origin_p, kCust},
                {bp("10000"), F1::origin_q, kCust}}};
  PlanParams params;
  params.events = 5;
  params.horizon = 40.0;
  params.restore_prob = 0.6;
  params.origin_flap_prob = 0.25;
  params.node_fault_prob = 0.2;
  run_sweep(sc, 1000, 70, params, /*reaggregation=*/true);
}

TEST(OracleSweep, Figure2Schedules) {
  SweepCase sc{"fig2",
               F2::topology(),
               {{bp("1"), F2::origin_q, kCust},
                {bp("10"), F2::origin_p, kCust}}};
  PlanParams params;
  params.events = 5;
  params.horizon = 40.0;
  params.restore_prob = 0.6;
  params.origin_flap_prob = 0.25;
  params.node_fault_prob = 0.2;
  run_sweep(sc, 2000, 70, params, /*reaggregation=*/true);
}

TEST(OracleSweep, GeneratedThousandNodeBursts) {
  // A ~1k-node synthetic Internet with correlated failure bursts and
  // whole-node outages.  §3.7 self-organised re-aggregation stays off at
  // this scale, matching the paper's §5.3 simplification.
  topology::GeneratorParams tparams;
  tparams.tier1_count = 8;
  tparams.transit_count = 95;
  tparams.stub_count = 900;
  tparams.seed = 42;
  auto generated = topology::generate_internet(tparams);
  ASSERT_GE(generated.graph.node_count(), 1000u);

  addressing::AssignmentParams aparams;
  aparams.seed = 43;
  const auto assignment =
      addressing::clean_assignment(generated.graph,
                                   addressing::generate_assignment(generated, aparams));
  SweepCase sc{"gen1k", std::move(generated.graph), {}};
  std::set<Prefix> used;
  for (std::size_t i = 0;
       i < assignment.size() && sc.origins.size() < 10; ++i) {
    if (used.insert(assignment.prefixes[i]).second) {
      sc.origins.push_back(
          {assignment.prefixes[i], assignment.origin[i], kCust});
    }
  }
  ASSERT_EQ(sc.origins.size(), 10u);

  PlanParams params;
  params.events = 3;
  params.horizon = 30.0;
  params.burst = 3;
  params.restore_prob = 0.5;
  params.node_fault_prob = 0.25;
  run_sweep(sc, 5000, 64, params, /*reaggregation=*/false);
}

}  // namespace
}  // namespace dragon::chaos
