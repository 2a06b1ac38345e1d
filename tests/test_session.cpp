// Peering-session lifecycle and crash-recovery tests (DESIGN.md §9):
// hold-timer detection, graceful restart with stale-route retention,
// End-of-RIB re-sync, the crash/restart chaos schedules, and the
// snapshot/timer interaction audit.
//
// The `SessionSmoke` suite is the tier-1 `session_smoke` ctest entry (and
// the asan/tsan preset filter); `SessionSweep` carries the 100+-seed
// crash-schedule acceptance sweep with the thread-invariance cross-check.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "algebra/gr_path_algebra.hpp"
#include "chaos/fault_plan.hpp"
#include "chaos/invariants.hpp"
#include "chaos/oracle.hpp"
#include "chaos/sweep.hpp"
#include "chaos/watchdog.hpp"
#include "engine/event_queue.hpp"
#include "engine/simulator.hpp"
#include "exec/thread_pool.hpp"
#include "paper_networks.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace dragon::engine {
namespace {

using algebra::GrClass;
using algebra::GrPathAlgebra;
using obs::EventKind;
using prefix::Prefix;
using topology::NodeId;
using dragon::testing::quiesce;
using F1 = dragon::testing::Figure1;
using F2 = dragon::testing::Figure2;

Prefix bp(const char* s) { return *Prefix::from_bit_string(s); }

constexpr algebra::Attr kCust = GrPathAlgebra::make(GrClass::kCustomer, 0);

/// DRAGON engine with the session layer on and timers compressed so the
/// whole crash/detect/recover arc fits in a few sim seconds.
Config session_config(bool graceful_restart) {
  Config config;
  config.mrai = 0.5;
  config.link_delay = 0.01;
  config.enable_dragon = true;
  config.session.enabled = true;
  config.session.graceful_restart = graceful_restart;
  config.session.hold_time = 3.0;
  config.session.keepalive = 1.0;
  config.session.restart_window = 10.0;
  config.session.reestablish_delay = 1.0;
  return config;
}

std::uint64_t counter(const Simulator& sim, const char* name) {
  const auto* c = sim.metrics().find_counter(name);
  return c != nullptr ? c->value() : 0;
}

std::vector<algebra::Attr> elected_all(const Simulator& sim,
                                       const topology::Topology& topo,
                                       const Prefix& p) {
  std::vector<algebra::Attr> out;
  for (NodeId u = 0; u < topo.node_count(); ++u) {
    out.push_back(sim.elected(u, p));
  }
  return out;
}

std::size_t total_stale(const Simulator& sim,
                        const topology::Topology& topo) {
  std::size_t total = 0;
  for (NodeId u = 0; u < topo.node_count(); ++u) {
    for (const auto& nb : topo.neighbors(u)) {
      total += sim.stale_route_count(u, nb.id);
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// SessionSmoke — the tier-1 session_smoke filter
// ---------------------------------------------------------------------------

TEST(SessionSmoke, CrashWithoutGrFlushesOnHoldExpiryAndRecovers) {
  const auto topo = F2::topology();
  GrPathAlgebra alg;
  Simulator sim(topo, alg, session_config(/*graceful_restart=*/false));
  // Disjoint prefixes: a covering q would make p a delegated prefix of q,
  // and losing p to the crash would (correctly) de-aggregate q at u1 —
  // rule-RA coupling the GR tests cover separately.
  sim.originate(bp("10"), F2::origin_p, kCust);  // p at u3
  sim.originate(bp("0"), F2::origin_q, kCust);   // q at u1
  quiesce(sim);
  const auto want_p = elected_all(sim, topo, bp("10"));
  const auto want_q = elected_all(sim, topo, bp("0"));

  sim.crash_node(F2::u3);
  // Without graceful restart the crashed node's forwarding plane dies
  // with its control plane, immediately.
  EXPECT_EQ(sim.fib_size(F2::u3), 0u);
  EXPECT_FALSE(sim.node_up(F2::u3));
  ASSERT_EQ(sim.down_nodes(), std::vector<NodeId>{F2::u3});

  quiesce(sim);  // peers' hold timers fire at +hold_time and flush
  EXPECT_EQ(sim.elected(F2::u1, bp("10")), algebra::kUnreachable);
  EXPECT_EQ(sim.elected(F2::u2, bp("10")), algebra::kUnreachable);
  EXPECT_EQ(sim.elected(F2::u4, bp("10")), algebra::kUnreachable);
  EXPECT_EQ(sim.elected(F2::u4, bp("0")), algebra::kUnreachable);
  // q's origin side of the cut is untouched.
  EXPECT_NE(sim.elected(F2::u2, bp("0")), algebra::kUnreachable);
  EXPECT_EQ(sim.session_state(F2::u2, F2::u3), SessionState::kDown);
  EXPECT_EQ(sim.session_state(F2::u3, F2::u2), SessionState::kDown);
  EXPECT_EQ(total_stale(sim, topo), 0u) << "no retention without GR";
  EXPECT_GE(obs::count(sim.metrics(), EventKind::kHoldExpire), 2u);
  const auto report = chaos::check_invariants(sim);
  EXPECT_TRUE(report.ok()) << report.to_string();
  const auto oracle = chaos::differential_check(sim);
  EXPECT_TRUE(oracle.match) << oracle.to_string();

  sim.restart_node(F2::u3);
  quiesce(sim);
  EXPECT_TRUE(sim.down_nodes().empty());
  EXPECT_FALSE(sim.restart_deferred(F2::u3));
  EXPECT_EQ(elected_all(sim, topo, bp("10")), want_p);
  EXPECT_EQ(elected_all(sim, topo, bp("0")), want_q);
  EXPECT_EQ(obs::count(sim.metrics(), EventKind::kEorSend),
            obs::count(sim.metrics(), EventKind::kEorRecv));
  const auto after = chaos::check_invariants(sim);
  EXPECT_TRUE(after.ok()) << after.to_string();
  EXPECT_TRUE(chaos::differential_check(sim).match);
}

TEST(SessionSmoke, GracefulRestartRetainsStaleAndKeepsForwarding) {
  const auto topo = F2::topology();
  GrPathAlgebra alg;
  Simulator sim(topo, alg, session_config(/*graceful_restart=*/true));
  sim.originate(bp("10"), F2::origin_p, kCust);
  sim.originate(bp("1"), F2::origin_q, kCust);
  quiesce(sim);
  const auto want_p = elected_all(sim, topo, bp("10"));
  const auto want_q = elected_all(sim, topo, bp("1"));
  ASSERT_EQ(sim.trace(F2::u1, bp("10").first_address()).outcome,
            Simulator::Outcome::kDelivered);

  const Time t0 = sim.now();
  sim.crash_node(F2::u3);
  // With GR the crashed node's forwarding plane stays frozen: its FIB is
  // intact even though its control plane is gone.
  EXPECT_GT(sim.fib_size(F2::u3), 0u);

  // Run just past hold expiry, into the retention window (the window-cap
  // sweep and freeze-expiry timers stay queued).
  (void)sim.run_bounded(t0 + 4.0, 1'000'000);
  EXPECT_EQ(sim.session_state(F2::u2, F2::u3), SessionState::kStaleHold);
  EXPECT_EQ(sim.session_state(F2::u4, F2::u3), SessionState::kStaleHold);
  EXPECT_GE(sim.stale_route_count(F2::u2, F2::u3), 1u);  // p
  EXPECT_GE(sim.stale_route_count(F2::u4, F2::u3), 2u);  // p and q
  // Stale routes still elect and still forward — through the frozen node.
  EXPECT_NE(sim.elected(F2::u2, bp("10")), algebra::kUnreachable);
  EXPECT_EQ(sim.trace(F2::u1, bp("10").first_address()).outcome,
            Simulator::Outcome::kDelivered);
  EXPECT_EQ(sim.trace(F2::u4, bp("1").first_address()).outcome,
            Simulator::Outcome::kDelivered);
  // The stale_routes gauge tracks the retained set exactly.
  const auto* g = sim.metrics().find_gauge("dragon.session.stale_routes");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->value(), static_cast<double>(total_stale(sim, topo)));

  sim.restart_node(F2::u3);
  quiesce(sim);
  EXPECT_TRUE(sim.down_nodes().empty());
  EXPECT_EQ(total_stale(sim, topo), 0u) << "every stale route swept";
  EXPECT_EQ(elected_all(sim, topo, bp("10")), want_p);
  EXPECT_EQ(elected_all(sim, topo, bp("1")), want_q);
  EXPECT_EQ(obs::count(sim.metrics(), EventKind::kEorSend),
            obs::count(sim.metrics(), EventKind::kEorRecv));
  EXPECT_EQ(counter(sim, "dragon.session.stale_expired"), 0u)
      << "restart beat the window cap; nothing should expire";
  const auto* h = sim.metrics().find_histogram("dragon.session.resync_ms");
  ASSERT_NE(h, nullptr);
  EXPECT_GT(h->count(), 0u) << "retention cycles record their length";
  const auto report = chaos::check_invariants(sim);
  EXPECT_TRUE(report.ok()) << report.to_string();
  const auto oracle = chaos::differential_check(sim);
  EXPECT_TRUE(oracle.match) << oracle.to_string();
}

TEST(SessionSmoke, RestartWindowExpirySweepsStaleDeterministically) {
  const auto topo = F2::topology();
  GrPathAlgebra alg;
  Config config = session_config(/*graceful_restart=*/true);
  config.session.restart_window = 5.0;
  Simulator sim(topo, alg, config);
  sim.originate(bp("10"), F2::origin_p, kCust);
  quiesce(sim);

  sim.crash_node(F2::u3);
  quiesce(sim);  // node never restarts: the window cap drains everything
  EXPECT_EQ(total_stale(sim, topo), 0u);
  EXPECT_EQ(sim.elected(F2::u1, bp("10")), algebra::kUnreachable);
  EXPECT_EQ(sim.elected(F2::u2, bp("10")), algebra::kUnreachable);
  EXPECT_EQ(sim.elected(F2::u4, bp("10")), algebra::kUnreachable);
  EXPECT_EQ(sim.session_state(F2::u2, F2::u3), SessionState::kDown);
  // The freeze expiry wiped the crashed node's forwarding plane when the
  // peers' retention ended — no silent black-hole attractor remains.
  EXPECT_EQ(sim.fib_size(F2::u3), 0u);
  EXPECT_GE(counter(sim, "dragon.session.stale_expired"), 1u);
  EXPECT_EQ(counter(sim, "dragon.session.stale_swept"), 0u)
      << "no End-of-RIB ever arrived; only the window cap swept";
  const auto report = chaos::check_invariants(sim);
  EXPECT_TRUE(report.ok()) << report.to_string();
  const auto oracle = chaos::differential_check(sim);
  EXPECT_TRUE(oracle.match) << oracle.to_string();
}

TEST(SessionSmoke, EarlyRestartSweepsPhantomRoutesViaEndOfRib) {
  // The peer-crashes-and-returns-before-detection race: u3 restarts while
  // its peers still believe the old session is up.  Routes that changed
  // during the outage (q withdrawn at its origin) must not linger as
  // phantoms — the re-established session's End-of-RIB sweeps them.
  const auto topo = F2::topology();
  GrPathAlgebra alg;
  Simulator sim(topo, alg, session_config(/*graceful_restart=*/true));
  sim.originate(bp("10"), F2::origin_p, kCust);
  sim.originate(bp("0"), F2::origin_q, kCust);  // disjoint from p
  quiesce(sim);
  ASSERT_NE(sim.elected(F2::u4, bp("0")), algebra::kUnreachable);

  const Time t0 = sim.now();
  sim.crash_node(F2::u3);
  (void)sim.run_bounded(t0 + 0.5, 1'000'000);  // before hold expiry (+3 s)
  sim.withdraw_origin(bp("0"), F2::origin_q);
  // Let the withdrawal reach u2 (it dies at the dead channel to u3)
  // before the node returns: the rebuilt u3 must never hear of q, so the
  // phantom u4 holds can only leave via the End-of-RIB sweep.  Restart
  // still lands inside the hold window — the race under test is "restart
  // faster than detection".
  (void)sim.run_bounded(t0 + 2.0, 1'000'000);
  sim.restart_node(F2::u3);
  quiesce(sim);

  EXPECT_TRUE(sim.down_nodes().empty());
  EXPECT_EQ(total_stale(sim, topo), 0u);
  // q is gone everywhere (the phantom u4 held from u3 was swept) ...
  for (NodeId u = 0; u < topo.node_count(); ++u) {
    EXPECT_EQ(sim.elected(u, bp("0")), algebra::kUnreachable) << "node " << u;
  }
  // ... while p re-converged through the rebuilt node.
  EXPECT_NE(sim.elected(F2::u1, bp("10")), algebra::kUnreachable);
  EXPECT_NE(sim.elected(F2::u4, bp("10")), algebra::kUnreachable);
  EXPECT_GE(counter(sim, "dragon.session.stale_swept"), 1u);
  const auto report = chaos::check_invariants(sim);
  EXPECT_TRUE(report.ok()) << report.to_string();
  const auto oracle = chaos::differential_check(sim);
  EXPECT_TRUE(oracle.match) << oracle.to_string();
}

TEST(SessionSmoke, SustainedLossTearsSessionsDownAndStillConverges) {
  // Hold/keepalive arithmetic: loss 0.3 and hold = 2 keepalives give each
  // observed loss a 0.09 chance of expiring the hold timer, so teardowns
  // are common across a handful of seeds while every run still converges
  // to the fault-free stable state (retransmission + re-establishment).
  const auto topo = F1::topology();
  std::uint64_t torn_total = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    GrPathAlgebra alg;
    Config config = session_config(/*graceful_restart=*/false);
    config.session.hold_time = 1.0;
    config.session.keepalive = 0.5;
    config.session.reestablish_delay = 0.5;
    config.faults.loss = 0.3;
    config.seed = seed;
    Simulator sim(topo, alg, config);
    sim.originate(bp("10"), F1::origin_p, kCust);
    sim.originate(bp("10000"), F1::origin_q, kCust);
    const auto run = chaos::run_to_quiescence(sim, {1e6, 5'000'000});
    ASSERT_TRUE(run.quiescent) << "seed=" << seed << "\n" << run.diagnostics;
    const std::uint64_t torn =
        obs::count(sim.metrics(), EventKind::kSessionDown);
    torn_total += torn;
    EXPECT_GE(obs::count(sim.metrics(), EventKind::kSessionUp), torn)
        << "every teardown re-establishes";
    const auto report = chaos::check_invariants(sim);
    EXPECT_TRUE(report.ok()) << "seed=" << seed << "\n" << report.to_string();
    const auto oracle = chaos::differential_check(sim);
    EXPECT_TRUE(oracle.match) << "seed=" << seed << "\n" << oracle.to_string();
  }
  EXPECT_GT(torn_total, 0u) << "loss never expired a hold timer in 6 seeds";
}

TEST(SessionSmoke, DeaggregationAfterCrashIsRetractedOnResync) {
  // Satellite: DRAGON §3.8 under session churn.  Crashing q's origin (u6)
  // flushes the delegated route at p's origin (u4) on hold expiry, forcing
  // de-aggregation; once u6 restarts and the sessions re-sync, the
  // fragments must be withdrawn again — no lingering FIB entries.
  const auto topo = F1::topology();
  GrPathAlgebra alg;
  Config config = session_config(/*graceful_restart=*/false);
  Simulator sim(topo, alg, config);
  sim.originate(bp("10"), F1::origin_p, kCust);     // p at u4
  sim.originate(bp("10000"), F1::origin_q, kCust);  // q at u6 (delegated)
  quiesce(sim);
  ASSERT_EQ(obs::count(sim.metrics(), EventKind::kDeaggregate), 0u);

  sim.crash_node(F1::u6);
  quiesce(sim);
  EXPECT_GT(obs::count(sim.metrics(), EventKind::kDeaggregate), 0u);
  EXPECT_FALSE(sim.originates(F1::u4, bp("10")));
  EXPECT_TRUE(sim.originates(F1::u4, bp("10001")));
  EXPECT_TRUE(sim.originates(F1::u4, bp("1001")));
  EXPECT_TRUE(sim.originates(F1::u4, bp("101")));

  sim.restart_node(F1::u6);
  quiesce(sim);
  EXPECT_GT(obs::count(sim.metrics(), EventKind::kReaggregate), 0u);
  EXPECT_TRUE(sim.originates(F1::u4, bp("10")));
  for (const char* frag : {"10001", "1001", "101"}) {
    EXPECT_FALSE(sim.originates(F1::u4, bp(frag))) << frag;
    for (NodeId u = 0; u < topo.node_count(); ++u) {
      EXPECT_FALSE(sim.fib_active(u, bp(frag)))
          << "lingering FIB entry for " << frag << " at node " << u;
    }
  }
  for (const auto& rec : sim.origin_records()) {
    EXPECT_FALSE(rec.deaggregated) << rec.root.to_bit_string();
    EXPECT_TRUE(rec.fragments.empty()) << rec.root.to_bit_string();
  }
  const auto report = chaos::check_invariants(sim);
  EXPECT_TRUE(report.ok()) << report.to_string();
  const auto oracle = chaos::differential_check(sim);
  EXPECT_TRUE(oracle.match) << oracle.to_string();
}

TEST(SessionSmoke, DisabledSessionLayerIsBitIdenticalToSeedEngine) {
  // The whole subsystem is gated on Config::session.enabled; with it off
  // (the default) a lossy DRAGON run must replay the seed engine exactly:
  // same stats, same elected state, same fault-RNG consumption.
  const auto topo = F1::topology();
  const auto run_once = [&](bool declare_session_fields) {
    GrPathAlgebra alg;
    Config config;
    config.mrai = 0.5;
    config.link_delay = 0.01;
    config.enable_dragon = true;
    config.faults.loss = 0.2;
    config.faults.duplicate = 0.15;
    config.seed = 11;
    if (declare_session_fields) {
      // Non-default knob values must be inert while enabled == false.
      config.session.hold_time = 1.0;
      config.session.keepalive = 0.25;
      config.session.graceful_restart = false;
    }
    Simulator sim(topo, alg, config);
    sim.originate(bp("10"), F1::origin_p, kCust);
    sim.originate(bp("10000"), F1::origin_q, kCust);
    quiesce(sim);
    sim.fail_link(F1::u4, F1::u6);
    quiesce(sim);
    std::vector<std::uint64_t> digest{
        obs::count(sim.metrics(), EventKind::kAnnounce),
        obs::count(sim.metrics(), EventKind::kWithdraw),
        obs::count(sim.metrics(), EventKind::kMsgLost)};
    for (NodeId u = 0; u < topo.node_count(); ++u) {
      digest.push_back(sim.elected(u, bp("10")));
      digest.push_back(sim.elected(u, bp("10000")));
    }
    return digest;
  };
  EXPECT_EQ(run_once(false), run_once(true));
}

// ---------------------------------------------------------------------------
// Snapshot / timer interaction (satellite: reset_time + pending timers)
// ---------------------------------------------------------------------------

TEST(SessionSnapshot, ResetTimeRefusesPendingEvents) {
  // The root of the snapshot/timer audit: a time jump under queued events
  // (hold timers, window sweeps) would reorder absolute timestamps, so
  // reset_time must refuse outright rather than let a stale timer fire in
  // the restored world.
  EventQueue q;
  q.reset_time(5.0);  // empty queue: fine
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
  q.schedule(7.0, [] {});
  EXPECT_THROW(q.reset_time(0.0), std::logic_error);
  q.run_next();
  q.reset_time(0.0);  // drained: fine again
  EXPECT_DOUBLE_EQ(q.now(), 0.0);
}

TEST(SessionSnapshot, RestoreRefusesWhileSessionTimersArePending) {
  const auto topo = F2::topology();
  GrPathAlgebra alg;
  Simulator sim(topo, alg, session_config(/*graceful_restart=*/true));
  sim.originate(bp("10"), F2::origin_p, kCust);
  quiesce(sim);
  const auto snap = sim.snapshot();

  // A crash queues hold-expiry (and later freeze-expiry) timers; restoring
  // over them must throw, not leave cancelled timers alive in the
  // restored state.
  sim.crash_node(F2::u3);
  ASSERT_GT(sim.queue_depth(), 0u);
  EXPECT_THROW(sim.restore(snap), std::logic_error);
  quiesce(sim);
  sim.restore(snap);  // drained: fine
  EXPECT_TRUE(sim.down_nodes().empty());
  EXPECT_EQ(sim.session_state(F2::u2, F2::u3), SessionState::kEstablished);
  EXPECT_EQ(total_stale(sim, topo), 0u);
  EXPECT_NE(sim.elected(F2::u1, bp("10")), algebra::kUnreachable);
}

TEST(SessionSnapshot, RepeatedCrashTrialsReplayBitIdentically) {
  // The epoch maps, crash generations, and EoR-deferral sets are part of
  // the snapshot: repeated crash/restart trials from one snapshot must
  // replay exactly, with no timer or epoch state leaking between trials.
  const auto topo = F2::topology();
  GrPathAlgebra alg;
  Config config = session_config(/*graceful_restart=*/true);
  config.faults.loss = 0.15;  // exercise the fault-RNG rewind too
  Simulator sim(topo, alg, config);
  sim.originate(bp("10"), F2::origin_p, kCust);
  sim.originate(bp("1"), F2::origin_q, kCust);
  quiesce(sim);
  const auto snap = sim.snapshot();

  const auto run_trial = [&] {
    sim.restore(snap);
    sim.reset_stats();
    sim.crash_node(F2::u3);
    (void)sim.run_bounded(sim.now() + 4.0, 1'000'000);
    sim.restart_node(F2::u3);
    quiesce(sim);
    std::vector<std::uint64_t> digest{
        obs::count(sim.metrics(), EventKind::kAnnounce),
        obs::count(sim.metrics(), EventKind::kWithdraw),
        obs::count(sim.metrics(), EventKind::kMsgLost),
        total_stale(sim, topo)};
    for (NodeId u = 0; u < topo.node_count(); ++u) {
      digest.push_back(sim.elected(u, bp("10")));
      digest.push_back(sim.elected(u, bp("1")));
    }
    return digest;
  };
  const auto first = run_trial();
  const auto second = run_trial();
  const auto third = run_trial();
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, third);
  EXPECT_EQ(first[3], 0u) << "trials end with every stale route swept";
}

// ---------------------------------------------------------------------------
// SessionSweep — crash-schedule acceptance sweep (>= 100 seeds) with the
// thread-invariance cross-check
// ---------------------------------------------------------------------------

struct SweepDigest {
  std::string plan_json;
  bool skipped = false;
  bool ok = false;
  std::size_t gr_probes_run = 0;
  double end_time = 0.0;
  std::uint64_t announcements = 0;
  std::uint64_t withdrawals = 0;
  std::uint64_t deaggregations = 0;
  std::uint64_t lost = 0;

  bool operator==(const SweepDigest&) const = default;
};

SweepDigest digest_of(const chaos::ScheduleOutcome& out) {
  SweepDigest d;
  d.plan_json = out.plan_json;
  d.skipped = out.skipped;
  d.ok = out.ok();
  d.gr_probes_run = out.gr_probes_run;
  d.end_time = out.end_time;
  d.announcements = obs::count(out.metrics, EventKind::kAnnounce);
  d.withdrawals = obs::count(out.metrics, EventKind::kWithdraw);
  d.deaggregations = obs::count(out.metrics, EventKind::kDeaggregate);
  d.lost = obs::count(out.metrics, EventKind::kMsgLost);
  return d;
}

TEST(SessionSweep, HundredCrashSchedulesPassOracleAndAreThreadInvariant) {
  const auto topo = F1::topology();
  GrPathAlgebra alg;
  chaos::SweepSpec spec;
  spec.topo = &topo;
  spec.alg = &alg;
  spec.config = session_config(/*graceful_restart=*/true);
  spec.config.session.hold_time = 2.0;
  spec.config.session.keepalive = 0.5;
  spec.config.session.restart_window = 8.0;
  spec.origins = {{bp("10"), F1::origin_p, kCust},
                  {bp("10000"), F1::origin_q, kCust}};
  spec.params.events = 4;
  spec.params.horizon = 30.0;
  spec.params.crash_prob = 0.5;
  spec.params.restore_prob = 0.7;
  spec.params.origin_flap_prob = 0.2;
  spec.probe_gr_windows = true;
  spec.probe_sources = 6;
  spec.invariants.max_sources = 32;

  util::Rng seeder(77);
  std::vector<std::uint64_t> seeds(104);
  for (auto& s : seeds) s = seeder();

  const auto sequential = chaos::run_schedule_sweep(spec, seeds, nullptr);
  ASSERT_EQ(sequential.size(), seeds.size());

  std::size_t crashes = 0, restarts = 0, probes = 0, ran = 0;
  for (const auto& out : sequential) {
    // Acceptance: the two-phase differential oracle passes on every
    // seeded crash/restart schedule; any violation reprints a plan JSON
    // that from_json() can replay.
    ASSERT_TRUE(out.ok()) << "seed=" << out.seed << "\n"
                          << out.diagnostics << out.plan_json;
    if (out.skipped) continue;
    ++ran;
    probes += out.gr_probes_run;
    const auto plan = chaos::FaultPlan::from_json(out.plan_json);
    ASSERT_TRUE(plan.has_value()) << out.plan_json;
    EXPECT_EQ(plan->to_json(), out.plan_json);
    for (const auto& act : plan->actions) {
      crashes += act.kind == chaos::FaultKind::kNodeCrash;
      restarts += act.kind == chaos::FaultKind::kNodeRestart;
    }
  }
  EXPECT_GE(ran, 100u) << "not enough non-trivial schedules for acceptance";
  EXPECT_GT(crashes, 50u) << "crash_prob=0.5 should crash in most schedules";
  EXPECT_GT(restarts, 0u);
  EXPECT_GT(probes, 0u) << "no graceful-restart window probe ever fired";

  // Thread invariance: the identical sweep over a 4-worker pool must be
  // outcome-for-outcome bit-identical.
  exec::ThreadPool pool(4);
  const auto parallel = chaos::run_schedule_sweep(spec, seeds, &pool);
  ASSERT_EQ(parallel.size(), sequential.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(digest_of(parallel[i]), digest_of(sequential[i]))
        << "schedule " << i << " (seed=" << seeds[i]
        << ") diverges across thread counts";
  }
}

}  // namespace
}  // namespace dragon::engine
