// Adversarial scenario engine tests (src/chaos/scenario.hpp): spec
// parsing, divergence classification against the convergence criteria,
// leak/hijack blast-radius audits, damping and jitter sweeps, the
// thread-count invariance of sweep digests, and the smoke spec list's
// outcomes pinned per family.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "algebra/gr_path_algebra.hpp"
#include "chaos/fault_plan.hpp"
#include "chaos/invariants.hpp"
#include "chaos/scenario.hpp"
#include "engine/simulator.hpp"
#include "exec/thread_pool.hpp"
#include "test_support.hpp"
#include "topology/graph.hpp"
#include "util/rng.hpp"

namespace dragon::chaos {
namespace {

using algebra::GrClass;
using algebra::GrPathAlgebra;
using dragon::testing::quiesce;
using prefix::Prefix;
using topology::NodeId;

ScenarioSpec parse_or_die(const char* text) {
  auto spec = ScenarioSpec::parse(text);
  EXPECT_TRUE(spec.has_value()) << text;
  return spec.value();
}

// ---------------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------------

TEST(ScenarioSmoke, SpecParsesFamiliesAndKnobs) {
  EXPECT_EQ(parse_or_die("divergence").family, ScenarioFamily::kDivergence);
  EXPECT_EQ(parse_or_die("leak").family, ScenarioFamily::kLeak);
  EXPECT_EQ(parse_or_die("hijack").family, ScenarioFamily::kHijack);
  EXPECT_EQ(parse_or_die("damping").family, ScenarioFamily::kDamping);
  EXPECT_EQ(parse_or_die("jitter").family, ScenarioFamily::kJitter);

  const ScenarioSpec s =
      parse_or_die("divergence:variant=disagree,ring=4,sample-every=7");
  EXPECT_EQ(s.variant, "disagree");
  EXPECT_EQ(s.ring, 4u);
  EXPECT_EQ(s.sample_every, 7u);

  const ScenarioSpec h = parse_or_die("hijack:events=2,stubs=40,mrai=0.5");
  EXPECT_EQ(h.events, 2u);
  EXPECT_EQ(h.stubs, 40u);
  EXPECT_DOUBLE_EQ(h.mrai, 0.5);

  // The canonical string reparses to the same spec.
  const auto reparsed = ScenarioSpec::parse(s.to_string());
  ASSERT_TRUE(reparsed.has_value()) << s.to_string();
  EXPECT_EQ(reparsed->to_string(), s.to_string());
}

TEST(ScenarioSmoke, SpecRejectsMalformedText) {
  const char* bad[] = {
      "",           "bogus",          "divergence:",      "leak:events",
      "leak:=3",    "leak:events=x",  "leak:events=0",    "leak:nope=3",
      "hijack:ring",
      "divergence:sample-every=0",
      // Out of range: size_t overflow, non-finite doubles, and generator
      // node counts past UINT32_MAX.
      "leak:stubs=18446744073709551617",
      "damping:half-life=nan",
      "leak:horizon=inf",
      "leak:tier1=4294967297",
      "leak:transit=4294967296",
  };
  for (const char* s : bad) {
    EXPECT_FALSE(ScenarioSpec::parse(s).has_value()) << s;
  }
}

// ---------------------------------------------------------------------------
// Divergence classification
// ---------------------------------------------------------------------------

// Acceptance anchor: a known-divergent gadget classifies kOscillating
// with the same period and participant set for every seed, sequentially
// and across thread counts.
TEST(ScenarioSmoke, BadGadgetStableAcrossTwentySeedsAndThreads) {
  const ScenarioSpec spec = parse_or_die("divergence:variant=bad,ring=3");
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 1; s <= 20; ++s) seeds.push_back(s);

  const auto seq = run_scenario_sweep(spec, seeds, nullptr);
  exec::ThreadPool pool(4);
  const auto par = run_scenario_sweep(spec, seeds, &pool);
  ASSERT_EQ(seq.size(), seeds.size());
  ASSERT_EQ(par.size(), seeds.size());

  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_TRUE(seq[i].ok) << "seed " << seeds[i] << "\n"
                           << seq[i].diagnostics;
    EXPECT_EQ(seq[i].classification, Quiescence::kOscillating);
    // Identical dynamics for every seed (deterministic timing)...
    EXPECT_EQ(seq[i].period, seq[0].period) << "seed " << seeds[i];
    EXPECT_EQ(seq[i].participants, seq[0].participants);
    // ... and for every thread count.
    EXPECT_EQ(par[i].digest(), seq[i].digest()) << "seed " << seeds[i];
  }
  // The ring-3 BAD-GADGET's true oscillation: all three ring nodes cycle
  // with event-period 2*3^2 = 18, which a 13-event sampling cadence
  // (coprime) observes at full resolution.
  EXPECT_EQ(seq[0].period, 18u);
  EXPECT_EQ(seq[0].participants, (std::vector<NodeId>{1, 2, 3}));
}

TEST(ScenarioSmoke, ConvergentAlgebrasClassifyConverged) {
  // Cross-check against the Daggitt-Griffin criteria: an algebra that
  // satisfies strict increase must never be reported divergent.
  for (const char* text :
       {"divergence:variant=benign,ring=4", "divergence:variant=gr,ring=5"}) {
    const auto out = run_scenario(parse_or_die(text), 7);
    EXPECT_TRUE(out.ok) << text << "\n" << out.diagnostics;
    EXPECT_TRUE(out.criteria_convergent) << text;
    EXPECT_EQ(out.classification, Quiescence::kConverged) << text;
  }
}

TEST(ScenarioSmoke, DisagreeOscillatesAndNeverLooksAperiodic) {
  for (const char* text : {"divergence:variant=disagree,ring=2",
                           "divergence:variant=disagree,ring=4"}) {
    const auto out = run_scenario(parse_or_die(text), 3);
    EXPECT_TRUE(out.ok) << text << "\n" << out.diagnostics;
    EXPECT_EQ(out.classification, Quiescence::kOscillating) << text;
    EXPECT_FALSE(out.participants.empty()) << text;
  }
}

TEST(ScenarioSmoke, StarvedSamplingReportsLivelockNeverConverged) {
  // A sampling cadence so coarse the history cannot hold one cycle
  // degrades the label to kLivelock — the documented failure direction:
  // aliasing may mislabel the divergence, it must never hide it.
  const auto out = run_scenario(
      parse_or_die("divergence:variant=bad,ring=3,sample-every=20000"), 1);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.classification, Quiescence::kLivelock);
  EXPECT_NE(out.diagnostics.find("livelock"), std::string::npos)
      << out.diagnostics;
}

// ---------------------------------------------------------------------------
// Hijack blast radius, exact on a hand-built network
// ---------------------------------------------------------------------------

// Six nodes: tier-1 0 over providers {1, 2}; victim stub 3 and stub 5
// under 1, hijacker stub 4 under 2.  The victim originates 10/8, the
// hijacker originates the covered 10.0/9 with an equally-good attribute.
//
//   plain BGP:  every node learns the /9 and LPM sends all five
//               non-hijacker sources to node 4 -> blast 5/5.
//   DRAGON:     node 2 imports the /9 from its customer (best class) and
//               keeps it, but at tier-1 0 the /9's class ties the /8's,
//               so code CR filters the /9 there and it propagates no
//               further; only node 2's traffic reaches the hijacker ->
//               blast 1/5.
TEST(ScenarioSmoke, HandBuiltHijackBlastRadiusExactCounts) {
  topology::Topology topo(6);
  topo.add_provider_customer(0, 1);
  topo.add_provider_customer(0, 2);
  topo.add_provider_customer(1, 3);
  topo.add_provider_customer(2, 4);
  topo.add_provider_customer(1, 5);

  const Prefix victim(0x0A000000u, 8);
  const Prefix rogue = victim.child(0);
  const algebra::Attr attr = GrPathAlgebra::make(GrClass::kCustomer, 0);
  const GrPathAlgebra alg;

  for (const bool dragon : {false, true}) {
    engine::Config cfg;
    cfg.mrai = 0.1;
    cfg.link_delay = 0.01;
    cfg.enable_dragon = dragon;
    cfg.enable_reaggregation = false;
    engine::Simulator sim(topo, alg, std::move(cfg));
    sim.originate(victim, 3, attr);
    sim.originate_rogue(rogue, 4, attr);
    quiesce(sim);

    const BlastRadius b =
        measure_blast_radius(sim, rogue.first_address(), {NodeId{4}});
    EXPECT_EQ(b.sources, 5u) << "dragon=" << dragon;
    EXPECT_EQ(b.affected, dragon ? 1u : 5u) << "dragon=" << dragon;
  }
}

TEST(ScenarioSmoke, HijackSweepDragonStrictlySmallerThanBgp) {
  const ScenarioSpec spec = parse_or_die("hijack");
  const std::vector<std::uint64_t> seeds{1, 2, 7};
  std::size_t dragon_total = 0, bgp_total = 0;
  for (const auto& out : run_scenario_sweep(spec, seeds, nullptr)) {
    EXPECT_TRUE(out.ok) << out.diagnostics;
    EXPECT_GT(out.adversaries, 0u);
    dragon_total += out.blast_dragon.affected;
    bgp_total += out.blast_bgp.affected;
  }
  // The paper's containment claim, adversarially: filtering the covered
  // more-specific strictly shrinks the hijack's reach.
  EXPECT_LT(dragon_total, bgp_total);
}

// ---------------------------------------------------------------------------
// Leak replay and determinism
// ---------------------------------------------------------------------------

TEST(ScenarioSmoke, LeakOutcomeReplaysFromSeedAndPlanJsonRoundTrips) {
  const ScenarioSpec spec = parse_or_die("leak:events=2");
  const auto a = run_scenario(spec, 42);
  const auto b = run_scenario(spec, 42);
  EXPECT_TRUE(a.ok) << a.diagnostics;
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.plan_json, b.plan_json);

  // The printed plan replays: parsing it back yields the same schedule
  // byte for byte and the same net adversary set.
  const auto plan = FaultPlan::from_json(a.plan_json);
  ASSERT_TRUE(plan.has_value()) << a.plan_json;
  EXPECT_EQ(plan->to_json(), a.plan_json);
  EXPECT_EQ(plan->net_leaking_nodes().size(), a.adversaries);

  // Leaks divert or strand traffic but DRAGON filtering is not a leak
  // defence: the twins must agree on the sampled source count.
  EXPECT_EQ(a.blast_dragon.sources, a.blast_bgp.sources);
  EXPECT_LE(a.blast_dragon.affected, a.blast_bgp.affected);
}

// ---------------------------------------------------------------------------
// Damping and jitter families
// ---------------------------------------------------------------------------

TEST(ScenarioSmoke, DampingSuppressesFlapStormAndStaysTransparent) {
  const auto out = run_scenario(parse_or_die("damping"), 1);
  EXPECT_TRUE(out.ok) << out.diagnostics;
  // The storm tripped suppression...
  EXPECT_GT(out.suppressions, 0u);
  // ... and both twins produced real update traffic.
  EXPECT_GT(out.updates_damped, 0u);
  EXPECT_GT(out.updates_undamped, 0u);
}

TEST(ScenarioSmoke, JitterFamilyRunsFullAuditsClean) {
  const auto out = run_scenario(parse_or_die("jitter:jitter=0.5"), 1);
  EXPECT_TRUE(out.ok) << out.diagnostics;
  EXPECT_GT(out.updates, 0u);
  EXPECT_GT(out.recovery, 0.0);
}

// One scenario per family: a sequential sweep and a 4-thread sweep must
// produce bit-identical outcome digests.
TEST(ScenarioSmoke, EveryFamilyThreadCountInvariant) {
  const std::vector<std::uint64_t> seeds{1, 2};
  exec::ThreadPool pool(4);
  for (const char* text :
       {"divergence:variant=disagree,ring=2", "leak:events=1",
        "hijack:events=2", "damping:events=4", "jitter:events=2"}) {
    const ScenarioSpec spec = parse_or_die(text);
    const auto seq = run_scenario_sweep(spec, seeds, nullptr);
    const auto par = run_scenario_sweep(spec, seeds, &pool);
    ASSERT_EQ(seq.size(), par.size()) << text;
    for (std::size_t i = 0; i < seq.size(); ++i) {
      EXPECT_TRUE(seq[i].ok) << text << " seed " << seeds[i] << "\n"
                             << seq[i].diagnostics;
      EXPECT_EQ(seq[i].digest(), par[i].digest())
          << text << " seed " << seeds[i];
    }
  }
}

// The scenario smoke list (bench/README.md; `bench_chaos --scenario=...
// --schedules 5 --seed 1`), pinned exactly per family.  Every outcome is a
// pure function of (spec, seed), so any change in runs, passes,
// classification, blast radius, suppressions or update volume is a
// behaviour change that must update these numbers on purpose.  Seeds fork
// off the master stream once per spec, and outcomes fold into the
// family's totals, exactly as bench_chaos does.
TEST(ScenarioSmoke, SmokeListOutcomesPinnedPerFamily) {
  // runs, passed, converged, oscillating, blast dragon, blast bgp,
  // suppressions, updates (the bench's dragon.chaos.scenario.<family>.*).
  using Totals = std::array<std::uint64_t, 8>;
  std::map<std::string, Totals> got;
  util::Rng seed_master(1);
  exec::ThreadPool pool(2);
  for (const char* text :
       {"divergence:variant=bad,ring=3", "divergence:variant=disagree,ring=2",
        "leak:events=2", "hijack:events=2", "damping:events=4",
        "jitter:events=2"}) {
    const ScenarioSpec spec = parse_or_die(text);
    util::Rng spec_rng = seed_master.fork();
    std::vector<std::uint64_t> seeds(5);
    for (auto& s : seeds) s = spec_rng();
    Totals& t = got[to_string(spec.family)];
    for (const auto& out : run_scenario_sweep(spec, seeds, &pool)) {
      ++t[0];
      EXPECT_TRUE(out.ok) << text << " seed " << out.seed << "\n"
                          << out.diagnostics;
      if (!out.ok) continue;
      ++t[1];
      t[2] += out.classification == Quiescence::kConverged ? 1 : 0;
      t[3] += out.classification == Quiescence::kOscillating ? 1 : 0;
      t[4] += out.blast_dragon.affected;
      t[5] += out.blast_bgp.affected;
      t[6] += out.suppressions;
      t[7] += out.updates != 0 ? out.updates
                               : out.updates_damped + out.updates_undamped;
    }
  }
  const std::map<std::string, Totals> want{
      {"damping", {5, 5, 5, 0, 0, 0, 1662, 25141}},
      {"divergence", {10, 10, 0, 10, 0, 0, 0, 0}},
      {"hijack", {5, 5, 5, 0, 375, 989, 0, 0}},
      {"jitter", {5, 5, 5, 0, 0, 0, 0, 150}},
      {"leak", {5, 5, 5, 0, 1177, 1177, 0, 0}},
  };
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace dragon::chaos
