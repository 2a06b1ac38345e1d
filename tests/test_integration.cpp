// Cross-module integration and property tests:
//   * the event-driven engine converges to the same stable state as the
//     closed-form GR sweep on random Internet-like topologies;
//   * with DRAGON enabled, the engine's converged filter set matches the
//     optimal forgo set of the static theory (Theorem 4);
//   * packet delivery survives arbitrary single link failures under
//     DRAGON (Theorem 2, dynamically);
//   * DRAGON is optimal under the other isotone policy families of §3.3.
#include <gtest/gtest.h>

#include "addressing/assignment.hpp"
#include "algebra/custom_algebra.hpp"
#include "algebra/gr_path_algebra.hpp"
#include "dragon/consistency.hpp"
#include "dragon/filtering.hpp"
#include "engine/simulator.hpp"
#include "prefix/prefix_forest.hpp"
#include "routecomp/gr_sweep.hpp"
#include "test_support.hpp"
#include "topology/generator.hpp"
#include "util/rng.hpp"

namespace dragon {
namespace {

using algebra::GrClass;
using algebra::GrPathAlgebra;
using prefix::Prefix;
using topology::NodeId;
using dragon::testing::quiesce;

constexpr algebra::Attr kOriginAttr =
    GrPathAlgebra::make(GrClass::kCustomer, 0);

topology::GeneratedTopology make_topology(std::uint64_t seed) {
  topology::GeneratorParams params;
  params.tier1_count = 3;
  params.transit_count = 15;
  params.stub_count = 60;
  params.seed = seed;
  return topology::generate_internet(params);
}

engine::Config dragon_config() {
  engine::Config config;
  config.mrai = 0.3;
  config.enable_dragon = true;
  return config;
}

class EngineVsStatic : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineVsStatic, BgpEngineMatchesSweepOnRandomTopologies) {
  const auto gen = make_topology(GetParam());
  GrPathAlgebra alg;
  engine::Config config;
  config.mrai = 0.3;
  engine::Simulator sim(gen.graph, alg, config);
  util::Rng rng(GetParam() + 500);
  const auto origin =
      static_cast<NodeId>(rng.below(gen.graph.node_count()));
  const auto p = *Prefix::from_bit_string("101");
  sim.originate(p, origin, kOriginAttr);
  quiesce(sim);

  const auto sweep = routecomp::gr_sweep(gen.graph, origin);
  for (NodeId u = 0; u < gen.graph.node_count(); ++u) {
    const auto got = sim.elected(u, p);
    ASSERT_NE(got, algebra::kUnreachable) << u;
    EXPECT_EQ(static_cast<std::uint8_t>(GrPathAlgebra::class_of(got)),
              sweep.cls[u])
        << u;
    EXPECT_EQ(GrPathAlgebra::path_length_of(got), sweep.dist[u]) << u;
  }
}

TEST_P(EngineVsStatic, DragonEngineMatchesOptimalForgoSet) {
  const auto gen = make_topology(GetParam());
  GrPathAlgebra alg;
  engine::Simulator sim(gen.graph, alg, dragon_config());

  // p at a transit AS, q delegated to a node in its cone.
  util::Rng rng(GetParam() + 900);
  const NodeId tp = 3;  // first transit
  std::vector<NodeId> cone;
  {
    std::vector<char> seen(gen.graph.node_count(), 0);
    std::vector<NodeId> frontier{tp};
    seen[tp] = 1;
    while (!frontier.empty()) {
      const NodeId x = frontier.back();
      frontier.pop_back();
      cone.push_back(x);
      for (const auto& nb : gen.graph.neighbors(x)) {
        if (nb.rel == topology::Rel::kCustomer && !seen[nb.id]) {
          seen[nb.id] = 1;
          frontier.push_back(nb.id);
        }
      }
    }
  }
  const NodeId tq = cone[rng.below(cone.size())];
  const auto p = *Prefix::from_bit_string("10");
  const auto q = *Prefix::from_bit_string("10110");
  sim.originate(p, tp, kOriginAttr);
  sim.originate(q, tq, kOriginAttr);
  quiesce(sim);

  // Optimal forgo set from the static theory (class-only attributes).
  algebra::GrAlgebra gr;
  const auto net = routecomp::LabeledNetwork::from_topology(gen.graph);
  const auto run = core::run_dragon_pair(
      gr, net, tp, algebra::attr(GrClass::kCustomer), tq,
      algebra::attr(GrClass::kCustomer));
  ASSERT_TRUE(run.converged);
  const auto optimal = core::optimal_forgo_set(gr, run, tp);

  for (NodeId u = 0; u < gen.graph.node_count(); ++u) {
    if (u == tq) continue;  // the origin of q never forgoes its own prefix
    const bool engine_forgoes = !sim.fib_active(u, q);
    EXPECT_EQ(engine_forgoes, static_cast<bool>(optimal[u])) << "AS " << u;
  }
}

TEST_P(EngineVsStatic, DeliverySurvivesRandomFailuresUnderDragon) {
  const auto gen = make_topology(GetParam());
  GrPathAlgebra alg;
  engine::Simulator sim(gen.graph, alg, dragon_config());
  const NodeId tp = 3;
  const auto customers = gen.graph.customers(tp);
  const NodeId tq = customers.empty() ? tp : customers.front();
  const auto p = *Prefix::from_bit_string("01");
  const auto q = *Prefix::from_bit_string("0111");
  sim.originate(p, tp, kOriginAttr);
  if (tq != tp) sim.originate(q, tq, kOriginAttr);
  quiesce(sim);
  const auto snap = sim.snapshot();

  util::Rng rng(GetParam() + 1300);
  const auto links = gen.graph.links();
  for (int trial = 0; trial < 10; ++trial) {
    sim.restore(snap);
    const auto& link = links[rng.below(links.size())];
    sim.fail_link(link.a, link.b);
    quiesce(sim);
    // Nodes that the failure genuinely cut off from the q origin (e.g. a
    // single-homed stub losing its provider) are exempt; everyone else
    // must still deliver.
    auto failed_topo = gen.graph;
    failed_topo.remove_link(link.a, link.b);
    const auto reach = routecomp::gr_sweep(failed_topo, tq);
    for (NodeId u = 0; u < gen.graph.node_count(); ++u) {
      if (reach.cls[u] == routecomp::kUnreachableClass) continue;
      const auto result = sim.trace(u, q.first_address());
      EXPECT_EQ(result.outcome, engine::Simulator::Outcome::kDelivered)
          << "failure {" << link.a << "," << link.b << "} from " << u;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineVsStatic,
                         ::testing::Values(71, 72, 73, 74, 75));

class OtherIsotoneFamilies : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(OtherIsotoneFamilies, SiblingPoliciesReachOptimalConsistentStates) {
  // Theorem 4 on GR-with-siblings: random labeled networks built from a
  // generated topology where some provider-customer links are re-labeled
  // as sibling links (both directions exchange everything).
  const auto gen = make_topology(GetParam());
  const auto alg = algebra::TableAlgebra::gao_rexford_with_siblings();
  util::Rng rng(GetParam() + 1700);

  // Turn some single-homed-stub links into sibling links: a single-homed
  // stub is a leaf, so no cycle can traverse the (identity-labeled)
  // sibling link and strict absorbency is preserved.
  std::set<std::pair<NodeId, NodeId>> sibling_links;
  for (NodeId c = 0; c < gen.graph.node_count(); ++c) {
    if (!gen.graph.is_stub(c) || gen.graph.provider_count(c) != 1) continue;
    if (!rng.chance(0.3)) continue;
    const NodeId p = gen.graph.providers(c).front();
    sibling_links.insert({std::min(p, c), std::max(p, c)});
  }
  routecomp::LabeledNetwork net2(gen.graph.node_count());
  for (NodeId u = 0; u < gen.graph.node_count(); ++u) {
    for (const auto& nb : gen.graph.neighbors(u)) {
      if (sibling_links.contains(
              {std::min(u, nb.id), std::max(u, nb.id)})) {
        net2.add_relation(u, nb.id, 3);  // from-sibling
      } else {
        net2.add_relation(u, nb.id, topology::gr_label(nb.rel));
      }
    }
  }

  const NodeId tp = 3;
  const NodeId tq = gen.graph.customers(tp).empty()
                        ? 4
                        : gen.graph.customers(tp).front();
  const auto run = core::run_dragon_pair(alg, net2, tp, 0, tq, 0);
  ASSERT_TRUE(run.converged);
  EXPECT_TRUE(core::check_route_consistency(alg, run).route_consistent);
  EXPECT_TRUE(core::is_optimal(alg, run, tp));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OtherIsotoneFamilies,
                         ::testing::Values(81, 82, 83, 84));

}  // namespace
}  // namespace dragon
