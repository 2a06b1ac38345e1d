#include <gtest/gtest.h>

#include <algorithm>

#include "addressing/assignment.hpp"
#include "algebra/gr_algebra.hpp"
#include "algebra/gr_path_algebra.hpp"
#include "dragon/aggregation.hpp"
#include "paper_networks.hpp"
#include "routecomp/generic_solver.hpp"
#include "routecomp/gr_sweep.hpp"
#include "topology/cleaner.hpp"
#include "topology/generator.hpp"

namespace dragon::routecomp {
namespace {

using algebra::Attr;
using algebra::GrClass;
using algebra::GrPathAlgebra;
using algebra::kUnreachable;
using topology::NodeId;
using F1 = testing::Figure1;

TEST(GrSweep, Figure1PrefixP) {
  const auto topo = F1::topology();
  const auto state = gr_sweep(topo, F1::origin_p);  // p originated by u4
  // §2: u2 elects a customer p-route, u1 a peer p-route, u5 a provider
  // p-route; u3 and u6 elect provider p-routes.
  EXPECT_EQ(state.cls[F1::u4], kCustomer);
  EXPECT_EQ(state.cls[F1::u2], kCustomer);
  EXPECT_EQ(state.cls[F1::u1], kPeer);
  EXPECT_EQ(state.cls[F1::u3], kProvider);
  EXPECT_EQ(state.cls[F1::u6], kProvider);
  EXPECT_EQ(state.cls[F1::u5], kProvider);
  // Path lengths.
  EXPECT_EQ(state.dist[F1::u4], 0);
  EXPECT_EQ(state.dist[F1::u2], 1);
  EXPECT_EQ(state.dist[F1::u1], 2);
  EXPECT_EQ(state.dist[F1::u6], 1);
  EXPECT_EQ(state.dist[F1::u3], 2);
  EXPECT_EQ(state.dist[F1::u5], 3);
}

TEST(GrSweep, Figure1PrefixQ) {
  const auto topo = F1::topology();
  const auto state = gr_sweep(topo, F1::origin_q);  // q originated by u6
  EXPECT_EQ(state.cls[F1::u6], kCustomer);
  EXPECT_EQ(state.cls[F1::u3], kCustomer);
  EXPECT_EQ(state.cls[F1::u4], kCustomer);
  EXPECT_EQ(state.cls[F1::u2], kCustomer);
  EXPECT_EQ(state.cls[F1::u1], kPeer);
  EXPECT_EQ(state.cls[F1::u5], kProvider);
}

TEST(GrSweep, Figure1ForwardingNeighbors) {
  const auto topo = F1::topology();
  const auto p = gr_sweep(topo, F1::origin_p);
  // u2's forwarding neighbour for p is its customer u4 (§2).
  EXPECT_EQ(forwarding_neighbors(topo, p, F1::u2),
            std::vector<NodeId>{F1::u4});
  // u5 elects the provider p-route from both u1 and u3 (§2).
  auto u5_fwd = forwarding_neighbors(topo, p, F1::u5);
  std::sort(u5_fwd.begin(), u5_fwd.end());
  EXPECT_EQ(u5_fwd, (std::vector<NodeId>{F1::u1, F1::u3}));
  EXPECT_EQ(best_forwarding_neighbor(topo, p, F1::u5), F1::u1);
  // The origin has no forwarding neighbour.
  EXPECT_TRUE(forwarding_neighbors(topo, p, F1::u4).empty());
}

TEST(GrSweep, MultiOriginAnycast) {
  // Figure 5: u3 and u4 both originate the aggregate; both are origins and
  // everyone routes to the nearest.
  const auto topo = testing::Figure5::topology();
  using F5 = testing::Figure5;
  const NodeId origins[2] = {F5::u3, F5::u4};
  const auto state = gr_sweep_multi(topo, origins, nullptr);
  EXPECT_EQ(state.cls[F5::u3], kCustomer);
  EXPECT_EQ(state.cls[F5::u4], kCustomer);
  EXPECT_EQ(state.cls[F5::u1], kCustomer);  // learns from customer u3
  EXPECT_EQ(state.cls[F5::u2], kCustomer);  // learns from customer u4
  EXPECT_EQ(state.dist[F5::u1], 1);
  EXPECT_EQ(state.dist[F5::u2], 1);
}

TEST(GrSweep, SuppressionCreatesObliviousness) {
  const auto topo = F1::topology();
  // If u2 filters q (it does, §3.1), u1 no longer learns any q-route.
  std::vector<char> suppressed(topo.node_count(), 0);
  suppressed[F1::u2] = 1;
  const NodeId origins[1] = {F1::origin_q};
  const auto state = gr_sweep_multi(topo, origins, &suppressed);
  EXPECT_EQ(state.cls[F1::u1], kUnreachableClass);
  // u2 itself still elects (filtering keeps the route in the RIB).
  EXPECT_EQ(state.cls[F1::u2], kCustomer);
  // u5 still learns a provider q-route from u3.
  EXPECT_EQ(state.cls[F1::u5], kProvider);
}

TEST(GenericSolver, Figure1MatchesPaper) {
  const auto topo = F1::topology();
  const auto net = LabeledNetwork::from_topology(topo);
  algebra::GrAlgebra gr;
  const auto result =
      solve(gr, net, F1::origin_p, attr(GrClass::kCustomer));
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.attr[F1::u2], attr(GrClass::kCustomer));
  EXPECT_EQ(result.attr[F1::u1], attr(GrClass::kPeer));
  EXPECT_EQ(result.attr[F1::u5], attr(GrClass::kProvider));
}

TEST(GenericSolver, ForwardingNeighborsMatchSweep) {
  const auto topo = F1::topology();
  const auto net = LabeledNetwork::from_topology(topo);
  algebra::GrAlgebra gr;
  const auto result =
      solve(gr, net, F1::origin_p, attr(GrClass::kCustomer));
  const auto sweep = gr_sweep(topo, F1::origin_p);
  for (NodeId u = 0; u < topo.node_count(); ++u) {
    auto a = solver_forwarding_neighbors(gr, net, result, F1::origin_p, u);
    // The class-only solver admits any neighbour with a matching class;
    // the sweep additionally requires matching path length.  Sweep results
    // must be a subset.
    auto b = forwarding_neighbors(topo, sweep, u);
    for (NodeId v : b) {
      EXPECT_NE(std::find(a.begin(), a.end(), v), a.end());
    }
  }
}

TEST(GenericSolver, NonAbsorbentConfigurationDetected) {
  // Mutual providers cannot happen through Topology, but a hand-built
  // labeled network can express the non-convergent gadget: two nodes, each
  // learning the other's route as preferred over its own current one.
  const algebra::Attr X = algebra::kUnreachable;
  // attrs: 0 best, 1 ok; label 0 maps ok->best... build a flip-flop:
  algebra::TableAlgebra alg({"best", "ok"}, {{X, 0}});
  LabeledNetwork net(3);
  // 0 is origin announcing "ok"; 1 and 2 learn from each other with the
  // promoting label, creating a cycle that keeps improving.
  net.add_relation(1, 0, 0);
  net.add_relation(2, 1, 0);
  net.add_relation(1, 2, 0);
  const auto result = solve(alg, net, 0, 1, nullptr, 50);
  // The gadget stabilises or is flagged; either way solve() terminates and
  // reports convergence status.
  (void)result.converged;
  SUCCEED();
}

/// Checks gr_sweep_multi against the generic solver (solve_multi over
/// GrPathAlgebra) on `trials` draws of 1-3 origins, each with a 15%
/// suppression mask: class and path length at every node.  Also checks
/// that best_forwarding_neighbor is the lowest id of forwarding_neighbors.
void expect_sweep_matches_solver(const topology::Topology& topo,
                                 util::Rng& rng, int trials) {
  const auto net = LabeledNetwork::from_topology(topo);
  algebra::GrPathAlgebra alg;
  const std::size_t n = topo.node_count();
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<NodeId> origins(1 + rng.below(3));
    std::vector<Origination> originations;
    for (NodeId& o : origins) {
      o = static_cast<NodeId>(rng.below(n));
      originations.push_back({o, GrPathAlgebra::make(GrClass::kCustomer, 0)});
    }
    std::vector<char> suppressed(n, 0);
    for (char& s : suppressed) s = rng.chance(0.15) ? 1 : 0;
    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << ", first origin " << origins[0]);
    const auto sweep = gr_sweep_multi(topo, origins, &suppressed);
    const auto solved = solve_multi(alg, net, originations, &suppressed);
    ASSERT_TRUE(solved.converged);
    for (NodeId u = 0; u < n; ++u) {
      if (solved.attr[u] == kUnreachable) {
        EXPECT_EQ(sweep.cls[u], kUnreachableClass) << "node " << u;
      } else {
        EXPECT_EQ(sweep.cls[u], static_cast<std::uint8_t>(
                                    GrPathAlgebra::class_of(solved.attr[u])))
            << "node " << u;
        EXPECT_EQ(sweep.dist[u], GrPathAlgebra::path_length_of(solved.attr[u]))
            << "node " << u;
      }
      const auto fwd = forwarding_neighbors(topo, sweep, u);
      const NodeId lowest =
          fwd.empty() ? kNoNeighbor : *std::min_element(fwd.begin(), fwd.end());
      EXPECT_EQ(best_forwarding_neighbor(topo, sweep, u), lowest)
          << "node " << u;
    }
  }
}

topology::Topology agreement_topology(std::uint32_t tier1,
                                      std::uint32_t transit,
                                      std::uint32_t stubs,
                                      std::uint64_t seed) {
  topology::GeneratorParams params;
  params.tier1_count = tier1;
  params.transit_count = transit;
  params.stub_count = stubs;
  params.seed = seed;
  return topology::generate_internet(params).graph;
}

/// `topo` made dirty the way bench_dataset does before it cleans: 20 draws
/// that each try to close a customer->provider 3-cycle (a node becomes a
/// provider of its own grand-provider), then an unpeered ten-node island
/// with its own root.
topology::Topology make_dirty(topology::Topology topo, util::Rng& rng) {
  for (int i = 0; i < 20; ++i) {
    const auto a = static_cast<NodeId>(rng.below(topo.node_count()));
    const auto providers = topo.providers(a);
    if (providers.empty()) continue;
    const NodeId b = providers[rng.below(providers.size())];
    const auto grand = topo.providers(b);
    if (grand.empty()) continue;
    const NodeId c = grand[rng.below(grand.size())];
    // Both spans are read before the edit below invalidates them.
    if (c != a && !topo.linked(a, c)) topo.add_provider_customer(a, c);
  }
  const NodeId island_root = topo.add_node();
  for (int i = 0; i < 9; ++i) {
    topo.add_provider_customer(island_root, topo.add_node());
  }
  return topo;
}

class SweepSolverAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SweepSolverAgreement, ClassesAgreeOnGeneratedTopologies) {
  const auto topo = agreement_topology(4, 30, 120, GetParam());
  util::Rng rng(GetParam() * 1000 + 5);
  expect_sweep_matches_solver(topo, rng, 8);
}

// About ten times the size above.
TEST_P(SweepSolverAgreement, ClassesAgreeAtTenfoldSize) {
  const auto topo = agreement_topology(6, 300, 1200, GetParam());
  util::Rng rng(GetParam() * 1000 + 6);
  expect_sweep_matches_solver(topo, rng, 8);
}

// Customer-provider cycles and an island that no mainland origin reaches
// (and whose origins reach nothing outside it).
TEST_P(SweepSolverAgreement, ClassesAgreeOnDirtyTopologies) {
  util::Rng rng(GetParam() * 1000 + 7);
  const auto dirty =
      make_dirty(agreement_topology(6, 300, 1200, GetParam()), rng);
  topology::Topology cycles = dirty;
  ASSERT_GT(topology::break_customer_provider_cycles(cycles), 0u);
  expect_sweep_matches_solver(dirty, rng, 8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SweepSolverAgreement,
                         ::testing::Values(31, 32, 33, 34, 35, 36));

/// The sweep's kCustomer and kPeer nodes, in node-id order.
std::vector<RegionNode> sweep_region(const topology::Topology& topo,
                                     std::span<const NodeId> origins) {
  const auto state = gr_sweep_multi(topo, origins, nullptr);
  std::vector<RegionNode> out;
  for (NodeId u = 0; u < topo.node_count(); ++u) {
    if (state.cls[u] == kCustomer || state.cls[u] == kPeer) {
      out.push_back({u, state.cls[u]});
    }
  }
  return out;
}

TEST(GrRegion, Figure1RegionsAreUpsetAndItsPeers) {
  const auto topo = F1::topology();
  GrRegionBuilder builder(topo);
  const NodeId p[1] = {F1::origin_p};
  // §2: u4 and u2 elect customer p-routes, u1 a peer p-route.
  std::vector<RegionNode> want{
      {F1::u1, kPeer}, {F1::u2, kCustomer}, {F1::u4, kCustomer}};
  std::sort(want.begin(), want.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  EXPECT_EQ(builder.build(p), want);
  // The mark array is clean between calls: a repeat gives the same answer.
  EXPECT_EQ(builder.build(p), want);
}

TEST(GrRegion, MatchesSweepForEveryOriginAndAggregate) {
  topology::GeneratorParams params;
  params.tier1_count = 4;
  params.transit_count = 30;
  params.stub_count = 120;
  params.transit_peering_degree = 2.5;
  params.seed = 37;
  const auto gen = topology::generate_internet(params);
  const auto& topo = gen.graph;
  GrRegionBuilder builder(topo);
  std::size_t peer_nodes = 0;
  for (NodeId o = 0; o < topo.node_count(); ++o) {
    const NodeId origins[1] = {o};
    const auto got = builder.build(origins);
    EXPECT_EQ(got, sweep_region(topo, origins)) << "origin " << o;
    peer_nodes += static_cast<std::size_t>(std::count_if(
        got.begin(), got.end(),
        [](const RegionNode& r) { return r.cls == kPeer; }));
  }
  EXPECT_GT(peer_nodes, 0u);  // the peer ring is exercised

  addressing::AssignmentParams aparams;
  aparams.seed = 38;
  aparams.max_prefixes_per_as = 12;
  const auto assignment = addressing::generate_assignment(gen, aparams);
  const auto aggregates = core::elect_aggregation_prefixes(topo, assignment);
  ASSERT_FALSE(aggregates.empty());
  std::size_t anycast = 0;
  for (const auto& agg : aggregates) {
    EXPECT_EQ(builder.build(agg.originators),
              sweep_region(topo, agg.originators))
        << agg.aggregate.to_cidr();
    anycast += agg.originators.size() > 1 ? 1 : 0;
  }
  EXPECT_GT(anycast, 0u);  // some origin sets hold several nodes

  // Repeated origins count once.
  const NodeId twice[3] = {5, 9, 5};
  EXPECT_EQ(builder.build(twice), sweep_region(topo, twice));
}

}  // namespace
}  // namespace dragon::routecomp
