#include <gtest/gtest.h>

#include <algorithm>

#include "addressing/assignment.hpp"
#include "algebra/gr_algebra.hpp"
#include "algebra/gr_path_algebra.hpp"
#include "dragon/aggregation.hpp"
#include "paper_networks.hpp"
#include "routecomp/generic_solver.hpp"
#include "routecomp/gr_sweep.hpp"
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

class SweepSolverAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SweepSolverAgreement, ClassesAgreeOnGeneratedTopologies) {
  topology::GeneratorParams params;
  params.tier1_count = 4;
  params.transit_count = 30;
  params.stub_count = 120;
  params.seed = GetParam();
  const auto gen = topology::generate_internet(params);
  const auto net = LabeledNetwork::from_topology(gen.graph);
  algebra::GrPathAlgebra alg;
  util::Rng rng(GetParam() * 1000 + 5);

  for (int trial = 0; trial < 8; ++trial) {
    const auto origin =
        static_cast<NodeId>(rng.below(gen.graph.node_count()));
    const auto sweep = gr_sweep(gen.graph, origin);
    const auto solved = solve(
        alg, net, origin, GrPathAlgebra::make(GrClass::kCustomer, 0));
    ASSERT_TRUE(solved.converged);
    for (NodeId u = 0; u < gen.graph.node_count(); ++u) {
      if (solved.attr[u] == kUnreachable) {
        EXPECT_EQ(sweep.cls[u], kUnreachableClass);
        continue;
      }
      EXPECT_EQ(sweep.cls[u],
                static_cast<std::uint8_t>(GrPathAlgebra::class_of(
                    solved.attr[u])))
          << "origin " << origin << " node " << u;
      EXPECT_EQ(sweep.dist[u], GrPathAlgebra::path_length_of(solved.attr[u]))
          << "origin " << origin << " node " << u;
    }
  }
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
