#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "addressing/assignment.hpp"
#include "algebra/gr_algebra.hpp"
#include "dragon/aggregation.hpp"
#include "dragon/efficiency.hpp"
#include "dragon/filtering.hpp"
#include "paper_networks.hpp"
#include "prefix/prefix_forest.hpp"
#include "routecomp/gr_sweep.hpp"
#include "topology/generator.hpp"
#include "util/rng.hpp"

namespace dragon::core {
namespace {

using addressing::Assignment;
using algebra::attr;
using algebra::GrClass;
using prefix::Prefix;
using topology::NodeId;
using F1 = testing::Figure1;

Prefix bp(const char* s) { return *Prefix::from_bit_string(s); }

TEST(AggregationElection, Figure5BothProvidersOriginate) {
  const auto topo = testing::Figure5::topology();
  using F5 = testing::Figure5;
  Assignment assignment;
  assignment.prefixes = {bp("100"), bp("1010"), bp("1011")};
  assignment.origin = {F5::t1, F5::t2, F5::t3};
  const auto aggs = elect_aggregation_prefixes(topo, assignment);
  ASSERT_EQ(aggs.size(), 1u);
  EXPECT_EQ(aggs[0].aggregate, bp("10"));
  auto originators = aggs[0].originators;
  std::sort(originators.begin(), originators.end());
  // The minimal common cone ancestors of {t1, t2, t3} are u3 and u4.
  EXPECT_EQ(originators, (std::vector<NodeId>{F5::u3, F5::u4}));
}

TEST(AggregationElection, Figure6LowestAncestorWins) {
  const auto topo = testing::Figure6::topology();
  using F6 = testing::Figure6;
  Assignment assignment;
  assignment.prefixes = {bp("100"), bp("1010"), bp("1011")};
  assignment.origin = {F6::t1, F6::t2, F6::t3};
  const auto aggs = elect_aggregation_prefixes(topo, assignment);
  ASSERT_EQ(aggs.size(), 1u);
  // u1 and u2 both cover all origins; u2 is the minimal one.
  EXPECT_EQ(aggs[0].originators, std::vector<NodeId>{F6::u2});
}

TEST(AggregationElection, NoCommonAncestorMeansNoAggregate) {
  // Two separate hierarchies joined by a peer link at the top: the PI
  // prefixes tile an aggregate, but no AS elects customer routes for both.
  topology::Topology topo(4);
  topo.add_peer_peer(0, 1);
  topo.add_provider_customer(0, 2);
  topo.add_provider_customer(1, 3);
  Assignment assignment;
  assignment.prefixes = {bp("10"), bp("11")};
  assignment.origin = {2, 3};
  const auto aggs = elect_aggregation_prefixes(topo, assignment);
  EXPECT_TRUE(aggs.empty());
}

TEST(Efficiency, Figure1PairCountsMatchPairRun) {
  const auto topo = F1::topology();
  Assignment assignment;
  assignment.prefixes = {bp("10"), bp("10000")};
  assignment.origin = {F1::origin_p, F1::origin_q};
  const auto result = dragon_efficiency(topo, assignment, {});

  // From §3.1: u2 and u5 filter, u1 is oblivious -> those three forgo q and
  // hold 1 entry; the others hold 2.
  EXPECT_EQ(result.fib_entries[F1::u1], 1u);
  EXPECT_EQ(result.fib_entries[F1::u2], 1u);
  EXPECT_EQ(result.fib_entries[F1::u5], 1u);
  EXPECT_EQ(result.fib_entries[F1::u3], 2u);
  EXPECT_EQ(result.fib_entries[F1::u4], 2u);
  EXPECT_EQ(result.fib_entries[F1::u6], 2u);
  EXPECT_DOUBLE_EQ(result.efficiency[F1::u2], 0.5);
  EXPECT_DOUBLE_EQ(result.efficiency[F1::u3], 0.0);
  EXPECT_DOUBLE_EQ(result.max_efficiency, 0.5);
}

TEST(Efficiency, SameOriginChildrenForgoneEverywhereButOrigin) {
  const auto topo = F1::topology();
  Assignment assignment;
  // u4 announces p and a TE de-aggregate of p: every other AS forgoes it.
  assignment.prefixes = {bp("10"), bp("100")};
  assignment.origin = {F1::origin_p, F1::origin_p};
  const auto result = dragon_efficiency(topo, assignment, {});
  for (NodeId u = 0; u < topo.node_count(); ++u) {
    EXPECT_EQ(result.fib_entries[u], u == F1::origin_p ? 2u : 1u) << u;
  }
}

TEST(Efficiency, AggregationCoversParentlessPrefixes) {
  const auto topo = testing::Figure6::topology();
  using F6 = testing::Figure6;
  Assignment assignment;
  assignment.prefixes = {bp("100"), bp("1010"), bp("1011")};
  assignment.origin = {F6::t1, F6::t2, F6::t3};

  const auto without = dragon_efficiency(topo, assignment, {});
  // No prefix has a parent: nothing can be filtered.
  for (NodeId u = 0; u < topo.node_count(); ++u) {
    EXPECT_EQ(without.fib_entries[u], 3u);
    EXPECT_DOUBLE_EQ(without.efficiency[u], 0.0);
  }

  EfficiencyOptions options;
  options.with_aggregation = true;
  const auto with = dragon_efficiency(topo, assignment, options);
  EXPECT_EQ(with.aggregation_prefixes, 1u);
  EXPECT_EQ(with.aggregating_ases, 1u);
  EXPECT_EQ(with.agg_per_as[F6::u2], 1u);
  // u1 forgoes all three PI prefixes and keeps only the aggregate.
  EXPECT_EQ(with.fib_entries[F6::u1], 1u);
  EXPECT_DOUBLE_EQ(with.efficiency[F6::u1], 2.0 / 3.0);
  // The originator u2 keeps everything plus the aggregate.
  EXPECT_EQ(with.fib_entries[F6::u2], 4u);
  // The PI owners filter the other PI prefixes (provider routes for both
  // the aggregate parent and the siblings).
  EXPECT_EQ(with.fib_entries[F6::t1], 2u);  // own PI + aggregate
}

class EfficiencyCrossCheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EfficiencyCrossCheck, ClosedFormMatchesIteratedPairRuns) {
  // dragon_efficiency computes the optimal forgo set in closed form
  // (Theorem 4); run_dragon_pair iterates code CR to its fixpoint.  They
  // must count the same per-AS forgone prefixes.
  topology::GeneratorParams tparams;
  tparams.tier1_count = 3;
  tparams.transit_count = 15;
  tparams.stub_count = 50;
  tparams.seed = GetParam();
  const auto gen = topology::generate_internet(tparams);

  addressing::AssignmentParams aparams;
  aparams.seed = GetParam() + 100;
  aparams.max_prefixes_per_as = 12;
  const auto assignment = generate_assignment(gen, aparams);

  const auto result = dragon_efficiency(gen.graph, assignment, {});

  const auto net = routecomp::LabeledNetwork::from_topology(gen.graph);
  algebra::GrAlgebra gr;
  prefix::PrefixForest forest(assignment.prefixes);
  std::vector<std::uint64_t> forgone(gen.graph.node_count(), 0);
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    const auto parent = forest.parent(i);
    if (parent == prefix::PrefixForest::kNone) continue;
    const auto run = run_dragon_pair(
        gr, net, assignment.origin[static_cast<std::size_t>(parent)],
        attr(GrClass::kCustomer), assignment.origin[i],
        attr(GrClass::kCustomer));
    ASSERT_TRUE(run.converged);
    const auto forgo = run.forgo();
    for (NodeId u = 0; u < gen.graph.node_count(); ++u) {
      forgone[u] += static_cast<std::uint64_t>(forgo[u]);
    }
  }
  for (NodeId u = 0; u < gen.graph.node_count(); ++u) {
    const auto expect = assignment.size() - forgone[u];
    EXPECT_EQ(result.fib_entries[u], expect) << "AS " << u;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EfficiencyCrossCheck,
                         ::testing::Values(61, 62, 63));

// At X = infinity dragon_efficiency takes a sparse path when every node
// elects a route for every origin.  slack_x = 65535 means the same (no AS
// path is longer) but always takes the dense path, so it is the oracle.
void expect_matches_dense_oracle(const topology::Topology& topo,
                                 const Assignment& assignment,
                                 bool with_aggregation) {
  EfficiencyOptions options;
  options.with_aggregation = with_aggregation;
  EfficiencyOptions oracle = options;
  oracle.slack_x = 65535;
  const auto got = dragon_efficiency(topo, assignment, options);
  const auto want = dragon_efficiency(topo, assignment, oracle);
  EXPECT_EQ(got.fib_entries, want.fib_entries);
  EXPECT_EQ(got.efficiency, want.efficiency);
  EXPECT_EQ(got.aggregation_prefixes, want.aggregation_prefixes);
  EXPECT_EQ(got.aggregating_ases, want.aggregating_ases);
  EXPECT_EQ(got.max_efficiency, want.max_efficiency);
}

class SparseEfficiency : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SparseEfficiency, MatchesDenseOracle) {
  const std::uint64_t seed = GetParam();
  topology::GeneratorParams tparams;
  tparams.tier1_count = 3 + static_cast<std::uint32_t>(seed % 4);
  tparams.transit_count = 10 + static_cast<std::uint32_t>((seed * 7) % 31);
  tparams.stub_count = 40 + static_cast<std::uint32_t>((seed * 13) % 111);
  tparams.transit_peering_degree = 0.5 + 0.5 * static_cast<double>(seed % 6);
  tparams.seed = seed;
  const auto gen = topology::generate_internet(tparams);
  // Every node routes to every origin, so the sparse path is taken.
  const auto sweep = routecomp::gr_sweep(gen.graph, 0);
  ASSERT_EQ(std::count(sweep.cls.begin(), sweep.cls.end(),
                       routecomp::kUnreachableClass),
            0);

  addressing::AssignmentParams aparams;
  aparams.seed = seed + 500;
  aparams.max_prefixes_per_as = 12;
  aparams.anomaly_rate = 0.1;
  const auto raw = generate_assignment(gen, aparams);
  const auto cleaned = addressing::clean_assignment(gen.graph, raw);
  for (const Assignment* assignment : {&raw, &cleaned}) {
    for (const bool with_aggregation : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << (assignment == &raw ? "raw" : "cleaned")
                   << (with_aggregation ? " agg" : " def"));
      expect_matches_dense_oracle(gen.graph, *assignment, with_aggregation);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseEfficiency,
                         ::testing::Range<std::uint64_t>(101, 125));

TEST(SparseEfficiency, RootsThatDoNotPeerTakeTheDensePath) {
  // Roots 0 and 1 do not peer; 3 is a customer of both, 2 of 0, 4 of 1.
  // Node 4 has no route to p (originated by 2), so it keeps q.
  topology::Topology topo(5);
  topo.add_provider_customer(0, 2);
  topo.add_provider_customer(0, 3);
  topo.add_provider_customer(1, 3);
  topo.add_provider_customer(1, 4);
  Assignment assignment;
  assignment.prefixes = {bp("10"), bp("100")};
  assignment.origin = {2, 3};
  const auto result = dragon_efficiency(topo, assignment, {});
  EXPECT_EQ(result.fib_entries, (std::vector<std::uint64_t>{1, 2, 2, 2, 2}));
  expect_matches_dense_oracle(topo, assignment, false);
  expect_matches_dense_oracle(topo, assignment, true);
}

TEST(SparseEfficiency, RootlessCycleTakesTheDensePath) {
  // Root 0 with customers 1 and 2, and beside it a customer-provider
  // cycle 3 -> 4 -> 5 -> 3 with no root above it.  The roots peer
  // pairwise (there is one), yet no origin outside the cycle reaches its
  // nodes, so they keep both prefixes.
  topology::Topology topo(6);
  topo.add_provider_customer(0, 1);
  topo.add_provider_customer(0, 2);
  topo.add_provider_customer(4, 3);
  topo.add_provider_customer(5, 4);
  topo.add_provider_customer(3, 5);
  Assignment assignment;
  assignment.prefixes = {bp("10"), bp("100")};
  assignment.origin = {1, 2};
  const auto result = dragon_efficiency(topo, assignment, {});
  EXPECT_EQ(result.fib_entries,
            (std::vector<std::uint64_t>{1, 2, 2, 2, 2, 2}));
  expect_matches_dense_oracle(topo, assignment, false);
  expect_matches_dense_oracle(topo, assignment, true);
}

TEST(SparseEfficiency, AggregateWithoutOriginatorsIsForgoneNowhere) {
  // Root 0 above a customer-provider cycle 1 -> 2 -> 3 -> 1 (each the
  // provider of the next), with stub 4 under 2 and stub 5 under 3.  Every
  // node descends from the root, so the sparse path applies.  The stubs'
  // common ancestors {0, 1, 2, 3} each sit above another, so the
  // aggregate of their PI prefixes has no minimal originator: no AS
  // routes it, and nobody forgoes a covered prefix.
  topology::Topology topo(6);
  topo.add_provider_customer(0, 1);
  topo.add_provider_customer(1, 2);
  topo.add_provider_customer(2, 3);
  topo.add_provider_customer(3, 1);
  topo.add_provider_customer(2, 4);
  topo.add_provider_customer(3, 5);
  Assignment assignment;
  assignment.prefixes = {bp("100"), bp("101")};
  assignment.origin = {4, 5};
  const auto aggs = elect_aggregation_prefixes(topo, assignment);
  ASSERT_EQ(aggs.size(), 1u);
  EXPECT_TRUE(aggs[0].originators.empty());
  EfficiencyOptions options;
  options.with_aggregation = true;
  const auto result = dragon_efficiency(topo, assignment, options);
  EXPECT_EQ(result.fib_entries, (std::vector<std::uint64_t>(6, 3)));
  expect_matches_dense_oracle(topo, assignment, true);
}

TEST(PartialDeploymentEfficiency, NobodyDeployedMeansNoFiltering) {
  const auto topo = F1::topology();
  Assignment assignment;
  assignment.prefixes = {bp("10"), bp("10000")};
  assignment.origin = {F1::origin_p, F1::origin_q};
  const std::vector<char> nobody(topo.node_count(), 0);
  const auto eff = partial_deployment_efficiency(topo, assignment, nobody);
  for (double e : eff) EXPECT_DOUBLE_EQ(e, 0.0);
}

TEST(PartialDeploymentEfficiency, FullDeploymentMatchesClosedForm) {
  const auto topo = F1::topology();
  Assignment assignment;
  assignment.prefixes = {bp("10"), bp("10000")};
  assignment.origin = {F1::origin_p, F1::origin_q};
  const std::vector<char> everyone(topo.node_count(), 1);
  const auto eff = partial_deployment_efficiency(topo, assignment, everyone);
  const auto full = dragon_efficiency(topo, assignment, {});
  for (NodeId u = 0; u < topo.node_count(); ++u) {
    EXPECT_DOUBLE_EQ(eff[u], full.efficiency[u]) << u;
  }
}

TEST(PartialDeploymentEfficiency, DeploymentOnlyAddsFiltering) {
  const auto topo = F1::topology();
  Assignment assignment;
  assignment.prefixes = {bp("10"), bp("10000")};
  assignment.origin = {F1::origin_p, F1::origin_q};
  std::vector<char> only_u2(topo.node_count(), 0);
  only_u2[F1::u2] = 1;
  const auto eff = partial_deployment_efficiency(topo, assignment, only_u2);
  // u2 filters; u1 becomes oblivious although it did not deploy (§3.1).
  EXPECT_DOUBLE_EQ(eff[F1::u2], 0.5);
  EXPECT_DOUBLE_EQ(eff[F1::u1], 0.5);
  EXPECT_DOUBLE_EQ(eff[F1::u5], 0.0);  // still learns q from u3
}

}  // namespace
}  // namespace dragon::core
