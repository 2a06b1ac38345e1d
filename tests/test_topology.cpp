#include <gtest/gtest.h>

#include <sstream>

#include "paper_networks.hpp"
#include "topology/cleaner.hpp"
#include "topology/generator.hpp"
#include "topology/graph.hpp"
#include "topology/loader.hpp"

namespace dragon::topology {
namespace {

/// A relation list's elements, to compare with a vector.
std::vector<NodeId> ids(std::span<const NodeId> list) {
  return {list.begin(), list.end()};
}

TEST(Topology, BasicAdjacency) {
  Topology topo(3);
  topo.add_provider_customer(0, 1);
  topo.add_peer_peer(1, 2);
  EXPECT_EQ(topo.node_count(), 3u);
  EXPECT_EQ(topo.link_count(), 2u);
  EXPECT_TRUE(topo.linked(0, 1));
  EXPECT_TRUE(topo.linked(1, 0));
  EXPECT_FALSE(topo.linked(0, 2));

  EXPECT_EQ(ids(topo.customers(0)), std::vector<NodeId>{1});
  EXPECT_EQ(ids(topo.providers(1)), std::vector<NodeId>{0});
  EXPECT_EQ(ids(topo.peers(1)), std::vector<NodeId>{2});
  EXPECT_TRUE(topo.is_root(0));
  EXPECT_FALSE(topo.is_stub(0));
  EXPECT_TRUE(topo.is_stub(1));
}

TEST(Topology, RemoveLink) {
  Topology topo(2);
  topo.add_provider_customer(0, 1);
  EXPECT_TRUE(topo.remove_link(1, 0));
  EXPECT_FALSE(topo.remove_link(1, 0));
  EXPECT_EQ(topo.link_count(), 0u);
  EXPECT_FALSE(topo.linked(0, 1));
}

/// Every node's relation lists equal neighbors() filtered by relation, in
/// order, and the O(1) counts equal the filtered counts.
void expect_lists_match_adjacency(const Topology& topo) {
  for (NodeId u = 0; u < topo.node_count(); ++u) {
    std::vector<NodeId> providers;
    std::vector<NodeId> peers;
    std::vector<NodeId> customers;
    for (const Neighbor& nb : topo.neighbors(u)) {
      (nb.rel == Rel::kProvider ? providers
       : nb.rel == Rel::kPeer   ? peers
                                : customers)
          .push_back(nb.id);
    }
    ASSERT_EQ(ids(topo.providers(u)), providers) << "node " << u;
    ASSERT_EQ(ids(topo.peers(u)), peers) << "node " << u;
    ASSERT_EQ(ids(topo.customers(u)), customers) << "node " << u;
    ASSERT_EQ(topo.provider_count(u), providers.size()) << "node " << u;
    ASSERT_EQ(topo.customer_count(u), customers.size()) << "node " << u;
    ASSERT_EQ(topo.is_root(u), providers.empty()) << "node " << u;
    ASSERT_EQ(topo.is_stub(u), customers.empty()) << "node " << u;
  }
}

TEST(Topology, RelationListsFollowEveryEdit) {
  GeneratorParams params;
  params.tier1_count = 4;
  params.transit_count = 30;
  params.stub_count = 120;
  params.seed = 19;
  Topology topo = generate_internet(params).graph;
  expect_lists_match_adjacency(topo);

  // A seeded series of edits: an unlinked pair gains a provider-customer or
  // a peer link, a linked pair loses its link (from either end).
  util::Rng rng(19);
  std::size_t added = 0;
  std::size_t removed = 0;
  for (int step = 0; step < 400; ++step) {
    const auto a = static_cast<NodeId>(rng.below(topo.node_count()));
    const auto b = static_cast<NodeId>(rng.below(topo.node_count()));
    if (a == b) continue;
    if (topo.linked(a, b)) {
      ASSERT_TRUE(topo.remove_link(a, b));
      ++removed;
    } else if (rng.chance(0.5)) {
      topo.add_provider_customer(a, b);
      ++added;
    } else {
      topo.add_peer_peer(a, b);
      ++added;
    }
    SCOPED_TRACE(::testing::Message() << "step " << step);
    expect_lists_match_adjacency(topo);
  }
  // Node 0, a tier-1 with peers and customers, loses every link.
  while (!topo.neighbors(0).empty()) {
    ASSERT_TRUE(topo.remove_link(topo.neighbors(0).back().id, 0));
    ++removed;
    expect_lists_match_adjacency(topo);
  }
  EXPECT_GT(added, 100u);
  EXPECT_GT(removed, 10u);

  // clean() breaks the cycles the edits made with remove_link and rebuilds
  // the kept part with add_node and the add_* calls.
  const auto [cleaned, report] = clean(topo);
  EXPECT_GT(report.cycle_links_removed, 0u);
  expect_lists_match_adjacency(cleaned);

  // A copy is deep: editing it leaves the original as it was.
  Topology copy = topo;
  const Topology::Link first = topo.links().front();
  ASSERT_TRUE(copy.remove_link(first.a, first.b));
  const NodeId fresh = copy.add_node();
  copy.add_provider_customer(first.a, fresh);
  copy.add_peer_peer(first.b, fresh);
  expect_lists_match_adjacency(copy);
  expect_lists_match_adjacency(topo);
  EXPECT_TRUE(topo.linked(first.a, first.b));
  EXPECT_EQ(topo.node_count() + 1, copy.node_count());
}

TEST(Topology, LinksReportedOnce) {
  const auto topo = testing::Figure1::topology();
  const auto links = topo.links();
  EXPECT_EQ(links.size(), topo.link_count());
  EXPECT_EQ(links.size(), 7u);
}

TEST(Topology, CustomerConeSize) {
  const auto topo = testing::Figure1::topology();
  using F = testing::Figure1;
  // u2's cone: itself, customers u3 and u4, and their customers u5, u6.
  EXPECT_EQ(topo.customer_cone_size(F::u2), 5u);
  EXPECT_EQ(topo.customer_cone_size(F::u6), 1u);
  EXPECT_EQ(topo.customer_cone_size(F::u4), 2u);  // u4 and u6
}

TEST(Loader, ParsesCaidaFormat) {
  std::istringstream in(
      "# inferred relationships\n"
      "100|200|-1\n"
      "200|300|-1\n"
      "100|400|0\n"
      "400|300|-1|mlp\n");  // extra source field tolerated
  const auto loaded = load_as_relationships(in);
  EXPECT_EQ(loaded.graph.node_count(), 4u);
  EXPECT_EQ(loaded.graph.link_count(), 4u);
  EXPECT_EQ(loaded.asn[0], 100u);
  // 100 is provider of 200.
  EXPECT_EQ(ids(loaded.graph.customers(0)), std::vector<NodeId>{1});
  EXPECT_EQ(ids(loaded.graph.peers(0)), std::vector<NodeId>{3});
}

TEST(Loader, SkipsDuplicatesAndSelfLoops) {
  std::istringstream in(
      "1|2|-1\n"
      "1|2|0\n"
      "3|3|-1\n");
  const auto loaded = load_as_relationships(in);
  EXPECT_EQ(loaded.graph.link_count(), 1u);
  EXPECT_EQ(loaded.skipped_lines, 2u);
}

TEST(Loader, RejectsMalformedLines) {
  std::istringstream bad1("1|2\n");
  EXPECT_THROW((void)load_as_relationships(bad1), std::runtime_error);
  std::istringstream bad2("1|2|9\n");
  EXPECT_THROW((void)load_as_relationships(bad2), std::runtime_error);
  std::istringstream bad3("x|2|-1\n");
  EXPECT_THROW((void)load_as_relationships(bad3), std::runtime_error);
}

TEST(Loader, SaveLoadRoundTrip) {
  const auto topo = testing::Figure4::topology();
  std::ostringstream out;
  save_as_relationships(topo, out);
  std::istringstream in(out.str());
  const auto loaded = load_as_relationships(in);
  EXPECT_EQ(loaded.graph.node_count(), topo.node_count());
  EXPECT_EQ(loaded.graph.link_count(), topo.link_count());
}

TEST(Cleaner, BreaksCustomerProviderCycle) {
  Topology topo(3);
  // 0 provider of 1, 1 provider of 2, 2 provider of 0: a customer-provider
  // cycle (each node is a customer of the next around the cycle).
  topo.add_provider_customer(0, 1);
  topo.add_provider_customer(1, 2);
  topo.add_provider_customer(2, 0);
  const auto removed = break_customer_provider_cycles(topo);
  EXPECT_EQ(removed, 1u);
  EXPECT_EQ(topo.link_count(), 2u);
  // Re-running is a no-op.
  Topology again = topo;
  EXPECT_EQ(break_customer_provider_cycles(again), 0u);
}

TEST(Cleaner, PolicyConnectivityCheck) {
  // Two disjoint hierarchies: not policy-connected.
  Topology topo(4);
  topo.add_provider_customer(0, 1);
  topo.add_provider_customer(2, 3);
  EXPECT_FALSE(is_policy_connected(topo));
  // Peering the roots connects them.
  topo.add_peer_peer(0, 2);
  EXPECT_TRUE(is_policy_connected(topo));
}

TEST(Cleaner, CleanKeepsLargestAnchoredComponent) {
  Topology topo(6);
  // Roots 0 and 1 peer (the clique); root 5 is isolated on top of node 4.
  topo.add_peer_peer(0, 1);
  topo.add_provider_customer(0, 2);
  topo.add_provider_customer(1, 3);
  topo.add_provider_customer(5, 4);
  const auto [cleaned, report] = clean(topo);
  EXPECT_EQ(report.original_nodes, 6u);
  EXPECT_EQ(cleaned.node_count(), 4u);
  EXPECT_EQ(report.nodes_removed, 2u);
  EXPECT_TRUE(is_policy_connected(cleaned));
}

TEST(Cleaner, FigureNetworksAlreadyClean) {
  for (const Topology& topo :
       {testing::Figure1::topology(), testing::Figure4::topology()}) {
    const auto [cleaned, report] = clean(topo);
    EXPECT_EQ(report.nodes_removed, 0u);
    EXPECT_EQ(report.cycle_links_removed, 0u);
    EXPECT_EQ(cleaned.link_count(), topo.link_count());
  }
}

class GeneratorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorProperty, StructuralInvariants) {
  GeneratorParams params;
  params.tier1_count = 6;
  params.transit_count = 60;
  params.stub_count = 300;
  params.seed = GetParam();
  const auto gen = generate_internet(params);
  const auto& topo = gen.graph;
  EXPECT_EQ(topo.node_count(), 366u);

  // Acyclic customer->provider digraph: the cleaner finds nothing.
  Topology copy = topo;
  EXPECT_EQ(break_customer_provider_cycles(copy), 0u);

  // Policy-connected by construction (tier-1 clique on top).
  EXPECT_TRUE(is_policy_connected(topo));

  // Roots are exactly the tier-1 nodes.
  for (NodeId u = 0; u < topo.node_count(); ++u) {
    EXPECT_EQ(topo.is_root(u), gen.role[u] == Role::kTier1);
    if (gen.role[u] == Role::kStub) EXPECT_TRUE(topo.is_stub(u));
  }

  // Determinism: same seed, same graph.
  const auto again = generate_internet(params);
  EXPECT_EQ(again.graph.link_count(), topo.link_count());
  EXPECT_EQ(again.region, gen.region);
}

TEST_P(GeneratorProperty, IxpPeeringAddsOnlySameRegionPeerLinks) {
  GeneratorParams params;
  params.tier1_count = 5;
  params.transit_count = 50;
  params.stub_count = 200;
  params.seed = GetParam();
  auto gen = generate_internet(params);
  const auto before = gen.graph.link_count();
  util::Rng rng(99);
  const auto added = add_ixp_peering(gen, 100, rng);
  EXPECT_EQ(gen.graph.link_count(), before + added);
  EXPECT_GT(added, 0u);
  EXPECT_TRUE(is_policy_connected(gen.graph));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace dragon::topology
