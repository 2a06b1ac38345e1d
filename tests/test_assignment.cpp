#include "addressing/assignment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "dragon/aggregation.hpp"
#include "prefix/prefix_forest.hpp"
#include "topology/ancestry.hpp"
#include "topology/generator.hpp"
#include "util/rng.hpp"

namespace dragon::addressing {
namespace {

using topology::GeneratedTopology;
using topology::GeneratorParams;
using topology::NodeId;

GeneratedTopology small_topo(std::uint64_t seed) {
  GeneratorParams params;
  params.tier1_count = 4;
  params.transit_count = 40;
  params.stub_count = 200;
  params.seed = seed;
  return topology::generate_internet(params);
}

TEST(Assignment, DeterministicPerSeed) {
  const auto topo = small_topo(1);
  AssignmentParams params;
  params.seed = 9;
  const auto a = generate_assignment(topo, params);
  const auto b = generate_assignment(topo, params);
  EXPECT_EQ(a.prefixes, b.prefixes);
  EXPECT_EQ(a.origin, b.origin);
  params.seed = 10;
  const auto c = generate_assignment(topo, params);
  EXPECT_NE(a.prefixes, c.prefixes);
}

TEST(Assignment, EveryAsAnnouncesSomething) {
  const auto topo = small_topo(2);
  const auto assignment = generate_assignment(topo, {});
  EXPECT_EQ(assignment.pool_exhausted, 0u);
  std::vector<int> per_as(topo.graph.node_count(), 0);
  for (NodeId u : assignment.origin) ++per_as[u];
  for (NodeId u = 0; u < topo.graph.node_count(); ++u) {
    EXPECT_GE(per_as[u], 1) << "AS " << u;
  }
}

TEST(Assignment, PoolExhaustionIsCounted) {
  // 5,200 transits draw /12-/17 primaries until the regional pools run
  // dry.  Every AS left without a primary block is counted, so no AS
  // announces nothing without showing up in the count (a counted AS may
  // still announce later blocks).
  GeneratorParams params;
  params.tier1_count = 8;
  params.transit_count = 5200;
  params.stub_count = 0;
  params.seed = 1;
  const auto topo = topology::generate_internet(params);
  const auto assignment = generate_assignment(topo, {});
  EXPECT_GT(assignment.pool_exhausted, 0u);
  std::vector<bool> announces(topo.graph.node_count(), false);
  for (NodeId u : assignment.origin) announces[u] = true;
  EXPECT_LE(static_cast<std::size_t>(
                std::count(announces.begin(), announces.end(), false)),
            assignment.pool_exhausted);
}

TEST(Assignment, CleanByConstruction) {
  // Without injected anomalies, the paper's cleaning rules remove nothing:
  // no multi-origin prefixes, and every child's parent is originated by the
  // same AS or a direct/indirect provider.
  const auto topo = small_topo(3);
  const auto assignment = generate_assignment(topo, {});
  AssignmentCleanReport report;
  const auto cleaned = clean_assignment(topo.graph, assignment, &report);
  EXPECT_EQ(report.removed_multi_origin, 0u);
  EXPECT_EQ(report.removed_foreign_parent, 0u);
  EXPECT_EQ(cleaned.size(), assignment.size());
}

TEST(Assignment, ParentChainInvariant) {
  const auto topo = small_topo(4);
  const auto assignment = generate_assignment(topo, {});
  prefix::PrefixForest forest(assignment.prefixes);
  topology::AncestryCache ancestry(topo.graph);
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    const auto parent = forest.parent(i);
    if (parent == prefix::PrefixForest::kNone) continue;
    const NodeId child_origin = assignment.origin[i];
    const NodeId parent_origin =
        assignment.origin[static_cast<std::size_t>(parent)];
    EXPECT_TRUE(child_origin == parent_origin ||
                ancestry.is_ancestor(parent_origin, child_origin))
        << assignment.prefixes[i].to_cidr();
  }
}

TEST(Assignment, AnomaliesAreInjectedAndCleaned) {
  const auto topo = small_topo(5);
  AssignmentParams params;
  params.anomaly_rate = 0.1;
  const auto dirty = generate_assignment(topo, params);
  AssignmentCleanReport report;
  const auto cleaned = clean_assignment(topo.graph, dirty, &report);
  EXPECT_GT(report.removed_multi_origin + report.removed_foreign_parent, 0u);
  EXPECT_LT(cleaned.size(), dirty.size());
  // Cleaning is idempotent.
  AssignmentCleanReport report2;
  const auto cleaned2 = clean_assignment(topo.graph, cleaned, &report2);
  EXPECT_EQ(report2.removed_multi_origin, 0u);
  EXPECT_EQ(report2.removed_foreign_parent, 0u);
  EXPECT_EQ(cleaned2.size(), cleaned.size());
}

TEST(Assignment, StatsRoughlyMatchPaperShape) {
  const auto topo = small_topo(6);
  const auto assignment = generate_assignment(topo, {});
  const auto stats = compute_stats(assignment, topo.graph.node_count());

  // §5.1 anchors: median 2 prefixes per AS; ~50% parentless; 83% of
  // children share the parent's origin.  Tolerances are generous — the
  // bench reports the precise numbers.
  EXPECT_GE(stats.median_per_as, 1.0);
  EXPECT_LE(stats.median_per_as, 4.0);
  EXPECT_GT(stats.p95_per_as, stats.median_per_as);
  const double parentless_fraction =
      static_cast<double>(stats.parentless) /
      static_cast<double>(stats.total_prefixes);
  EXPECT_GT(parentless_fraction, 0.25);
  EXPECT_LT(parentless_fraction, 0.75);
  const double same_origin_fraction =
      static_cast<double>(stats.same_origin_as_parent) /
      static_cast<double>(stats.with_parent);
  EXPECT_GT(same_origin_fraction, 0.6);
  EXPECT_GT(stats.non_trivial_trees, 0u);
  EXPECT_GE(stats.median_tree_size, 2.0);
}

TEST(Assignment, PrefixesAreUniqueWithoutAnomalies) {
  const auto topo = small_topo(7);
  const auto assignment = generate_assignment(topo, {});
  std::unordered_set<prefix::Prefix> seen;
  for (const auto& p : assignment.prefixes) {
    EXPECT_TRUE(seen.insert(p).second) << p.to_cidr();
  }
}

TEST(Assignment, RegionalPoolsKeepPiPrefixesRegional) {
  // PI blocks come from the owner's regional pool: the first region_bits of
  // a parentless prefix identify a region.
  const auto topo = small_topo(8);
  const auto assignment = generate_assignment(topo, {});
  prefix::PrefixForest forest(assignment.prefixes);
  int region_bits = 0;
  std::uint32_t regions = 1;
  std::uint32_t max_region = 0;
  for (auto r : topo.region) max_region = std::max(max_region, r);
  while (regions < max_region + 1) {
    regions <<= 1;
    ++region_bits;
  }
  for (std::int32_t r : forest.roots()) {
    const auto& p = assignment.prefixes[static_cast<std::size_t>(r)];
    const auto region =
        p.bits() >> (prefix::kAddressBits - region_bits);
    EXPECT_EQ(region, topo.region[assignment.origin[static_cast<std::size_t>(r)]]);
  }
}

// ---------------------------------------------------------------------------
// §5.1 dataset anchors
// ---------------------------------------------------------------------------

/// The counts behind bench_dataset's per-AS and aggregation tables for
/// the seed-1 scenario, built the way bench::build_scenario builds it:
/// one master Rng(seed) hands out the topology seed, then the assignment
/// seed; five regions.
std::map<std::string, double> seed1_anchors(std::uint32_t tier1,
                                            std::uint32_t transit,
                                            std::uint32_t stubs) {
  util::Rng master(1);
  GeneratorParams tparams;
  tparams.tier1_count = tier1;
  tparams.transit_count = transit;
  tparams.stub_count = stubs;
  tparams.regions = 5;
  tparams.seed = master();
  const auto gen = topology::generate_internet(tparams);
  AssignmentParams aparams;
  aparams.seed = master();
  const Assignment assignment = generate_assignment(gen, aparams);
  const AssignmentStats stats =
      compute_stats(assignment, gen.graph.node_count());
  const auto aggs = core::elect_aggregation_prefixes(gen.graph, assignment);
  std::unordered_set<NodeId> originators;
  for (const auto& agg : aggs) {
    originators.insert(agg.originators.begin(), agg.originators.end());
  }
  return {{"ases", gen.graph.node_count()},
          {"prefixes", assignment.size()},
          {"parentless", stats.parentless},
          {"with_parent", stats.with_parent},
          {"same_origin_as_parent", stats.same_origin_as_parent},
          {"median_per_as", stats.median_per_as},
          {"p95_per_as", stats.p95_per_as},
          {"p99_per_as", stats.p99_per_as},
          {"aggregates", aggs.size()},
          {"aggregate_originators", originators.size()},
          {"pool_exhausted", assignment.pool_exhausted}};
}

// Default scale (8 tier-1 / 250 transit / 1,800 stubs).  bench_dataset
// prints these as 17,976 prefixes, 8,188 parentless, 2 / 27 / 155
// prefixes per AS, 82.734% same-origin children, 10.353% aggregation
// prefixes and 7.969% of ASs originating one.
TEST(DatasetAnchors, DefaultScaleSeed1) {
  const std::map<std::string, double> want{
      {"ases", 2058},          {"prefixes", 17976},
      {"parentless", 8188},    {"with_parent", 9788},
      {"same_origin_as_parent", 8098},
      {"median_per_as", 2},    {"p95_per_as", 27},
      {"p99_per_as", 155},     {"aggregates", 1861},
      {"aggregate_originators", 164},
      {"pool_exhausted", 0}};
  EXPECT_EQ(seed1_anchors(8, 250, 1800), want);
}

// --paper-scale (12 / 5,200 / 33,000) as it is today: the regional pools
// run dry, 30,160 of 38,212 ASs get no primary block, and the dataset is
// far from the paper's (61,988 prefixes, 7.5% parentless, 83.722%
// same-origin children, 1.474% aggregation prefixes, 0.063% of ASs
// originating one; ROADMAP "Paper scale first").  Sizing blocks to the
// pool must change these numbers on purpose.
TEST(DatasetAnchors, PaperScaleSeed1PinsPoolExhaustedDegenerateDataset) {
  const std::map<std::string, double> want{
      {"ases", 38212},         {"prefixes", 61988},
      {"parentless", 4635},    {"with_parent", 57353},
      {"same_origin_as_parent", 48017},
      {"median_per_as", 1},    {"p95_per_as", 21},
      {"p99_per_as", 119},     {"aggregates", 914},
      {"aggregate_originators", 24},
      {"pool_exhausted", 30160}};
  EXPECT_EQ(seed1_anchors(12, 5200, 33000), want);
}

}  // namespace
}  // namespace dragon::addressing
