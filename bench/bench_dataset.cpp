// §5.1 "Methodology and datasets" — regenerates the dataset table: topology
// cleaning, prefix cleaning, per-AS announcement distribution, and
// aggregation-prefix statistics, printed next to the paper's numbers.
//
// The paper cleans the UCLA-inferred topology and the CAIDA prefix-to-AS
// list; we run the identical cleaning pipeline on a synthetic dataset with
// anomalies injected at a rate chosen to mirror the papers' keep ratios
// (topology 84%/90%, prefixes 88%).
#include <cstdio>

#include "bench_common.hpp"
#include "dragon/aggregation.hpp"
#include "stats/ccdf.hpp"
#include "stats/table.hpp"
#include "topology/cleaner.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace dragon;
  util::Flags flags;
  bench::define_scenario_flags(flags);
  flags.define("anomaly-rate", "0.06",
               "fraction of announcements that are dataset anomalies");
  if (!flags.parse(argc, argv)) return 1;
  flags.print_config("bench_dataset");

  const auto scenario = bench::build_scenario(flags);
  const auto& topo = scenario.generated.graph;
  // Fork the per-demo streams from the scenario's trial seed instead of
  // hand-picked `seed + N` offsets.
  util::Rng trial_master(scenario.trial_seed);

  std::printf("\n== Topology cleaning (paper: UCLA 2013 snapshot) ==\n");
  {
    // The generated topology is clean by construction; demonstrate the
    // pipeline by injecting customer-provider cycles and an unanchored
    // island, then cleaning.
    topology::Topology dirty = topo;
    util::Rng rng = trial_master.fork();
    // Close customer->provider 3-cycles: make a node a provider of its own
    // grand-provider (the classic relationship-inference error).
    std::size_t injected_cycles = 0;
    for (int i = 0; i < 20; ++i) {
      const auto a = static_cast<topology::NodeId>(
          rng.below(dirty.node_count()));
      const auto providers = dirty.providers(a);
      if (providers.empty()) continue;
      const auto b = providers[rng.below(providers.size())];
      const auto grand = dirty.providers(b);
      if (grand.empty()) continue;
      const auto c = grand[rng.below(grand.size())];
      // Both spans are read before the link below invalidates them.
      if (c != a && !dirty.linked(a, c)) {
        dirty.add_provider_customer(a, c);
        ++injected_cycles;
      }
    }
    // An island: a small hierarchy with its own root, unpeered.
    const auto island_root = dirty.add_node();
    for (int i = 0; i < 9; ++i) {
      const auto leaf = dirty.add_node();
      dirty.add_provider_customer(island_root, leaf);
    }

    const auto [cleaned, report] = topology::clean(dirty);
    stats::Table table({"metric", "paper", "measured"});
    table.add_row({"ASs before cleaning", "46455",
                   std::to_string(report.original_nodes)});
    table.add_row({"links before cleaning", "184024",
                   std::to_string(report.original_links)});
    table.add_row({"customer-provider cycle links removed", "(fixed)",
                   std::to_string(report.cycle_links_removed)});
    table.add_row({"ASs kept", "39193 (84%)",
                   std::to_string(report.kept_nodes) + " (" +
                       stats::format_number(100.0 * report.kept_nodes /
                                            report.original_nodes, 1) +
                       "%)"});
    table.add_row({"links kept", "165235 (90%)",
                   std::to_string(report.kept_links) + " (" +
                       stats::format_number(100.0 * report.kept_links /
                                            report.original_links, 1) +
                       "%)"});
    table.add_row({"policy-connected after cleaning", "yes",
                   topology::is_policy_connected(cleaned) ? "yes" : "no"});
    table.add_row({"injected cycle links", "-",
                   std::to_string(injected_cycles)});
    table.print();
  }

  std::printf("\n== Prefix cleaning (paper: CAIDA prefix-to-AS) ==\n");
  {
    addressing::AssignmentParams aparams;
    aparams.seed = trial_master();
    aparams.anomaly_rate = flags.f64("anomaly-rate");
    const auto dirty =
        addressing::generate_assignment(scenario.generated, aparams);
    addressing::AssignmentCleanReport report;
    const auto cleaned =
        addressing::clean_assignment(topo, dirty, &report);
    stats::Table table({"metric", "paper", "measured"});
    table.add_row({"prefixes before cleaning", "491936",
                   std::to_string(report.original)});
    table.add_row({"removed: multi-origin", "(included)",
                   std::to_string(report.removed_multi_origin)});
    table.add_row({"removed: parent not from provider chain", "(included)",
                   std::to_string(report.removed_foreign_parent)});
    table.add_row({"prefixes kept", "433244 (88%)",
                   std::to_string(report.kept) + " (" +
                       stats::format_number(
                           100.0 * report.kept / report.original, 1) +
                       "%)"});
    table.print();
  }

  std::printf("\n== Per-AS announcements (cleaned, anomaly-free dataset) ==\n");
  {
    const auto& s = scenario.stats;
    stats::Table table({"metric", "paper", "measured"});
    table.add_comparison("median prefixes per AS", "2", s.median_per_as);
    table.add_comparison("p95 prefixes per AS", "33", s.p95_per_as);
    table.add_comparison("p99 prefixes per AS", "159", s.p99_per_as);
    table.add_comparison(
        "parentless fraction (%)", "~50",
        100.0 * static_cast<double>(s.parentless) /
            static_cast<double>(s.total_prefixes));
    table.add_comparison(
        "children sharing parent's origin (%)", "83",
        100.0 * static_cast<double>(s.same_origin_as_parent) /
            static_cast<double>(s.with_parent));
    table.add_row({"non-trivial prefix-trees", "25266",
                   std::to_string(s.non_trivial_trees)});
    table.add_comparison("median non-trivial tree size", "5",
                         s.median_tree_size);
    table.add_row({"ASs without a primary block (pool exhausted)", "-",
                   std::to_string(scenario.assignment.pool_exhausted)});
    table.print();
  }

  std::printf("\n== Aggregation prefixes (§3.7 / §5.1) ==\n");
  {
    const auto aggs =
        core::elect_aggregation_prefixes(topo, scenario.assignment);
    std::vector<std::uint32_t> per_as(topo.node_count(), 0);
    std::size_t covered = 0;
    for (const auto& agg : aggs) {
      covered += agg.covered.size();
      for (auto u : agg.originators) ++per_as[u];
    }
    std::vector<double> nonzero;
    for (auto c : per_as) {
      if (c > 0) nonzero.push_back(c);
    }
    stats::Table table({"metric", "paper", "measured"});
    table.add_comparison(
        "aggregation prefixes / original prefixes (%)", "~11",
        100.0 * static_cast<double>(aggs.size()) /
            static_cast<double>(scenario.assignment.size()));
    table.add_comparison(
        "ASs originating >= 1 aggregate (%)", "8",
        100.0 * static_cast<double>(nonzero.size()) /
            static_cast<double>(topo.node_count()));
    table.add_comparison("median aggregates per originating AS", "3",
                         stats::percentile(nonzero, 0.5));
    table.add_comparison("p95 aggregates per originating AS", "66",
                         stats::percentile(nonzero, 0.95));
    table.add_comparison("p99 aggregates per originating AS", "306",
                         stats::percentile(nonzero, 0.99));
    table.add_comparison(
        "parentless prefixes covered by an aggregate (%)", "-",
        100.0 * static_cast<double>(covered) /
            static_cast<double>(scenario.stats.parentless));
    table.print();
  }
  return 0;
}
