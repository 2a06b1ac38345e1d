// §5.1 "Accounting for missing peering links" — the paper adds IXP-style
// peering links to compensate for the known undercount in inferred
// topologies and finds DRAGON's medians move by <1%: its gains come from
// the provider-customer hierarchy / prefix alignment, not from peering.
// This harness reproduces that sensitivity sweep.
#include <cstdio>

#include "bench_common.hpp"
#include "dragon/efficiency.hpp"
#include "stats/ccdf.hpp"
#include "stats/table.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace dragon;
  util::Flags flags;
  bench::define_scenario_flags(flags);
  flags.define_int_list("extra-peering-pct", {25, 50, 100},
                        "extra IXP peer links to add, as whole % of the "
                        "original link count (comma separated)",
                        0, 1000);
  if (!flags.parse(argc, argv)) return 1;
  flags.print_config("bench_peering_sensitivity");

  auto scenario = bench::build_scenario(flags);
  const auto base = core::dragon_efficiency(scenario.generated.graph,
                                            scenario.assignment, {});
  core::EfficiencyOptions agg_options;
  agg_options.with_aggregation = true;
  const auto base_agg = core::dragon_efficiency(scenario.generated.graph,
                                                scenario.assignment,
                                                agg_options);

  const double median_def = stats::percentile(base.efficiency, 0.5);
  const double median_agg = stats::percentile(base_agg.efficiency, 0.5);

  stats::Table table({"extra peer links", "median def (%)", "median agg (%)",
                      "shift def (pp)", "shift agg (pp)"});
  table.add_row({"0 (baseline)", stats::format_number(100 * median_def),
                 stats::format_number(100 * median_agg), "0", "0"});

  util::Rng rng(scenario.trial_seed);
  for (const std::int64_t whole_pct : flags.i64_list("extra-peering-pct")) {
    const auto pct = static_cast<double>(whole_pct);
    auto augmented = scenario.generated;  // deep copy, fresh each level
    const auto extra = static_cast<std::size_t>(
        pct / 100.0 * static_cast<double>(augmented.graph.link_count()));
    const auto added = topology::add_ixp_peering(augmented, extra, rng);
    const auto def =
        core::dragon_efficiency(augmented.graph, scenario.assignment, {});
    const auto agg = core::dragon_efficiency(augmented.graph,
                                             scenario.assignment, agg_options);
    const double med_def = stats::percentile(def.efficiency, 0.5);
    const double med_agg = stats::percentile(agg.efficiency, 0.5);
    table.add_row({std::to_string(added) + " (+" +
                       stats::format_number(pct) + "%)",
                   stats::format_number(100 * med_def),
                   stats::format_number(100 * med_agg),
                   stats::format_number(100 * (med_def - median_def)),
                   stats::format_number(100 * (med_agg - median_agg))});
  }
  table.print();
  std::printf(
      "\npaper: median filtering efficiency moves by <1 percentage point "
      "when IXP peering links are added.\n");
  return 0;
}
