// Internet-scale DRAGON: the full pipeline on a synthetic Internet.
//
//   1. generate an Internet-like AS topology (tier-1 clique, transit,
//      stubs, multi-homing, regional peering);
//   2. assign prefixes the way registries and providers do (PI + PA +
//      traffic-engineering de-aggregates);
//   3. introduce §3.7 aggregation prefixes;
//   4. compute every AS's optimal DRAGON forwarding table and report the
//      paper's headline: ~80% fewer FIB entries.
//
// Build and run:  ./build/examples/internet_scale [--seed N] ...
#include <cstdio>
#include <limits>

#include "addressing/assignment.hpp"
#include "dragon/efficiency.hpp"
#include "stats/ccdf.hpp"
#include "topology/generator.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace dragon;
  util::Flags flags;
  flags.define_int("tier1", 8, "tier-1 ASs", 1, 1 << 16);
  flags.define_int("transit", 200, "transit ASs", 0, 1 << 24);
  flags.define_int("stubs", 1200, "stub ASs", 0, 1 << 24);
  flags.define_int("seed", 7, "scenario seed", 0,
                   std::numeric_limits<std::int64_t>::max());
  if (!flags.parse(argc, argv)) return 1;

  topology::GeneratorParams tparams;
  tparams.tier1_count = static_cast<std::uint32_t>(flags.u64("tier1"));
  tparams.transit_count = static_cast<std::uint32_t>(flags.u64("transit"));
  tparams.stub_count = static_cast<std::uint32_t>(flags.u64("stubs"));
  tparams.seed = flags.u64("seed");
  const auto gen = topology::generate_internet(tparams);
  std::printf("topology: %zu ASs, %zu links, %zu stubs (%.0f%%)\n",
              gen.graph.node_count(), gen.graph.link_count(),
              gen.graph.stubs().size(),
              100.0 * static_cast<double>(gen.graph.stubs().size()) /
                  static_cast<double>(gen.graph.node_count()));

  addressing::AssignmentParams aparams;
  aparams.seed = flags.u64("seed") + 1;
  const auto assignment = addressing::generate_assignment(gen, aparams);
  const auto stats =
      addressing::compute_stats(assignment, gen.graph.node_count());
  std::printf(
      "prefixes: %zu total, %zu parentless, median %.0f per AS "
      "(p95 %.0f, p99 %.0f)\n",
      stats.total_prefixes, stats.parentless, stats.median_per_as,
      stats.p95_per_as, stats.p99_per_as);

  core::EfficiencyOptions options;
  options.with_aggregation = true;
  const auto result =
      core::dragon_efficiency(gen.graph, assignment, options);
  std::printf(
      "aggregation: %zu aggregation prefixes introduced, originated by %zu "
      "ASs\n",
      result.aggregation_prefixes, result.aggregating_ases);

  const auto& eff = result.efficiency;
  std::printf("\nDRAGON filtering efficiency (paper: ~80%% of prefixes "
              "forgone per AS):\n");
  std::printf("  minimum  %6.2f%%\n", 100 * stats::min_of(eff));
  std::printf("  median   %6.2f%%\n", 100 * stats::percentile(eff, 0.5));
  std::printf("  mean     %6.2f%%\n", 100 * stats::mean_of(eff));
  std::printf("  maximum  %6.2f%%  (dataset bound %.2f%%)\n",
              100 * stats::max_of(eff), 100 * result.max_efficiency);

  // A concrete AS: the largest transit.
  topology::NodeId biggest = 0;
  std::size_t best_cone = 0;
  for (topology::NodeId u = 0; u < gen.graph.node_count(); ++u) {
    const auto cone = gen.graph.customer_cone_size(u);
    if (cone > best_cone && !gen.graph.is_root(u)) {
      best_cone = cone;
      biggest = u;
    }
  }
  std::printf(
      "\nlargest transit AS (customer cone %zu): %llu FIB entries instead "
      "of %zu (%.2f%% saved)\n",
      best_cone,
      static_cast<unsigned long long>(result.fib_entries[biggest]),
      assignment.size() + result.aggregation_prefixes,
      100 * eff[biggest]);
  return 0;
}
