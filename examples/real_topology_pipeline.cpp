// End-to-end pipeline on a real AS-relationship dataset.
//
// The evaluation harnesses default to the synthetic Internet generator
// (see DESIGN.md), but every stage runs unchanged on the real datasets the
// paper used.  Given a CAIDA/UCLA-format file ("as1|as2|-1" provider,
// "as1|as2|0" peer), this tool:
//
//   1. loads the topology;
//   2. applies the paper's §5.1 cleaning (breaks customer-provider cycles,
//      keeps the largest policy-connected sub-topology);
//   3. synthesises a hierarchy-aligned prefix assignment for it (replace
//      with a real prefix-to-AS mapping by extending the loader);
//   4. introduces §3.7 aggregation prefixes and computes every AS's
//      optimal DRAGON forwarding table;
//   5. prints the per-AS filtering-efficiency summary (the Fig. 8 numbers).
//
// Usage:  ./build/examples/real_topology_pipeline --file as-rel.txt
// Without --file it demonstrates the pipeline on a small generated file.
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "addressing/assignment.hpp"
#include "dragon/efficiency.hpp"
#include "stats/ccdf.hpp"
#include "topology/cleaner.hpp"
#include "topology/generator.hpp"
#include "topology/loader.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace dragon;
  util::Flags flags;
  flags.define("file", "", "AS-relationship file (as1|as2|rel per line)");
  flags.define_int("seed", 3, "seed for the synthetic prefix assignment", 0,
                   std::numeric_limits<std::int64_t>::max());
  if (!flags.parse(argc, argv)) return 1;

  // 1. Load (or fabricate a demonstration file).
  topology::LoadedTopology loaded;
  if (!flags.str("file").empty()) {
    loaded = topology::load_as_relationships_file(flags.str("file"));
    std::printf("loaded %zu ASs / %zu links from %s (%zu lines skipped)\n",
                loaded.graph.node_count(), loaded.graph.link_count(),
                flags.str("file").c_str(), loaded.skipped_lines);
  } else {
    std::printf("no --file given; demonstrating on a generated dataset\n");
    topology::GeneratorParams params;
    params.tier1_count = 6;
    params.transit_count = 120;
    params.stub_count = 900;
    params.seed = flags.u64("seed");
    const auto gen = topology::generate_internet(params);
    std::ostringstream buffer;
    topology::save_as_relationships(gen.graph, buffer);
    std::istringstream in(buffer.str());
    loaded = topology::load_as_relationships(in);
    std::printf("generated %zu ASs / %zu links\n", loaded.graph.node_count(),
                loaded.graph.link_count());
  }

  // 2. Clean (§5.1): break cycles, keep the policy-connected core.
  const auto [cleaned, report] = topology::clean(loaded.graph);
  std::printf(
      "cleaning: removed %zu cycle links, kept %zu/%zu ASs and %zu/%zu "
      "links; policy-connected: %s\n",
      report.cycle_links_removed, report.kept_nodes, report.original_nodes,
      report.kept_links, report.original_links,
      topology::is_policy_connected(cleaned) ? "yes" : "no");

  // 3. Prefix assignment aligned with the cleaned hierarchy.  Roles and
  // regions are re-derived from the cleaned graph so this works for real
  // files too.
  topology::GeneratedTopology view;
  view.graph = cleaned;
  view.role.resize(cleaned.node_count());
  view.region.resize(cleaned.node_count());
  util::Rng region_rng(flags.u64("seed") + 1);
  for (topology::NodeId u = 0; u < cleaned.node_count(); ++u) {
    view.role[u] = cleaned.is_root(u)      ? topology::Role::kTier1
                   : cleaned.is_stub(u)    ? topology::Role::kStub
                                           : topology::Role::kTransit;
    view.region[u] = static_cast<std::uint32_t>(region_rng.below(5));
  }
  addressing::AssignmentParams aparams;
  aparams.seed = flags.u64("seed") + 2;
  const auto assignment = addressing::generate_assignment(view, aparams);
  const auto stats =
      addressing::compute_stats(assignment, cleaned.node_count());
  std::printf("prefixes: %zu (%zu parentless), median %.0f per AS\n",
              stats.total_prefixes, stats.parentless, stats.median_per_as);

  // 4 + 5. DRAGON with aggregation prefixes.
  core::EfficiencyOptions options;
  options.with_aggregation = true;
  const auto result = core::dragon_efficiency(cleaned, assignment, options);
  const auto& eff = result.efficiency;
  std::printf(
      "\nDRAGON: %zu aggregation prefixes (by %zu ASs); filtering "
      "efficiency min %.2f%% / median %.2f%% / max %.2f%% (bound %.2f%%)\n",
      result.aggregation_prefixes, result.aggregating_ases,
      100 * stats::min_of(eff), 100 * stats::percentile(eff, 0.5),
      100 * stats::max_of(eff), 100 * result.max_efficiency);
  return 0;
}
