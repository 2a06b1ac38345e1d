// Figure 9 — transient behaviour upon link failures: CCDF of the number of
// routes (announcements + withdrawals) exchanged network-wide until the
// system re-stabilises, DRAGON vs standard BGP, on non-trivial
// prefix-trees.
//
// Left plot: failures that do NOT cause de-aggregation (99.97% of failures
// in the paper).  Right plot: failures that DO (0.03%).  Headline numbers
// checked against §5.3:
//   * DRAGON exchanges fewer routes than BGP in ~95% of the cases and less
//     than half in >50%;
//   * >100 routes in ~5% (DRAGON) vs ~15% (BGP) of the cases;
//   * DRAGON sends zero routes for ~40% of failures, BGP for <2%;
//   * with de-aggregation DRAGON can exceed BGP, but never by more than
//     one order of magnitude.
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "bench_common.hpp"
#include "algebra/gr_path_algebra.hpp"
#include "chaos/watchdog.hpp"
#include "engine/simulator.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "prefix/prefix_forest.hpp"
#include "stats/ccdf.hpp"
#include "stats/table.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace {

using namespace dragon;
using algebra::GrClass;
using algebra::GrPathVectorAlgebra;
using topology::NodeId;

constexpr algebra::Attr kOriginAttr =
    GrPathVectorAlgebra::make(GrClass::kCustomer, 0);

engine::Config make_config(bool dragon, std::uint64_t seed) {
  engine::Config config;
  config.mrai = 30.0;  // the paper's default MRAI
  config.link_delay = 0.01;
  config.enable_dragon = dragon;
  // §5.3: "For simplicity, we do not consider the case where new
  // aggregation prefixes are introduced."  The self-organised
  // re-origination of §3.8 can churn on complex multi-level trees — the
  // very interaction the paper flags as future work ("ensuring that the
  // combination of de-aggregates into an aggregation prefix at a
  // different AS occurs before the de-aggregates are propagated") — so the
  // convergence study runs with it off, exactly like the paper's.
  config.enable_reaggregation = false;
  config.seed = seed;
  return config;
}

struct Tree {
  std::vector<prefix::Prefix> prefixes;
  std::vector<NodeId> origins;
};

/// One failure trial's numbers, recorded in-task so trees can run on
/// worker threads and be aggregated in tree order afterwards.
struct TrialRecord {
  double bgp_updates = 0.0;
  double drg_updates = 0.0;
  bool deagg = false;
  bool is_random = false;
};

struct TreeResult {
  std::vector<TrialRecord> trials;
  obs::MetricsRegistry agg_bgp, agg_drg;
};

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  bench::define_scenario_flags(flags);
  bench::define_obs_flags(flags);
  bench::define_exec_flags(flags);
  flags.define_int("trees", 20,
                   "non-trivial prefix-trees sampled (paper: 250)", 1,
                   1 << 24);
  flags.define_int("trials", 40,
                   "random link failures per tree (paper: 4000)", 1, 1 << 24);
  flags.define_int("max-tree", 12, "skip trees with more prefixes than this",
                   1, 1 << 24);
  flags.define_int("only-tree", -1, "debug: run only this sampled tree index",
                   -1, 1 << 24);
  flags.define("debug-log", "false", "debug: engine debug logging");
  flags.define("trace-file", "",
               "write the DRAGON trials' structured event trace (JSONL) here");
  flags.define("timeline-file", "",
               "write per-trial convergence time series (JSONL) here");
  flags.define("timeline-dt", "10",
               "timeline sampling cadence in sim seconds");
  if (!flags.parse(argc, argv)) return 1;
  flags.print_config("bench_fig9_convergence");
  bench::apply_obs_flags();
  if (flags.boolean("debug-log")) {
    util::set_log_level(util::LogLevel::kDebug);
  }

  // Per-trial metrics from the two simulators are merged into these
  // aggregates (trial counters sum; gauges keep their last end-state
  // value) and dumped by --metrics-json.
  obs::MetricsRegistry agg_bgp, agg_drg, bench_metrics;
  obs::EventTracer tracer(1 << 16);
  const bool tracing = !flags.str("trace-file").empty();
  auto pool = bench::make_thread_pool(flags);
  if (pool != nullptr &&
      (tracing || !flags.str("timeline-file").empty())) {
    // Trace and timeline sinks are single coherent streams; schedules from
    // worker threads would scramble them.
    DRAGON_LOG_WARN(
        "--trace-file/--timeline-file force sequential execution "
        "(--threads 1)");
    pool.reset();
  }
  const std::size_t threads = pool != nullptr ? pool->size() : 1;
  if (tracing) {
    if (!tracer.open_sink(flags.str("trace-file"))) {
      std::fprintf(stderr, "cannot open --trace-file %s\n",
                   flags.str("trace-file").c_str());
      return 1;
    }
    tracer.note(bench::run_meta_json("bench_fig9_convergence",
                                     flags.u64("seed"), threads));
  }
  std::FILE* timeline_out = nullptr;
  if (!flags.str("timeline-file").empty()) {
    timeline_out = std::fopen(flags.str("timeline-file").c_str(), "w");
    if (timeline_out == nullptr) {
      std::fprintf(stderr, "cannot open --timeline-file %s\n",
                   flags.str("timeline-file").c_str());
      return 1;
    }
  }
  obs::Timeline bgp_timeline(flags.f64("timeline-dt"));
  obs::Timeline drg_timeline(flags.f64("timeline-dt"));

  const auto scenario = bench::build_scenario(flags);
  const auto& topo = scenario.generated.graph;
  // Path-identity attributes: BGP re-announces on AS-PATH content changes.
  GrPathVectorAlgebra alg;
  // Forked trial stream: statistically independent of the topology and
  // assignment seeds instead of the old correlated `seed + 31` offset.
  util::Rng rng(scenario.trial_seed);

  // Bounded convergence: a livelocked run fails loudly with diagnostics
  // instead of spinning in run_until_quiescent forever.  Throws so a
  // failure on a worker thread propagates through the pool join instead
  // of exiting mid-flight under other workers.
  const auto converge = [&tracer, tracing](engine::Simulator& sim,
                                           const std::string& what) {
    const chaos::WatchdogResult r = chaos::run_to_quiescence(
        sim, {1e6, 50'000'000}, tracing ? &tracer : nullptr);
    if (!r.quiescent) {
      std::fprintf(stderr, "# FATAL: %s tripped the convergence watchdog\n%s\n",
                   what.c_str(), r.diagnostics.c_str());
      throw std::runtime_error(what + " tripped the convergence watchdog");
    }
  };

  // Sample non-trivial prefix-trees (the trivial ones behave identically
  // under DRAGON and BGP, §5.3).
  prefix::PrefixForest forest(scenario.assignment.prefixes);
  auto roots = forest.non_trivial_roots();
  rng.shuffle(roots);
  std::vector<Tree> trees;
  for (std::int32_t r : roots) {
    if (trees.size() >= flags.u64("trees")) break;
    const auto members = forest.tree_members(r);
    if (members.size() > flags.u64("max-tree")) continue;
    Tree tree;
    for (std::int32_t m : members) {
      tree.prefixes.push_back(
          scenario.assignment.prefixes[static_cast<std::size_t>(m)]);
      tree.origins.push_back(
          scenario.assignment.origin[static_cast<std::size_t>(m)]);
    }
    trees.push_back(std::move(tree));
  }
  std::printf("# %zu trees sampled, median size %zu\n", trees.size(),
              trees.empty() ? 0 : trees[trees.size() / 2].prefixes.size());

  const auto links = topo.links();
  std::vector<double> bgp_normal, drg_normal;   // no de-aggregation
  std::vector<double> bgp_deagg, drg_deagg;     // de-aggregation happened
  std::uint64_t trials_total = 0, trials_deagg = 0;
  std::uint64_t random_total = 0, random_deagg = 0;

  // Each tree is independent: its own pair of simulators and its own RNG
  // stream forked from the trial seed by tree index (fork_stream), so the
  // sampled failure links are identical for any thread count.  (This
  // changes the samples for a given --seed relative to the old shared
  // sequential stream.)
  const auto run_tree = [&](std::size_t t) -> TreeResult {
    TreeResult res;
    if (flags.i64("only-tree") >= 0 &&
        t != static_cast<std::size_t>(flags.i64("only-tree"))) {
      return res;
    }
    util::Rng tree_rng = rng.fork_stream(t);
    const Tree& tree = trees[t];
    engine::Simulator bgp(topo, alg, make_config(false, flags.u64("seed")));
    engine::Simulator drg(topo, alg, make_config(true, flags.u64("seed")));
    for (std::size_t i = 0; i < tree.prefixes.size(); ++i) {
      bgp.originate(tree.prefixes[i], tree.origins[i], kOriginAttr);
      drg.originate(tree.prefixes[i], tree.origins[i], kOriginAttr);
    }
    converge(bgp, "tree " + std::to_string(t) + " bgp bring-up");
    converge(drg, "tree " + std::to_string(t) + " dragon bring-up");
    const auto bgp_snap = bgp.snapshot();
    const auto drg_snap = drg.snapshot();
    // Trace only the DRAGON trials: the BGP twin runs the same failures and
    // would double every record with no extra information.  (Tracing forced
    // --threads 1 above, so the shared tracer sees one schedule at a time.)
    if (tracing) drg.set_tracer(&tracer);

    // Trial set: random links drawn from the links that actually carry the
    // tree's traffic (failures elsewhere produce no updates under either
    // protocol and would drown the comparison; the paper's BGP generates
    // routes for >98% of its failures, so its failure population is
    // clearly route-bearing), plus — tagged separately — the provider
    // links of every child origin, the candidates for forcing
    // de-aggregation (which random sampling would rarely hit: 0.03% of
    // failures in the paper).
    const auto used = bgp.forwarding_links();
    std::vector<std::pair<NodeId, NodeId>> trial_links;
    for (std::uint64_t k = 0; k < flags.u64("trials") && !used.empty(); ++k) {
      trial_links.push_back(used[tree_rng.below(used.size())]);
    }
    const std::size_t random_trials = trial_links.size();
    for (std::size_t i = 1; i < tree.origins.size(); ++i) {
      for (NodeId p : topo.providers(tree.origins[i])) {
        trial_links.emplace_back(p, tree.origins[i]);
      }
    }

    std::fprintf(stderr, "# tree %zu/%zu (%zu prefixes, %zu trials, %zu used links)\n",
                 t + 1, trees.size(), tree.prefixes.size(),
                 trial_links.size(), used.size());
    for (std::size_t trial = 0; trial < trial_links.size(); ++trial) {
      const auto [a, b] = trial_links[trial];
      TrialRecord rec;
      rec.is_random = trial < random_trials;
      bgp.restore(bgp_snap);
      bgp.reset_stats();
      bgp.fail_link(a, b);
      if (timeline_out != nullptr) bgp.attach_timeline(&bgp_timeline);
      converge(bgp, "tree " + std::to_string(t) + " trial " +
                        std::to_string(trial) + " bgp");
      const auto bgp_updates = obs::updates(bgp.metrics());
      if (timeline_out != nullptr) {
        char extra[96];
        std::snprintf(extra, sizeof extra,
                      "\"mode\":\"bgp\",\"tree\":%zu,\"trial\":%zu", t, trial);
        bgp_timeline.write_jsonl(timeline_out, extra);
        bgp.attach_timeline(nullptr);
      }

      if (tracing) {
        char note[128];
        std::snprintf(note, sizeof note,
                      "{\"kind\":\"trial_start\",\"tree\":%zu,\"trial\":%zu,"
                      "\"link\":[%u,%u]}",
                      t, trial, a, b);
        tracer.note(note);
      }
      drg.restore(drg_snap);
      drg.reset_stats();
      drg.fail_link(a, b);
      if (timeline_out != nullptr) drg.attach_timeline(&drg_timeline);
      converge(drg, "tree " + std::to_string(t) + " trial " +
                        std::to_string(trial) + " dragon");
      const auto drg_updates = obs::updates(drg.metrics());
      const auto drg_count = [&drg](obs::EventKind kind) {
        return static_cast<unsigned long long>(obs::count(drg.metrics(), kind));
      };
      rec.deagg = drg_count(obs::EventKind::kDeaggregate) > 0;
      if (timeline_out != nullptr) {
        char extra[96];
        std::snprintf(extra, sizeof extra,
                      "\"mode\":\"dragon\",\"tree\":%zu,\"trial\":%zu", t,
                      trial);
        drg_timeline.write_jsonl(timeline_out, extra);
        drg.attach_timeline(nullptr);
      }
      if (tracing) {
        // note() flushes the ring first, so every event of this trial is on
        // disk before the delimiter; the counts let a reader check the JSONL
        // against the registry's counters per trial.
        char note[160];
        std::snprintf(note, sizeof note,
                      "{\"kind\":\"trial_end\",\"tree\":%zu,\"trial\":%zu,"
                      "\"updates\":%llu,\"announcements\":%llu,"
                      "\"withdrawals\":%llu}",
                      t, trial, (unsigned long long)drg_updates,
                      drg_count(obs::EventKind::kAnnounce),
                      drg_count(obs::EventKind::kWithdraw));
        tracer.note(note);
      }

      res.agg_bgp.merge_from(bgp.metrics());
      res.agg_drg.merge_from(drg.metrics());
      if (drg_updates > 100000 || bgp_updates > 100000) {
        std::fprintf(stderr,
                     "#   HOT trial {%u,%u}: bgp=%llu drg=%llu deagg=%llu "
                     "reagg=%llu aggorig=%llu\n",
                     a, b, (unsigned long long)bgp_updates,
                     (unsigned long long)drg_updates,
                     drg_count(obs::EventKind::kDeaggregate),
                     drg_count(obs::EventKind::kReaggregate),
                     drg_count(obs::EventKind::kAggOriginate));
      }

      rec.bgp_updates = static_cast<double>(bgp_updates);
      rec.drg_updates = static_cast<double>(drg_updates);
      res.trials.push_back(rec);
    }
    return res;
  };

  // Committed on the calling thread in tree order (bench::run_trials), so
  // every CCDF sample list and registry merge is thread-count-invariant.
  const auto commit_tree = [&](std::size_t /*t*/, TreeResult& res) {
    for (const TrialRecord& rec : res.trials) {
      ++trials_total;
      if (rec.is_random) ++random_total;
      bench_metrics.counter("fig9.trials")->inc();
      bench_metrics.histogram("fig9.updates_per_trial.bgp")
          ->observe(static_cast<std::uint64_t>(rec.bgp_updates));
      bench_metrics.histogram("fig9.updates_per_trial.dragon")
          ->observe(static_cast<std::uint64_t>(rec.drg_updates));
      if (rec.deagg) {
        ++trials_deagg;
        bench_metrics.counter("fig9.trials_deagg")->inc();
        if (rec.is_random) ++random_deagg;
        bgp_deagg.push_back(rec.bgp_updates);
        drg_deagg.push_back(rec.drg_updates);
      } else {
        bgp_normal.push_back(rec.bgp_updates);
        drg_normal.push_back(rec.drg_updates);
      }
    }
    agg_bgp.merge_from(res.agg_bgp);
    agg_drg.merge_from(res.agg_drg);
  };

  try {
    bench::run_trials<TreeResult>(pool.get(), trees.size(), run_tree,
                                  commit_tree);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "# FATAL: %s\n", e.what());
    return 1;
  }

  // --- Headline table ------------------------------------------------------
  std::size_t drg_fewer = 0, drg_half = 0;
  for (std::size_t i = 0; i < drg_normal.size(); ++i) {
    if (drg_normal[i] <= bgp_normal[i]) ++drg_fewer;
    if (drg_normal[i] <= 0.5 * bgp_normal[i]) ++drg_half;
  }
  const auto pct = [](std::size_t a, std::size_t b) {
    return b == 0 ? 0.0 : 100.0 * static_cast<double>(a) /
                              static_cast<double>(b);
  };
  stats::Table table({"metric", "paper", "measured"});
  table.add_row({"failure trials", "-", std::to_string(trials_total)});
  table.add_comparison("random failures causing de-aggregation (%)", "0.03",
                       pct(random_deagg, random_total));
  table.add_comparison("all trials causing de-agg (%, oversampled)", "-",
                       pct(trials_deagg, trials_total));
  table.add_comparison("DRAGON <= BGP routes (% of cases)", "95",
                       pct(drg_fewer, drg_normal.size()));
  table.add_comparison("DRAGON <= half of BGP (% of cases)", ">50",
                       pct(drg_half, drg_normal.size()));
  table.add_comparison(">100 routes, DRAGON (%)", "5",
                       100.0 * stats::fraction_above(drg_normal, 100.0));
  table.add_comparison(">100 routes, BGP (%)", ">15",
                       100.0 * stats::fraction_above(bgp_normal, 100.0));
  table.add_comparison("zero routes, DRAGON (%)", "40",
                       100.0 - 100.0 * stats::fraction_above(drg_normal, 0.0));
  table.add_comparison("zero routes, BGP (%)", "<2",
                       100.0 - 100.0 * stats::fraction_above(bgp_normal, 0.0));
  // Failures of stub-access links are silent under GR export rules in both
  // protocols (a stub announces nothing upward).  The paper's BGP is active
  // on >98% of its failures, so its population is effectively conditioned
  // on failures BGP reacts to; the conditioned contrast is the comparable
  // number.
  {
    std::size_t bgp_active = 0, drg_zero_given_active = 0;
    for (std::size_t i = 0; i < bgp_normal.size(); ++i) {
      if (bgp_normal[i] > 0) {
        ++bgp_active;
        if (drg_normal[i] == 0) ++drg_zero_given_active;
      }
    }
    table.add_comparison("BGP-active failures with zero DRAGON routes (%)",
                         "~40", pct(drg_zero_given_active, bgp_active));
  }
  if (!drg_deagg.empty()) {
    std::size_t drg_more = 0;
    for (std::size_t i = 0; i < drg_deagg.size(); ++i) {
      if (drg_deagg[i] > bgp_deagg[i]) ++drg_more;
    }
    table.add_comparison("de-agg: DRAGON > BGP (% of cases)", "60",
                         pct(drg_more, drg_deagg.size()));
    // The paper's "never more than one order of magnitude" compares the
    // two CCDFs (distribution shift), not per-trial pairs.
    table.add_comparison("de-agg: BGP median routes", "-",
                         stats::percentile(bgp_deagg, 0.5));
    table.add_comparison("de-agg: DRAGON median routes", "-",
                         stats::percentile(drg_deagg, 0.5));
    const double bgp_max = stats::max_of(bgp_deagg);
    table.add_comparison("de-agg: DRAGON max / BGP max", "<10",
                         bgp_max > 0 ? stats::max_of(drg_deagg) / bgp_max
                                     : 0.0);
  }
  table.print();

  // --- Curves --------------------------------------------------------------
  const auto print_curve = [](const char* name,
                              const std::vector<double>& samples) {
    std::printf("\n-- CCDF %s (#routes  fraction-of-failures-above) --\n",
                name);
    std::fputs(stats::format_ccdf(stats::ccdf(samples), 24).c_str(), stdout);
  };
  print_curve("BGP, no de-aggregation", bgp_normal);
  print_curve("DRAGON, no de-aggregation", drg_normal);
  if (!drg_deagg.empty()) {
    print_curve("BGP, de-aggregation failures", bgp_deagg);
    print_curve("DRAGON, de-aggregation failures", drg_deagg);
  }

  tracer.flush();
  tracer.export_metrics(bench_metrics);
  if (tracing) {
    std::fprintf(stderr, "# trace: %llu events recorded, %llu dropped -> %s\n",
                 (unsigned long long)tracer.recorded(),
                 (unsigned long long)tracer.dropped(),
                 flags.str("trace-file").c_str());
  }
  if (timeline_out != nullptr) std::fclose(timeline_out);
  if (!flags.str("metrics-json").empty()) {
    bench::write_metrics_json(
        flags.str("metrics-json"),
        {{"bench", &bench_metrics}, {"bgp", &agg_bgp}, {"dragon", &agg_drg}},
        bench::run_meta_json("bench_fig9_convergence", flags.u64("seed"),
                             threads));
  }
  pool.reset();  // exporting spans requires the workers joined
  bench::maybe_export_span_trace(
      flags, "bench_fig9_convergence",
      {{"seed", std::to_string(flags.u64("seed"))}});
  return 0;
}
