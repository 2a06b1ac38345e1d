// Scaling harness — wall-clock speedup of the parallel execution runtime.
//
// Runs the same chaos schedule sweep (bring-up, fault replay,
// re-convergence, invariant + oracle audits per schedule; see
// chaos/sweep.hpp) once per entry of --threads-list and reports seconds
// and speedup relative to the first entry.  Because the runtime is
// deterministic by construction (DESIGN.md §8), every thread count must
// produce bit-identical per-schedule outcomes — the harness cross-checks
// that on every run and fails loudly on any divergence, so the speedup
// curve doubles as an end-to-end determinism audit.
//
// Always writes a metrics JSON artifact (default BENCH_scaling.json):
// gauges scaling.seconds.threads.T and scaling.speedup.threads.T per
// sweep, plus the schedule count, plus a per-stage wall-clock breakdown
// (compute/commit/idle seconds from the span layer, see obs/span.hpp) as
// scaling.span.* gauges and a "span_breakdown" meta block — the numbers
// tools/trace_report.py derives from a full trace, stamped into the
// artifact on every run.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "algebra/gr_path_algebra.hpp"
#include "chaos/sweep.hpp"
#include "obs/trace.hpp"
#include "stats/table.hpp"
#include "util/rng.hpp"

namespace {

using namespace dragon;
using algebra::GrClass;
using algebra::GrPathAlgebra;

constexpr algebra::Attr kOriginAttr = GrPathAlgebra::make(GrClass::kCustomer, 0);

/// The per-schedule fields that must match across thread counts.
struct Digest {
  std::uint64_t seed = 0;
  bool skipped = false;
  bool ok = false;
  double end_time = 0.0;
  std::uint64_t announcements = 0;
  std::uint64_t withdrawals = 0;
  std::uint64_t deaggregations = 0;
  std::uint64_t lost = 0;  ///< messages dropped on the wire

  bool operator==(const Digest&) const = default;
};

/// Per-stage seconds from the span-site accumulators (exact regardless
/// of ring wrap; see obs/span.hpp).  Buckets match tools/trace_report.py:
/// chunk bodies are compute, everything the runtime adds around them is
/// split into ordered-commit / idle.
struct StageSeconds {
  double compute = 0.0;
  /// Thread CPU time inside chunk bodies; compute - compute_cpu is time
  /// workers sat descheduled mid-chunk (the oversubscription signature).
  double compute_cpu = 0.0;
  double commit = 0.0;
  double idle = 0.0;
};

StageSeconds stage_totals() {
  StageSeconds s;
  for (const auto& t : obs::span_site_totals()) {
    const double sec = static_cast<double>(t.total_ns) / 1e9;
    const std::string_view cat(t.category), name(t.name);
    if (cat == "pool" && name == "idle") {
      s.idle += sec;
    } else if ((cat == "exec" && name == "commit_wait") ||
               (cat == "bench" && name == "commit")) {
      s.commit += sec;
    } else if (cat == "exec" && name == "chunk") {
      s.compute += sec;
      s.compute_cpu += static_cast<double>(t.cpu_ns) / 1e9;
    }
  }
  return s;
}

Digest digest_of(const chaos::ScheduleOutcome& out) {
  Digest d;
  d.seed = out.seed;
  d.skipped = out.skipped;
  d.ok = out.ok();
  d.end_time = out.end_time;
  d.announcements = obs::count(out.metrics, obs::EventKind::kAnnounce);
  d.withdrawals = obs::count(out.metrics, obs::EventKind::kWithdraw);
  d.deaggregations = obs::count(out.metrics, obs::EventKind::kDeaggregate);
  d.lost = obs::count(out.metrics, obs::EventKind::kMsgLost);
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  bench::define_scenario_flags(flags);
  bench::define_obs_flags(flags);
  flags.define_int_list("threads-list", {1, 2, 4, 8},
                        "thread counts to sweep (first entry is the baseline)",
                        1, 4096);
  flags.define_int("schedules", 32, "fault schedules per sweep", 1, 1 << 20);
  flags.define_int("events", 5, "fault events per schedule", 1, 1 << 20);
  flags.define_int("prefixes", 12, "originations sampled from the assignment",
                   1, 1 << 20);
  flags.define_int("burst", 2, "correlated-burst size", 1, 1 << 20);
  flags.define_duration("horizon", 120.0, "fault window length", 1.0, 86400.0);
  flags.define("mrai", "5", "MRAI (sim seconds)");
  if (!flags.parse(argc, argv)) return 1;
  flags.print_config("bench_scaling");
  bench::apply_obs_flags();

  const auto thread_counts = flags.i64_list("threads-list");

  const auto scenario = bench::build_scenario(flags);
  const auto& topo = scenario.generated.graph;
  addressing::AssignmentCleanReport clean_report;
  const auto cleaned =
      addressing::clean_assignment(topo, scenario.assignment, &clean_report);

  std::vector<chaos::OriginSpec> origins;
  std::set<prefix::Prefix> used;
  for (std::size_t i = 0;
       i < cleaned.size() && origins.size() < flags.u64("prefixes"); ++i) {
    if (used.insert(cleaned.prefixes[i]).second) {
      origins.push_back({cleaned.prefixes[i], cleaned.origin[i], kOriginAttr});
    }
  }
  if (origins.empty()) {
    std::fprintf(stderr, "assignment produced no usable originations\n");
    return 1;
  }

  GrPathAlgebra alg;
  chaos::SweepSpec spec;
  spec.topo = &topo;
  spec.alg = &alg;
  spec.config.mrai = flags.f64("mrai");
  spec.config.link_delay = 0.01;
  spec.config.enable_dragon = true;
  spec.config.enable_reaggregation = false;
  spec.config.l_attr = [](algebra::Attr a) {
    return static_cast<std::uint32_t>(GrPathAlgebra::class_of(a));
  };
  spec.origins = origins;
  spec.params.horizon = flags.seconds("horizon");
  spec.params.events = flags.u64("events");
  spec.params.burst = flags.u64("burst");

  util::Rng trial_master(scenario.trial_seed);
  std::vector<std::uint64_t> seeds(flags.u64("schedules"));
  for (auto& s : seeds) s = trial_master();

  obs::MetricsRegistry reg;
  stats::Table table({"threads", "seconds", "speedup", "ok", "identical"});
  std::vector<Digest> baseline;
  std::vector<std::pair<std::size_t, StageSeconds>> breakdowns;
  double baseline_seconds = 0.0;
  bool all_identical = true;

  for (std::size_t ti = 0; ti < thread_counts.size(); ++ti) {
    const std::size_t threads = thread_counts[ti];
    const StageSeconds before = stage_totals();
    std::unique_ptr<exec::ThreadPool> pool;
    if (threads > 1) {
      // Capped to hardware_concurrency: oversubscribed sweeps would only
      // measure context-switch cost (see exec/thread_pool.hpp).
      pool = std::make_unique<exec::ThreadPool>(
          threads, exec::PoolOptions{.cap_to_hardware = true});
    }

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<chaos::ScheduleOutcome> outcomes;
    {
      DRAGON_SPAN_ARG("bench", "sweep", "threads", threads);
      outcomes = chaos::run_schedule_sweep(spec, seeds, pool.get());
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    // Join the workers before reading the accumulators: their final idle
    // spans are only recorded once shutdown wakes them.
    pool.reset();
    const StageSeconds after = stage_totals();
    breakdowns.emplace_back(
        threads, StageSeconds{after.compute - before.compute,
                              after.compute_cpu - before.compute_cpu,
                              after.commit - before.commit,
                              after.idle - before.idle});

    std::size_t ok = 0;
    std::vector<Digest> digests;
    digests.reserve(outcomes.size());
    for (const auto& out : outcomes) {
      if (out.ok()) ++ok;
      digests.push_back(digest_of(out));
    }
    if (ti == 0) {
      baseline = digests;
      baseline_seconds = seconds;
    }
    const bool identical = digests == baseline;
    if (!identical) {
      all_identical = false;
      for (std::size_t i = 0; i < digests.size(); ++i) {
        if (!(digests[i] == baseline[i])) {
          std::fprintf(stderr,
                       "DETERMINISM VIOLATION: schedule %zu (seed=%llu) "
                       "diverges at %zu threads\n",
                       i, static_cast<unsigned long long>(digests[i].seed),
                       threads);
          break;
        }
      }
    }
    const double speedup = seconds > 0.0 ? baseline_seconds / seconds : 0.0;

    char name[64];
    std::snprintf(name, sizeof name, "scaling.seconds.threads.%zu", threads);
    reg.gauge(name)->set(seconds);
    std::snprintf(name, sizeof name, "scaling.speedup.threads.%zu", threads);
    reg.gauge(name)->set(speedup);
    const StageSeconds& stages = breakdowns.back().second;
    std::snprintf(name, sizeof name, "scaling.span.compute_s.threads.%zu",
                  threads);
    reg.gauge(name)->set(stages.compute);
    std::snprintf(name, sizeof name, "scaling.span.compute_cpu_s.threads.%zu",
                  threads);
    reg.gauge(name)->set(stages.compute_cpu);
    std::snprintf(name, sizeof name, "scaling.span.commit_s.threads.%zu",
                  threads);
    reg.gauge(name)->set(stages.commit);
    std::snprintf(name, sizeof name, "scaling.span.idle_s.threads.%zu",
                  threads);
    reg.gauge(name)->set(stages.idle);

    char seconds_s[32], speedup_s[32];
    std::snprintf(seconds_s, sizeof seconds_s, "%.3f", seconds);
    std::snprintf(speedup_s, sizeof speedup_s, "%.2fx", speedup);
    table.add_row({std::to_string(threads), seconds_s, speedup_s,
                   std::to_string(ok) + "/" + std::to_string(outcomes.size()),
                   identical ? "yes" : "NO"});
  }

  {
    // Pool-overhead audit: the same sweep dispatched through a 1-worker
    // pool.  The sequential entry above runs inline on the calling
    // thread, so pool1 / seq is the runtime's pure dispatch cost (lane
    // submission + ticket claims + join), gated by
    // tools/bench_gate.py --scaling-check.
    auto pool = std::make_unique<exec::ThreadPool>(1);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<chaos::ScheduleOutcome> outcomes;
    {
      DRAGON_SPAN_ARG("bench", "sweep", "threads", 1);
      outcomes = chaos::run_schedule_sweep(spec, seeds, pool.get());
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    pool.reset();

    std::size_t ok = 0;
    std::vector<Digest> digests;
    digests.reserve(outcomes.size());
    for (const auto& out : outcomes) {
      if (out.ok()) ++ok;
      digests.push_back(digest_of(out));
    }
    const bool identical = digests == baseline;
    if (!identical) {
      all_identical = false;
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: 1-worker pool sweep diverges "
                   "from the sequential baseline\n");
    }
    reg.gauge("scaling.seconds.pool1")->set(seconds);
    const double speedup = seconds > 0.0 ? baseline_seconds / seconds : 0.0;
    char seconds_s[32], speedup_s[32];
    std::snprintf(seconds_s, sizeof seconds_s, "%.3f", seconds);
    std::snprintf(speedup_s, sizeof speedup_s, "%.2fx", speedup);
    table.add_row({"pool1", seconds_s, speedup_s,
                   std::to_string(ok) + "/" + std::to_string(outcomes.size()),
                   identical ? "yes" : "NO"});
  }

  table.print();
  reg.counter("scaling.schedules")->inc(seeds.size());

  std::string out_path = flags.str("metrics-json");
  if (out_path.empty()) out_path = "BENCH_scaling.json";
  std::size_t max_threads = 1;
  for (const std::size_t t : thread_counts)
    max_threads = std::max(max_threads, t);
  // run_meta_json() plus the per-sweep stage breakdown, spliced in before
  // the closing brace so the artifact replays the decomposition from the
  // file alone.
  std::string meta =
      bench::run_meta_json("bench_scaling", flags.u64("seed"), max_threads);
  meta.pop_back();
  meta += ",\"span_breakdown\":{";
  for (std::size_t i = 0; i < breakdowns.size(); ++i) {
    const auto& [threads, stages] = breakdowns[i];
    char entry[256];
    std::snprintf(entry, sizeof entry,
                  "%s\"%zu\":{\"compute_s\":%.6f,\"compute_cpu_s\":%.6f,"
                  "\"commit_s\":%.6f,\"idle_s\":%.6f}",
                  i == 0 ? "" : ",", threads, stages.compute,
                  stages.compute_cpu, stages.commit, stages.idle);
    meta += entry;
  }
  meta += "}}";
  bench::write_metrics_json(out_path, {{"scaling", &reg}}, meta);
  std::printf("# wrote %s\n", out_path.c_str());

  bench::maybe_export_span_trace(
      flags, "bench_scaling",
      {{"seed", std::to_string(flags.u64("seed"))},
       {"schedules", std::to_string(seeds.size())}});

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: outcomes are not identical across thread counts\n");
    return 1;
  }
  std::puts("# outcomes bit-identical across all thread counts");
  return 0;
}
