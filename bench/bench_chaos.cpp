// Chaos harness — recovery behaviour under seeded fault schedules.
//
// Sweeps correlated-failure burst sizes over a synthetic Internet: each
// schedule converges a DRAGON network, replays a generated FaultPlan
// (link failures/restorations, node outages, origin flaps, optional
// message loss/duplication/reorder), re-converges under the watchdog,
// and then audits the quiescent state with the full invariant suite and
// the differential oracle.  Reported per burst size:
//   * recovery time from the first and from the last fault action to
//     quiescence (the paper's §5.3 transient-behaviour axis);
//   * update volume (announcements + withdrawals) per schedule;
//   * de-aggregation / re-aggregation / downgrade activity (§3.8-§3.9).
// Any violation prints the schedule seed and the full plan JSON (enough
// to replay the failure exactly) plus the event-trace tail, and exits
// non-zero — this harness doubles as a long-running fuzzer.
//
// `--crash` additionally enables the peering-session layer: schedules mix
// in node crash/restart events (hold-timer detection, RFC 4724 graceful
// restart with stale retention, End-of-RIB re-sync), forwarding-walk
// probes audit the retention window, and a session-lifecycle summary is
// printed after the sweep.  Timer knobs take duration values
// (`--hold-time 10s`, `--restart-window 30s`).
#include <cstdio>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "algebra/gr_path_algebra.hpp"
#include "chaos/fault_plan.hpp"
#include "chaos/invariants.hpp"
#include "chaos/oracle.hpp"
#include "chaos/scenario.hpp"
#include "chaos/sweep.hpp"
#include "chaos/watchdog.hpp"
#include "engine/simulator.hpp"
#include "obs/trace.hpp"
#include "stats/ccdf.hpp"
#include "stats/table.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace {

using namespace dragon;
using algebra::GrClass;
using algebra::GrPathAlgebra;

constexpr algebra::Attr kOriginAttr = GrPathAlgebra::make(GrClass::kCustomer, 0);

engine::Config make_config(const util::Flags& flags, std::uint64_t seed) {
  engine::Config config;
  config.mrai = flags.f64("mrai");
  config.link_delay = 0.01;
  config.enable_dragon = true;
  // §5.3: the convergence study (and this harness, which runs at the same
  // scale) keeps self-organised re-aggregation off.
  config.enable_reaggregation = false;
  config.seed = seed;
  config.faults.loss = flags.f64("msg-loss");
  config.faults.duplicate = flags.f64("msg-dup");
  config.faults.delay_prob = flags.f64("msg-delay-prob");
  if (flags.boolean("crash")) {
    config.session.enabled = true;
    config.session.graceful_restart = flags.boolean("graceful-restart");
    config.session.hold_time = flags.seconds("hold-time");
    config.session.keepalive = flags.seconds("keepalive");
    config.session.restart_window = flags.seconds("restart-window");
  }
  return config;
}

// --scenario mode: the adversarial scenario engine (chaos/scenario.hpp)
// replaces the burst sweep.  Each semicolon-separated spec runs over
// --schedules seeds; any per-seed failure (misclassified divergence,
// blast-radius inversion, invariant violation) prints the seed and the
// replay plan JSON and exits non-zero.  On top of the per-seed checks,
// the hijack family's blast radii are summed across the whole sweep and
// DRAGON must come out strictly smaller than plain BGP.
int run_scenario_mode(const util::Flags& flags,
                      const std::vector<chaos::ScenarioSpec>& specs,
                      const std::string& scenario_text) {
  auto pool = bench::make_thread_pool(flags);
  const std::size_t threads = pool != nullptr ? pool->size() : 1;
  obs::MetricsRegistry bench_metrics;

  struct SpecRow {
    std::string spec;
    std::size_t seeds = 0;
    std::size_t passed = 0;
    std::size_t converged = 0;
    std::size_t oscillating = 0;
    std::size_t livelock = 0;
    std::size_t blast_dragon = 0;
    std::size_t blast_bgp = 0;
    std::uint64_t suppressions = 0;
    std::vector<double> updates;
    std::vector<double> recovery;
  };
  std::vector<SpecRow> rows;

  // Seeds fork off the master stream once per spec, so appending specs to
  // the list never perturbs the earlier sweeps (same discipline as the
  // burst loop below).
  util::Rng seed_master(flags.u64("seed"));
  std::size_t hijack_dragon = 0, hijack_bgp = 0;
  bool saw_hijack = false;

  for (const auto& spec : specs) {
    util::Rng spec_rng = seed_master.fork();
    std::vector<std::uint64_t> seeds(flags.u64("schedules"));
    for (auto& s : seeds) s = spec_rng();

    DRAGON_SPAN_ARG("bench", "scenario", "family",
                    static_cast<std::size_t>(spec.family));
    const auto outcomes = chaos::run_scenario_sweep(spec, seeds, pool.get());

    SpecRow row;
    row.spec = spec.to_string();
    row.seeds = outcomes.size();
    const char* family = chaos::to_string(spec.family);
    for (const auto& out : outcomes) {
      if (!out.ok) {
        std::fprintf(stderr,
                     "SCENARIO VIOLATION\n  spec=%s seed=%llu\n%s\n"
                     "  replay plan: %s\n",
                     row.spec.c_str(),
                     static_cast<unsigned long long>(out.seed),
                     out.diagnostics.c_str(),
                     out.plan_json.empty() ? "(none)" : out.plan_json.c_str());
        return 1;
      }
      ++row.passed;
      switch (out.classification) {
        case chaos::Quiescence::kConverged: ++row.converged; break;
        case chaos::Quiescence::kOscillating: ++row.oscillating; break;
        case chaos::Quiescence::kLivelock: ++row.livelock; break;
      }
      row.blast_dragon += out.blast_dragon.affected;
      row.blast_bgp += out.blast_bgp.affected;
      row.suppressions += out.suppressions;
      const std::uint64_t updates =
          out.updates != 0 ? out.updates
                           : out.updates_damped + out.updates_undamped;
      row.updates.push_back(static_cast<double>(updates));
      row.recovery.push_back(out.recovery);
    }
    if (spec.family == chaos::ScenarioFamily::kHijack) {
      saw_hijack = true;
      hijack_dragon += row.blast_dragon;
      hijack_bgp += row.blast_bgp;
    }

    // Per-family totals: run/pass/classification counters plus blast,
    // suppression and update gauges (pinned for the smoke list by
    // ScenarioSmoke.SmokeListOutcomesPinnedPerFamily).
    char name[96];
    std::snprintf(name, sizeof name, "dragon.chaos.scenario.%s.runs", family);
    bench_metrics.counter(name)->inc(row.seeds);
    std::snprintf(name, sizeof name, "dragon.chaos.scenario.%s.passed", family);
    bench_metrics.counter(name)->inc(row.passed);
    std::snprintf(name, sizeof name, "dragon.chaos.scenario.%s.oscillating",
                  family);
    bench_metrics.counter(name)->inc(row.oscillating);
    std::snprintf(name, sizeof name, "dragon.chaos.scenario.%s.converged",
                  family);
    bench_metrics.counter(name)->inc(row.converged);
    std::snprintf(name, sizeof name, "dragon.chaos.scenario.%s.blast_dragon",
                  family);
    bench_metrics.gauge(name)->add(static_cast<double>(row.blast_dragon));
    std::snprintf(name, sizeof name, "dragon.chaos.scenario.%s.blast_bgp",
                  family);
    bench_metrics.gauge(name)->add(static_cast<double>(row.blast_bgp));
    std::snprintf(name, sizeof name, "dragon.chaos.scenario.%s.suppressions",
                  family);
    bench_metrics.gauge(name)->add(static_cast<double>(row.suppressions));
    double updates_total = 0.0;
    for (const double u : row.updates) updates_total += u;
    std::snprintf(name, sizeof name, "dragon.chaos.scenario.%s.updates",
                  family);
    bench_metrics.gauge(name)->add(updates_total);
    rows.push_back(std::move(row));
  }

  if (saw_hijack && hijack_dragon >= hijack_bgp) {
    std::fprintf(stderr,
                 "SCENARIO VIOLATION\n  hijack sweep: DRAGON blast radius "
                 "(%zu) not strictly smaller than plain BGP (%zu)\n",
                 hijack_dragon, hijack_bgp);
    return 1;
  }

  stats::Table table({"scenario", "seeds", "passed", "conv/osc/live",
                      "blast dragon/bgp", "suppress", "updates p50",
                      "recovery p90 (s)"});
  for (const auto& row : rows) {
    table.add_row(
        {row.spec, std::to_string(row.seeds), std::to_string(row.passed),
         std::to_string(row.converged) + "/" + std::to_string(row.oscillating) +
             "/" + std::to_string(row.livelock),
         std::to_string(row.blast_dragon) + "/" +
             std::to_string(row.blast_bgp),
         std::to_string(row.suppressions),
         stats::format_number(stats::percentile(row.updates, 0.5)),
         stats::format_number(stats::percentile(row.recovery, 0.9))});
  }
  table.print();

  if (!flags.str("metrics-json").empty()) {
    bench::write_metrics_json(flags.str("metrics-json"),
                              {{"bench", &bench_metrics}},
                              bench::run_meta_json("bench_chaos",
                                                   flags.u64("seed"), threads,
                                                   scenario_text));
  }
  pool.reset();  // exporting spans requires the workers joined
  bench::maybe_export_span_trace(
      flags, "bench_chaos",
      {{"seed", std::to_string(flags.u64("seed"))},
       {"scenario", scenario_text}});
  std::puts("# all scenario sweeps passed their family checks");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  bench::define_scenario_flags(flags);
  bench::define_obs_flags(flags);
  bench::define_exec_flags(flags);
  flags.define_int("schedules", 40, "fault schedules per burst size", 1,
                   1 << 24);
  flags.define_int_list("bursts", {1, 2, 4}, "correlated-burst sizes to sweep",
                        1, 1 << 20);
  flags.define_int("events", 5, "fault events per schedule", 1, 1 << 20);
  flags.define_duration("horizon", 120.0, "fault window length", 1.0, 86400.0);
  flags.define_int("prefixes", 12, "originations sampled from the assignment",
                   1, 1 << 20);
  flags.define("mrai", "5", "MRAI (sim seconds; small keeps recovery sharp)");
  flags.define("restore-prob", "0.6", "P(failed link/node gets restored)");
  flags.define("node-fault-prob", "0.2", "P(event downs a whole node)");
  flags.define("origin-flap-prob", "0.15", "P(event flaps an origination)");
  flags.define("msg-loss", "0", "P(update dropped and retransmitted)");
  flags.define("msg-dup", "0", "P(update delivered twice)");
  flags.define("msg-delay-prob", "0", "P(update gets extra one-way delay)");
  flags.define("crash", "false",
               "enable the peering-session layer and node crash/restart "
               "events in the fault schedules");
  flags.define("crash-prob", "0.3", "P(event crashes a node; needs --crash)");
  flags.define("graceful-restart", "true",
               "RFC 4724-style stale-route retention on peer crash");
  flags.define_duration("hold-time", 10.0, "session hold timer", 0.001, 3600.0);
  flags.define_duration("keepalive", 3.0, "session keepalive interval", 0.001,
                        3600.0);
  flags.define_duration("restart-window", 30.0,
                        "graceful-restart stale retention window", 0.001,
                        86400.0);
  flags.define_int("invariant-sources", 96,
                   "forwarding-walk source nodes sampled per audit", 1,
                   1 << 24);
  flags.define("strict", "true",
               "oracle compares raw attributes (exact for GR algebras)");
  flags.define("trace-file", "",
               "write the structured event trace (JSONL) here");
  flags.define("scenario", "",
               "run the adversarial scenario engine instead of the burst "
               "sweep: semicolon-separated family specs, e.g. "
               "'divergence:variant=bad,ring=3;hijack:events=2'");
  if (!flags.parse(argc, argv)) return 1;
  flags.print_config("bench_chaos");
  bench::apply_obs_flags();

  if (const std::string scenario_text = flags.str("scenario");
      !scenario_text.empty()) {
    // Split on ';' and parse each family spec before running anything, so
    // a typo anywhere in the list fails fast.
    std::vector<chaos::ScenarioSpec> specs;
    std::size_t start = 0;
    while (start <= scenario_text.size()) {
      std::size_t end = scenario_text.find(';', start);
      if (end == std::string::npos) end = scenario_text.size();
      const std::string_view part(scenario_text.data() + start, end - start);
      if (!part.empty()) {
        const auto spec = chaos::ScenarioSpec::parse(part);
        if (!spec.has_value()) {
          std::fprintf(stderr, "bad --scenario spec: %.*s\n",
                       static_cast<int>(part.size()), part.data());
          return 1;
        }
        specs.push_back(*spec);
      }
      start = end + 1;
    }
    if (specs.empty()) {
      std::fprintf(stderr, "--scenario lists no specs\n");
      return 1;
    }
    return run_scenario_mode(flags, specs, scenario_text);
  }

  const auto bursts = flags.i64_list("bursts");

  auto pool = bench::make_thread_pool(flags);
  obs::MetricsRegistry agg, bench_metrics;
  obs::EventTracer tracer(1 << 16);
  const bool tracing = !flags.str("trace-file").empty();
  if (tracing && pool != nullptr) {
    // The tracer is a single coherent stream; interleaving schedules from
    // worker threads would scramble it.
    DRAGON_LOG_WARN("--trace-file forces sequential execution (--threads 1)");
    pool.reset();
  }
  const std::size_t threads = pool != nullptr ? pool->size() : 1;
  if (tracing) {
    if (!tracer.open_sink(flags.str("trace-file"))) {
      std::fprintf(stderr, "cannot open --trace-file %s\n",
                   flags.str("trace-file").c_str());
      return 1;
    }
    // Reproducibility header: the trace replays from its own first line.
    tracer.note(bench::run_meta_json("bench_chaos", flags.u64("seed"), threads));
  }

  const auto scenario = bench::build_scenario(flags);
  const auto& topo = scenario.generated.graph;
  addressing::AssignmentCleanReport clean_report;
  const auto cleaned =
      addressing::clean_assignment(topo, scenario.assignment, &clean_report);

  // The origination working set: the first --prefixes distinct cleaned
  // prefixes.  Deterministic, and biased towards registry-pool order, so
  // parent/child (delegation) pairs are well represented — those are the
  // ones rule RA acts on.
  std::vector<chaos::OriginSpec> origins;
  std::set<prefix::Prefix> used;
  for (std::size_t i = 0;
       i < cleaned.size() && origins.size() < flags.u64("prefixes"); ++i) {
    if (used.insert(cleaned.prefixes[i]).second) {
      origins.push_back({cleaned.prefixes[i], cleaned.origin[i], kOriginAttr});
    }
  }
  std::printf("# %zu originations over %zu cleaned prefixes\n", origins.size(),
              cleaned.size());
  if (origins.empty()) {
    std::fprintf(stderr, "assignment produced no usable originations\n");
    return 1;
  }

  GrPathAlgebra alg;
  util::Rng trial_master(scenario.trial_seed);
  std::uint64_t gr_probes_total = 0;

  struct BurstRow {
    std::size_t burst = 0;
    std::vector<double> recovery_first;  // quiescence - first action
    std::vector<double> recovery_last;   // quiescence - last action
    std::vector<double> updates;
    std::uint64_t deaggregations = 0;
    std::uint64_t lost = 0;
  };
  std::vector<BurstRow> rows;

  // The shared sweep description; only the burst size (and the per-schedule
  // seed, inside the sweep) varies below.
  chaos::SweepSpec spec;
  spec.topo = &topo;
  spec.alg = &alg;
  spec.config = make_config(flags, /*seed=*/0);  // overridden per schedule
  spec.origins = origins;
  spec.params.horizon = flags.seconds("horizon");
  spec.params.events = flags.u64("events");
  spec.params.restore_prob = flags.f64("restore-prob");
  spec.params.node_fault_prob = flags.f64("node-fault-prob");
  spec.params.origin_flap_prob = flags.f64("origin-flap-prob");
  if (flags.boolean("crash")) {
    spec.params.crash_prob = flags.f64("crash-prob");
    spec.probe_gr_windows = flags.boolean("graceful-restart");
  }
  spec.invariants.max_sources = flags.u64("invariant-sources");
  spec.oracle.strict_attrs = flags.boolean("strict");

  for (const std::size_t burst : bursts) {
    BurstRow row;
    row.burst = burst;
    spec.params.burst = burst;
    // Schedule seeds fork off the trial stream once per burst size, so
    // adding burst sizes never perturbs the earlier sweeps.
    util::Rng burst_rng = trial_master.fork();
    std::vector<std::uint64_t> seeds(flags.u64("schedules"));
    for (auto& s : seeds) s = burst_rng();

    DRAGON_SPAN_ARG("bench", "sweep", "burst", burst);
    std::vector<chaos::ScheduleOutcome> outcomes;
    if (tracing) {
      // Sequential with the tracer attached (pool was dropped above).
      outcomes.reserve(seeds.size());
      for (const std::uint64_t seed : seeds) {
        outcomes.push_back(chaos::run_schedule(spec, seed, &tracer));
      }
    } else {
      outcomes = chaos::run_schedule_sweep(spec, seeds, pool.get());
    }

    // Outcomes are index-aligned with the seed list, so aggregation below
    // is identical for any thread count.
    for (const auto& out : outcomes) {
      if (out.skipped) continue;
      if (!out.ok()) {
        std::fprintf(stderr,
                     "CHAOS VIOLATION\n  burst=%zu seed=%llu\n%s\n"
                     "  replay plan: %s\n",
                     burst, static_cast<unsigned long long>(out.seed),
                     out.diagnostics.c_str(), out.plan_json.c_str());
        tracer.flush();
        return 1;
      }
      gr_probes_total += out.gr_probes_run;
      row.recovery_first.push_back(out.end_time - out.first_action);
      row.recovery_last.push_back(out.end_time - out.last_action);
      const std::uint64_t updates = obs::updates(out.metrics);
      row.updates.push_back(static_cast<double>(updates));
      row.deaggregations +=
          obs::count(out.metrics, obs::EventKind::kDeaggregate);
      row.lost += obs::count(out.metrics, obs::EventKind::kMsgLost);
      agg.merge_from(out.metrics);
      char name[64];
      std::snprintf(name, sizeof name, "chaos.recovery_ms.burst.%zu", burst);
      bench_metrics.histogram(name)->observe(
          static_cast<std::uint64_t>(row.recovery_last.back() * 1e3));
      std::snprintf(name, sizeof name, "chaos.updates.burst.%zu", burst);
      bench_metrics.histogram(name)->observe(updates);
      bench_metrics.counter("chaos.schedules")->inc();
    }
    rows.push_back(std::move(row));
  }

  stats::Table table({"burst", "schedules", "recovery p50 (s)",
                      "recovery p90 (s)", "recovery-from-first p90 (s)",
                      "updates p50", "updates max", "deagg", "msgs lost"});
  for (const auto& row : rows) {
    table.add_row(
        {std::to_string(row.burst), std::to_string(row.recovery_last.size()),
         stats::format_number(stats::percentile(row.recovery_last, 0.5)),
         stats::format_number(stats::percentile(row.recovery_last, 0.9)),
         stats::format_number(stats::percentile(row.recovery_first, 0.9)),
         stats::format_number(stats::percentile(row.updates, 0.5)),
         stats::format_number(stats::max_of(row.updates)),
         std::to_string(row.deaggregations), std::to_string(row.lost)});
  }
  table.print();

  if (flags.boolean("crash")) {
    // Session-lifecycle summary, aggregated over every schedule: how many
    // sessions the sweep tore and rebuilt, what graceful restart retained,
    // and how long re-sync took (the restart-window histogram).
    const auto counter = [&agg](const char* name) -> unsigned long long {
      const auto* c = agg.find_counter(name);
      return c != nullptr ? c->value() : 0;
    };
    const auto count = [&agg](obs::EventKind kind) -> unsigned long long {
      return obs::count(agg, kind);
    };
    std::printf(
        "# sessions: crashed=%llu restarted=%llu torn=%llu established=%llu "
        "hold_expiries=%llu\n",
        count(obs::EventKind::kNodeCrash), count(obs::EventKind::kNodeRestart),
        count(obs::EventKind::kSessionDown), count(obs::EventKind::kSessionUp),
        count(obs::EventKind::kHoldExpire));
    std::printf(
        "# stale routes: retained=%llu swept=%llu window_expired=%llu; "
        "eor sent=%llu recv=%llu; gr probes run=%llu\n",
        counter("dragon.session.stale_retained"),
        counter("dragon.session.stale_swept"),
        counter("dragon.session.stale_expired"),
        count(obs::EventKind::kEorSend), count(obs::EventKind::kEorRecv),
        static_cast<unsigned long long>(gr_probes_total));
    if (const auto* h = agg.find_histogram("dragon.session.resync_ms");
        h != nullptr && h->count() > 0) {
      std::printf(
          "# re-sync window: p50=%.0fms p90=%.0fms max=%llums (%llu samples)\n",
          h->quantile(0.5), h->quantile(0.9),
          static_cast<unsigned long long>(h->max()),
          static_cast<unsigned long long>(h->count()));
    }
  }

  tracer.flush();
  tracer.export_metrics(bench_metrics);
  if (!flags.str("metrics-json").empty()) {
    bench::write_metrics_json(
        flags.str("metrics-json"),
        {{"bench", &bench_metrics}, {"engine", &agg}},
        bench::run_meta_json("bench_chaos", flags.u64("seed"), threads));
  }
  pool.reset();  // exporting spans requires the workers joined
  bench::maybe_export_span_trace(
      flags, "bench_chaos", {{"seed", std::to_string(flags.u64("seed"))}});
  std::puts("# all schedules passed invariants and the differential oracle");
  return 0;
}
