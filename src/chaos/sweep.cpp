#include "chaos/sweep.hpp"

#include <algorithm>
#include <cstdio>
#include <set>

#include "exec/parallel.hpp"
#include "obs/span.hpp"

namespace dragon::chaos {

namespace {

using topology::NodeId;

const WatchdogLimits kScheduleLimits{1e6, 50'000'000};

/// One graceful-restart window probe: forwarding walks from stride-sampled
/// sources to every active origination address, while the crashed node's
/// plane is frozen and its peers hold the routes as stale.
void probe_gr_walk(const engine::Simulator& sim, NodeId crashed,
                   std::size_t max_sources, std::string& failures) {
  std::set<prefix::Address> dests;
  sim.for_each_route([&](NodeId, const prefix::Prefix& p,
                         const engine::RouteEntry& e) {
    if (e.originated && !e.origin_paused) dests.insert(p.first_address());
  });
  const std::size_t n = sim.topology_used().node_count();
  const std::size_t take = std::min(max_sources, n);
  if (take == 0) return;
  const std::size_t stride = n / take;
  for (std::size_t i = 0; i < take; ++i) {
    const NodeId u = static_cast<NodeId>(i * stride);
    if (!sim.node_up(u)) continue;
    for (const prefix::Address dst : dests) {
      const auto tr = sim.trace(u, dst);
      const bool loop = tr.outcome == engine::Simulator::Outcome::kLoop;
      // Source-stuck walks are fine (the source may simply have no route);
      // a *forwarded* packet dying is the retention promise breaking.
      const bool hole =
          tr.outcome == engine::Simulator::Outcome::kBlackHole &&
          tr.path.size() > 1;
      if (!loop && !hole) continue;
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "gr_probe t=%.6f crashed=%u src=%u dst=%08x: %s after "
                    "%zu hop(s)\n",
                    sim.now(), crashed, u, dst,
                    loop ? "forwarding loop" : "black hole",
                    tr.path.size() - 1);
      failures += buf;
      return;  // one violation per probe keeps reports readable
    }
  }
}

}  // namespace

ScheduleOutcome run_schedule(const SweepSpec& spec, std::uint64_t seed,
                             obs::EventTracer* tracer) {
  ScheduleOutcome out;
  out.seed = seed;

  engine::Config config = spec.config;
  config.seed = seed;
  engine::Simulator sim(*spec.topo, *spec.alg, std::move(config));
  if (tracer != nullptr) sim.set_tracer(tracer);
  chaos::WatchdogResult run;
  {
    DRAGON_SPAN("chaos", "bring_up");
    for (const auto& o : spec.origins) {
      sim.originate(o.prefix, o.origin, o.attr);
    }
    run = run_to_quiescence(sim, kScheduleLimits, tracer);
  }
  if (!run.quiescent) {
    out.diagnostics = "initial convergence stalled\n" + run.diagnostics;
    return out;
  }

  PlanParams params = spec.params;
  params.start = sim.now();  // fault window opens at the converged state
  const FaultPlan plan = generate_plan(*spec.topo, spec.origins, params, seed);
  out.plan_json = plan.to_json();
  if (plan.actions.empty()) {
    out.skipped = true;
    return out;
  }
  out.first_action = plan.actions.front().t;
  out.last_action = plan.last_time();

  sim.reset_stats();
  schedule_plan(sim, plan);
  std::string probe_failures;
  if (spec.probe_gr_windows && spec.config.session.enabled &&
      spec.config.session.graceful_restart) {
    const engine::SessionConfig& sc = spec.config.session;
    for (const FaultAction& act : plan.actions) {
      if (act.kind != FaultKind::kNodeCrash) continue;
      const NodeId n = act.a;
      // Just after detection, and mid-window: both instants fall inside
      // the retention period when the node is still down.
      for (const double at : {act.t + sc.hold_time + 1e-3,
                              act.t + sc.hold_time + 0.5 * sc.restart_window}) {
        sim.inject(at, [&sim, &spec, &probe_failures, &out, n] {
          if (!sim.failed_links().empty()) return;
          const auto down = sim.down_nodes();
          if (down.size() != 1 || down[0] != n) return;
          ++out.gr_probes_run;
          probe_gr_walk(sim, n, spec.probe_sources, probe_failures);
        });
      }
    }
  }
  {
    DRAGON_SPAN_ARG("chaos", "replay", "actions", plan.actions.size());
    run = run_to_quiescence(sim, kScheduleLimits, tracer);
  }
  out.quiescent = run.quiescent;
  out.end_time = run.end_time;
  if (!run.quiescent) {
    out.diagnostics = run.diagnostics;
    return out;
  }
  if (!probe_failures.empty()) {
    out.gr_probes_ok = false;
    out.diagnostics = probe_failures;
    return out;
  }

  DRAGON_SPAN("chaos", "audit");
  const auto report = check_invariants(sim, spec.invariants);
  out.invariants_ok = report.ok();
  if (!out.invariants_ok) {
    out.diagnostics = report.to_string();
    return out;
  }
  const auto oracle = differential_check(sim, {}, spec.oracle);
  out.oracle_ok = oracle.match;
  if (!out.oracle_ok) {
    out.diagnostics = oracle.to_string();
    return out;
  }

  out.metrics.merge_from(sim.metrics());
  return out;
}

std::vector<ScheduleOutcome> run_schedule_sweep(const SweepSpec& spec,
                                                std::span<const std::uint64_t> seeds,
                                                exec::ThreadPool* pool) {
  // One schedule per chunk: schedules are heavyweight (a full simulator
  // run each), so per-item dispatch is the right granularity and keeps
  // worker-level interleaving irrelevant to the outcome list.
  exec::ParallelOptions opts;
  opts.chunks = seeds.size();
  return exec::parallel_map<ScheduleOutcome>(
      pool, seeds.size(),
      [&spec, seeds](std::size_t i, exec::TaskContext&) {
        return run_schedule(spec, seeds[i]);
      },
      opts);
}

}  // namespace dragon::chaos
