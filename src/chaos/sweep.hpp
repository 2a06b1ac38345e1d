// Parallel chaos schedule sweeps.
//
// A chaos sweep runs many independent seeded fault schedules: each one
// brings a fresh Simulator to quiescence, replays its generated
// FaultPlan, re-converges under the watchdog, and audits the quiescent
// state with the invariant suite and the differential oracle.  Schedules
// share nothing — each gets its own Simulator instance, RNG streams, and
// metrics registry — so the sweep is embarrassingly parallel across
// seeds.  run_schedule_sweep() exploits exactly that over an
// exec::ThreadPool while keeping the outcome list bit-identical for any
// thread count: outcomes are index-aligned with the seed list and every
// schedule is a pure function of (spec, seed).  See DESIGN.md §8.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "chaos/invariants.hpp"
#include "chaos/oracle.hpp"
#include "chaos/watchdog.hpp"
#include "engine/simulator.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dragon::exec {
class ThreadPool;
}

namespace dragon::chaos {

/// Everything a harness needs from one schedule, collected in-task so the
/// sweep can run on worker threads and be aggregated in seed order later.
struct ScheduleOutcome {
  std::uint64_t seed = 0;
  /// The generated plan had no actions; nothing ran past bring-up.
  bool skipped = false;
  bool quiescent = false;
  bool invariants_ok = false;
  bool oracle_ok = false;
  /// Graceful-restart window probes (SweepSpec::probe_gr_windows): true
  /// unless a mid-window forwarding walk found a loop or black hole.
  bool gr_probes_ok = true;
  /// Number of in-window probe walks that actually fired (probes self-gate
  /// on the crash being the sole active perturbation).
  std::size_t gr_probes_run = 0;
  /// Timestamps of the first/last fault action and of quiescence.
  double first_action = 0.0;
  double last_action = 0.0;
  double end_time = 0.0;
  /// Copy of the simulator's registry after the schedule completed
  /// (reset after bring-up, so it counts the plan's events only; read
  /// with obs::count / obs::updates).  Empty when the schedule was
  /// skipped or failed.
  obs::MetricsRegistry metrics;
  /// The plan, serialised for replayable bug reports.
  std::string plan_json;
  /// Failure detail (watchdog diagnostics / invariant report / oracle
  /// mismatches); empty on success.
  std::string diagnostics;

  [[nodiscard]] bool ok() const {
    return skipped ||
           (quiescent && invariants_ok && oracle_ok && gr_probes_ok);
  }
};

/// The shared, read-only description of a sweep.  One spec serves every
/// schedule; per-schedule state is derived from the seed alone.
struct SweepSpec {
  const topology::Topology* topo = nullptr;
  const algebra::Algebra* alg = nullptr;
  /// Base simulator configuration; `seed` is overridden per schedule.
  engine::Config config;
  std::vector<OriginSpec> origins;
  /// Plan parameters; `start` is overridden with the converged now().
  PlanParams params;
  InvariantOptions invariants;
  OracleOptions oracle;
  /// For every kNodeCrash action (session layer + graceful restart on),
  /// inject forwarding-walk probes just after the peers' hold timers fire
  /// and at mid restart-window: RFC 4724 retention promises traffic keeps
  /// flowing through the frozen node, so an in-window loop or black hole
  /// fails the schedule.  Probes self-gate at fire time on the crash being
  /// the only active perturbation (no failed links, no other node down) —
  /// overlapping faults legitimately create transient holes.
  bool probe_gr_windows = false;
  /// Source nodes sampled per probe walk (stride over the id space).
  std::size_t probe_sources = 8;
};

/// Runs one full schedule: bring-up, plan replay, re-convergence, audits.
/// `tracer` (optional, single-threaded callers only) is attached to the
/// simulator for the schedule's duration.
[[nodiscard]] ScheduleOutcome run_schedule(const SweepSpec& spec,
                                           std::uint64_t seed,
                                           obs::EventTracer* tracer = nullptr);

/// Runs every seed's schedule, each on its own Simulator instance, over
/// `pool` (nullptr runs sequentially).  Outcomes are index-aligned with
/// `seeds` and identical for any thread count.
[[nodiscard]] std::vector<ScheduleOutcome> run_schedule_sweep(
    const SweepSpec& spec, std::span<const std::uint64_t> seeds,
    exec::ThreadPool* pool = nullptr);

}  // namespace dragon::chaos
