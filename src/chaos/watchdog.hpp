// Convergence watchdog: bounded-time quiescence with loud diagnostics
// and divergence classification.
//
// Every driver used to call Simulator::run_until_quiescent with a huge
// horizon; a protocol that livelocks (a policy dispute, a §3.7
// origination oscillation, or a chaos schedule with 100% message loss)
// would spin there for minutes before anyone noticed.  The watchdog wraps
// Simulator::run_bounded with both a sim-time horizon *relative to now()*
// and an event-count budget, and when either budget trips it returns a
// diagnostics string — sim time, events processed, queue depth, the
// update counters, and the tail of the attached event tracer — instead
// of hanging.  Tests assert `result.quiescent << result.diagnostics`.
//
// With WatchdogLimits::classify on, the run is additionally sliced into
// event batches and a per-node digest of the whole RIB state is sampled
// after each batch.  When a budget trips, the last 1024 samples are
// scanned for the smallest period that repeats over three full cycles:
//   kConverged   — the queue drained (always reported when quiescent);
//   kOscillating — the global state digest is periodic; the result
//                  carries the period (in samples) and the set of nodes
//                  whose state changes inside one cycle (the BAD-GADGET
//                  participants, §Griffin-Shepherd-Wilfong);
//   kLivelock    — budgets tripped with no periodic state signature
//                  (either aperiodic divergence or event churn that never
//                  touches the RIB).
// The scenario engine (src/chaos/scenario.hpp) cross-checks this label
// against the algebra's convergence criteria: a strictly-increasing
// algebra (algebra::check_convergence_criteria) must classify kConverged.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/simulator.hpp"
#include "obs/trace.hpp"
#include "topology/graph.hpp"

namespace dragon::chaos {

enum class Quiescence : std::uint8_t { kConverged, kOscillating, kLivelock };

[[nodiscard]] const char* to_string(Quiescence q) noexcept;

struct WatchdogLimits {
  /// Sim-time budget, measured from sim.now() when the run starts.
  double max_sim_horizon = 1e7;
  /// Event budget for this run (livelocks burn events, not sim time).
  std::size_t max_events = 50'000'000;
  /// Divergence classification (off by default: a single run_bounded
  /// call, bit-identical to the pre-classifier watchdog).  When on, the
  /// run proceeds in `sample_every_events`-sized batches with a RIB
  /// digest sample after each.  Pick a cadence that does not divide the
  /// expected oscillation's event period — sampling at a multiple of the
  /// period aliases the cycle to a constant (reported kLivelock, not
  /// converged, so aliasing can mislabel but never hide divergence).
  /// Protocol oscillations have even event-periods (announce/withdraw
  /// pairs), hence the odd-prime default.
  bool classify = false;
  std::size_t sample_every_events = 251;
};

struct WatchdogResult {
  bool quiescent = false;
  std::size_t events = 0;
  double end_time = 0.0;
  /// kConverged when quiescent; oscillation/livelock split only when
  /// WatchdogLimits::classify was on.
  Quiescence classification = Quiescence::kConverged;
  /// Oscillation period in digest samples (0 unless kOscillating).
  std::size_t period = 0;
  /// Nodes whose RIB digest changes within the detected cycle, ascending
  /// (empty unless kOscillating).
  std::vector<topology::NodeId> participants;
  /// Digest samples taken (classify mode only).
  std::size_t samples = 0;
  /// Global RIB digest after the run (classify mode only) — equal runs
  /// end in equal digests, which the scenario sweep uses to assert
  /// thread-count invariance.
  std::uint64_t state_digest = 0;
  /// Empty when quiescent; otherwise a multi-line failure report (with
  /// classification, period and participants when classify was on).
  std::string diagnostics;
};

/// Runs the simulator until its queue drains or a budget trips.  `tracer`
/// (optional) contributes its most recent records to the diagnostics —
/// pass the tracer attached to `sim` to see what the protocol was doing
/// when the watchdog fired.
WatchdogResult run_to_quiescence(engine::Simulator& sim,
                                 const WatchdogLimits& limits = {},
                                 const obs::EventTracer* tracer = nullptr);

}  // namespace dragon::chaos
