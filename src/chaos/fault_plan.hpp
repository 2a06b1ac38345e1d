// Seeded fault schedules for the chaos-testing subsystem.
//
// A FaultPlan is a time-ordered list of fault actions — link failures and
// restorations, whole-node outages (every incident link at once), node
// crash/restart events (volatile state loss + session-driven re-sync,
// engine/session.cpp), and origin flaps (withdraw + re-announce of an
// assigned prefix) — generated as a pure function of a 64-bit seed.
// Plans are data: they serialise to JSON for bug reports, parse back via
// from_json (so a violation report replays from the printed plan alone),
// replay exactly via schedule_plan(), and expose their *net* effect
// (links failed at the end, nodes down at the end, originations surviving
// at the end) so the differential oracle can build the equivalent
// fault-free reference network.  Message-level faults (loss, duplication,
// reorder) are orthogonal and live in engine::MessageFaults.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "algebra/algebra.hpp"
#include "engine/simulator.hpp"
#include "prefix/prefix.hpp"
#include "topology/graph.hpp"

namespace dragon::chaos {

enum class FaultKind : std::uint8_t {
  kLinkFail,
  kLinkRestore,
  kOriginWithdraw,
  kOriginAnnounce,
  kNodeCrash,    // Simulator::crash_node (requires session layer enabled)
  kNodeRestart,  // Simulator::restart_node
  // Adversarial misbehaviour (the scenario engine, src/chaos/scenario.*):
  kRouteLeakStart,  // Simulator::start_route_leak (needs Algebra::leak_attr)
  kRouteLeakStop,
  kHijackAnnounce,  // Simulator::originate_rogue — wrong-origin announcement
  kHijackWithdraw,
  /// Sentinel, not a fault: sizes the serialised-name table so that
  /// adding a kind without a name is a compile error (fault_plan.cpp).
  kCount_,
};

[[nodiscard]] const char* to_string(FaultKind kind) noexcept;

struct FaultAction {
  double t = 0.0;
  FaultKind kind = FaultKind::kLinkFail;
  /// Link endpoints (link actions); `a` doubles as the node id for
  /// crash/restart actions (serialised as "node").
  topology::NodeId a = 0;
  topology::NodeId b = 0;
  /// Origination being flapped (origin actions only).
  prefix::Prefix prefix;
  topology::NodeId origin = 0;
  algebra::Attr attr = algebra::kUnreachable;

  [[nodiscard]] std::string to_json() const;
};

/// An assigned origination, as the plan generator and oracle see it.
struct OriginSpec {
  prefix::Prefix prefix;
  topology::NodeId origin = 0;
  algebra::Attr attr = algebra::kUnreachable;
};

struct FaultPlan {
  std::uint64_t seed = 0;
  /// Non-decreasing in t.  Correlated bursts share one timestamp.
  std::vector<FaultAction> actions;

  /// Time of the last action (0 when empty).
  [[nodiscard]] double last_time() const;

  /// The whole plan as one JSON object (seed + action array) — printed
  /// verbatim alongside invariant violations so a failure replays from
  /// the report alone.
  [[nodiscard]] std::string to_json() const;

  /// Parses a plan back out of to_json()'s output (tolerating
  /// insignificant whitespace).  Returns nullopt on any malformed input —
  /// a replay tool must fail loudly rather than run a half-parsed plan.
  [[nodiscard]] static std::optional<FaultPlan> from_json(
      std::string_view json);

  /// Links still failed after the last action, as undirected (min, max)
  /// pairs (replays the schedule; overlapping fail/restore pairs resolve
  /// exactly as the idempotent simulator operations do).
  [[nodiscard]] std::vector<std::pair<topology::NodeId, topology::NodeId>>
  net_failed_links() const;

  /// Nodes still crashed after the last action, ascending (replays the
  /// schedule with the simulator's idempotency: double crashes and
  /// restarts of up nodes are no-ops).
  [[nodiscard]] std::vector<topology::NodeId> net_down_nodes() const;

  /// The subset of `initial` still announced after the last action, in
  /// the original order (flapped-and-restored origins survive).
  [[nodiscard]] std::vector<OriginSpec> surviving_origins(
      const std::vector<OriginSpec>& initial) const;

  /// Nodes still route-leaking after the last action, ascending.
  [[nodiscard]] std::vector<topology::NodeId> net_leaking_nodes() const;

  /// Rogue (hijack) originations still active after the last action,
  /// ordered (prefix, origin).
  [[nodiscard]] std::vector<OriginSpec> net_rogue_origins() const;
};

struct PlanParams {
  /// Actions are drawn uniformly in [start, start + horizon] and then
  /// sorted; `min_gap` pads bursts apart so restores never collide with
  /// their own failure instant.
  double start = 0.0;
  double horizon = 60.0;
  double min_gap = 0.05;
  /// Number of scheduled fault events (each may expand to many actions).
  std::size_t events = 8;
  /// Links per correlated failure burst (1 = independent failures).
  std::size_t burst = 1;
  /// Probability that a failed link / downed node gets a restoration
  /// scheduled, uniformly within `restore_delay` after the failure.
  double restore_prob = 0.7;
  double restore_delay = 20.0;
  /// Probability that an event flaps a random origination instead of
  /// failing links (withdraw; re-announce with probability restore_prob).
  double origin_flap_prob = 0.0;
  /// Probability that a failure event downs a whole node: every incident
  /// link fails in one burst (and restores in one burst, if restored).
  double node_fault_prob = 0.0;
  /// Probability that a failure event crashes a node's control plane
  /// instead (kNodeCrash; restarted with probability restore_prob within
  /// restore_delay).  Requires the session layer — schedule_plan's crash
  /// actions are warned no-ops without it.  Zero draws no randomness, so
  /// pre-existing plans for the same seed are unchanged.
  double crash_prob = 0.0;
  /// Probability that an event starts a route leak at a random transit
  /// node (kRouteLeakStart; stopped again with probability restore_prob).
  /// Requires an algebra that models leaks (Algebra::leak_attr).  Zero
  /// draws no randomness, like crash_prob.
  double leak_prob = 0.0;
  /// Probability that an event hijacks a random origination: a node other
  /// than the assigned origin announces a more-specific of the victim's
  /// prefix with the victim's attribute (kHijackAnnounce; withdrawn again
  /// with probability restore_prob).  Zero draws no randomness.
  double hijack_prob = 0.0;
};

/// Generates a plan as a pure function of (topo, origins, params, seed):
/// the same arguments always yield the identical action list.
[[nodiscard]] FaultPlan generate_plan(const topology::Topology& topo,
                                      const std::vector<OriginSpec>& origins,
                                      const PlanParams& params,
                                      std::uint64_t seed);

/// Injects every action into the simulator's event queue (at its absolute
/// timestamp, clamped to now), interleaving faults deterministically with
/// protocol events.  Call before running the simulator.
void schedule_plan(engine::Simulator& sim, const FaultPlan& plan);

}  // namespace dragon::chaos
