// Per-node protocol state for the event-driven engine.
//
// Each node keeps, per prefix (keyed by the simulation interner's dense
// PrefixId, see prefix/intern.hpp), the candidate attribute learned from
// every neighbour (Adj-RIB-In, already import-processed), the elected
// attribute, origination state, and the DRAGON filtering flag.  Per
// neighbour it keeps the Adj-RIB-Out (last advertised attribute) and the
// MRAI pacing state.  All of it lives in the flat PrefixId-keyed tables of
// engine/rib.hpp, so a node's deep copy is a few vector copies, not tree
// clones.  Snapshots copy every node; a restore of the same snapshot
// copies back only the nodes the Simulator wrote through touch() since.
// Election logic lives here; messaging and timers live in the Simulator.
#pragma once

#include <cstdint>
#include <vector>

#include "algebra/algebra.hpp"
#include "engine/rib.hpp"
#include "engine/session.hpp"
#include "prefix/intern.hpp"
#include "topology/graph.hpp"

namespace dragon::engine {

struct RouteEntry {
  /// Candidate attribute per neighbour (import policy already applied),
  /// sorted by neighbour id.
  RibIn rib_in;
  algebra::Attr elected = algebra::kUnreachable;
  /// DRAGON code CR decision: elected but not installed/announced.
  bool filtered = false;
  /// This node originates the prefix (assigned, de-aggregate, or
  /// aggregation origination).
  bool originated = false;
  algebra::Attr origin_attr = algebra::kUnreachable;
  /// RA de-aggregation (§3.8) pauses the root origination while the
  /// fragments are announced; `origin_paused` keeps the intent without the
  /// announcement.
  bool origin_paused = false;
  /// This origination is a §3.7/§3.8 self-organised aggregation (it is
  /// withdrawn again when the tiling breaks or an equally-preferred route
  /// for the root is learned, Fig. 6).
  bool origin_reagg = false;
  /// Observability bookkeeping: whether this entry was last accounted as
  /// an installed forwarding entry (elected and unfiltered).  Kept in
  /// sync by Simulator::sync_entry_obs so FIB install/remove counters and
  /// the fib_entries gauge never double-count, whichever mutation path
  /// (election change or filter flip) fired.
  bool fib_installed = false;
};

/// Route-flap damping state per (neighbour, prefix) — RFC 2439-style
/// exponential penalty decay, configured by engine::DampingConfig.  Lives
/// in NeighborIo so snapshot/restore and crash wipes carry it with the
/// rest of the channel state.
struct DampState {
  /// Accumulated flap penalty, decayed as of `stamp`.
  double penalty = 0.0;
  double stamp = 0.0;
  bool suppressed = false;
  /// Latest imported state received while suppressed; reinstated when the
  /// penalty decays to the reuse threshold.
  bool held_announce = false;
  algebra::Attr held_attr = algebra::kUnreachable;
  /// Release-timer cancellation guard: bumped on every suppress/release
  /// transition, captured by the scheduled release event.
  std::uint32_t gen = 0;
};

struct NeighborIo {
  /// Adj-RIB-Out: what we last advertised, per prefix id (absent =
  /// withdrawn or never announced).
  PrefixIdMap<algebra::Attr> sent;
  /// Route-flap damping state per prefix (empty unless
  /// Config::damping.enabled; see Simulator::damp_absorb).
  PrefixIdMap<DampState> damp;
  /// Prefixes with a (re)advertisement or withdrawal waiting for MRAI.
  PrefixIdSet pending;
  /// Highest message sequence number delivered from this neighbour, per
  /// prefix.  Messages carry a global monotone sequence; a delivery older
  /// than the newest one seen for the same (neighbour, prefix) is stale
  /// and discarded.  This models TCP's in-order sessions: per-prefix
  /// updates never apply out of order, even when chaos-injected extra
  /// jitter or a fast fail/restore cycle reorders wire messages.
  PrefixIdMap<std::uint64_t> rx_seq;
  /// Earliest time the next batch may leave.
  double mrai_ready = 0.0;
  /// A flush event is already scheduled at mrai_ready.
  bool flush_scheduled = false;

  // --- Peering-session state (engine/session.hpp; only meaningful when
  // --- Config::session.enabled) -------------------------------------------
  /// This side's view of the session towards the neighbour.  Kept here so
  /// it snapshots/restores with the node state; the timer-cancellation
  /// epochs live in the Simulator (they must survive a crashed node's
  /// state being wiped, or a stale timer could collide with a fresh
  /// session's epoch).
  SessionState sess = SessionState::kEstablished;
  /// Graceful restart: prefixes whose rib_in candidate from this
  /// neighbour is retained as stale, pending refresh or sweep.
  PrefixIdSet stale;
  /// When the open stale-retention cycle began (0 = no open cycle); the
  /// restart-window histogram observes now() - stale_since at resolution.
  double stale_since = 0.0;
  /// Bumped whenever a retention cycle closes, so an outstanding
  /// window-expiry sweep timer from an older cycle dies on the guard.
  std::uint64_t stale_gen = 0;
  /// Send an End-of-RIB marker after the next flushed refresh batch.
  bool eor_pending = false;
  /// A keepalive-loss probe episode is in flight on this channel (at most
  /// one pending hold-expiry draw per channel).
  bool probing = false;
};

struct NodeState {
  /// The per-node RIB, keyed by PrefixId.  Append-only per node: entries
  /// are only ever removed wholesale by clear() (crash wipe), never
  /// individually, so slots stay stable.  Membership here is what the
  /// seed code's `known` PrefixSet tracked — the interner's covering
  /// chain filtered by `find() != nullptr` answers the §3.6 parent query.
  FlatTable<RouteEntry> routes;
  /// Per-neighbour IO state, indexed by the Simulator's dense neighbour
  /// slot (topology adjacency order; see Simulator::io()).  Sized once at
  /// construction and *reset in place* on crash wipes, so the always-
  /// present defaults (kEstablished, empty stale) reproduce the seed
  /// code's absent-map-entry semantics.
  std::vector<NeighborIo> io;

  /// Re-elects the prefix from rib_in/origination.  Returns the new
  /// attribute.  The origin's own route competes with learned candidates
  /// (relevant for anycast aggregation prefixes).
  algebra::Attr elect(const algebra::Algebra& alg, prefix::PrefixId id);

  [[nodiscard]] const RouteEntry* find(prefix::PrefixId id) const {
    return routes.find(id);
  }
  RouteEntry& route(prefix::PrefixId id) { return routes.get_or_create(id); }

  /// Does this node install a forwarding entry for the prefix?
  [[nodiscard]] bool fib_active(prefix::PrefixId id) const;

  /// Wipes route state and resets every NeighborIo in place (the io
  /// vector keeps its size — one slot per topology neighbour).
  void clear();
};

}  // namespace dragon::engine
