// Event-driven BGP-like simulator with DRAGON in the control loop — the
// role SimBGP plays in the paper's §5.3 convergence study.
//
// The engine models:
//   * per-prefix announce/withdraw message passing with link delays;
//   * per-peer MRAI pacing (default 30 s, jittered per session);
//   * the full decision process of an arbitrary routing algebra;
//   * session resets on link failure/restoration;
// and, when DRAGON is enabled:
//   * code CR filtering against the locally-known parent prefix (§3.1,
//     §3.6) — filtered prefixes stay in the RIB but leave the FIB and are
//     withdrawn from neighbours;
//   * rule RA monitoring at origins with automatic de-aggregation and
//     re-aggregation (§3.8);
//   * self-organising aggregation-prefix origination: a node electing
//     routes at least as preferred as the origination attribute for a set
//     of prefixes tiling a watched root originates the root, and pauses
//     when it learns an equally-preferred route for it (Figs. 5-6, §3.7).
//
// CR and RA compare *L-attributes*: the Config's l_attr projection maps an
// attribute to the value that takes precedence in election (the GR class
// when running GrPathAlgebra), implementing the paper's X = infinity
// evaluation setting where AS-path lengths do not block filtering (§3.5).
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <map>
#include <set>

#include "algebra/algebra.hpp"
#include "engine/event_queue.hpp"
#include "engine/node.hpp"
#include "engine/session.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "prefix/intern.hpp"
#include "prefix/prefix.hpp"
#include "topology/graph.hpp"
#include "util/rng.hpp"

namespace dragon::engine {

/// Probabilistic message faults on the wire (the chaos subsystem's send-path
/// seam, src/chaos/).  Loss models a transport-level drop followed by an
/// eventual retransmission — the prefix is re-flushed `retransmit` seconds
/// later — so a lossy run still converges to the fault-free stable state
/// (the differential oracle relies on this).  Duplication re-delivers the
/// same message with independent jitter; `delay_prob`/`extra_delay` add
/// reorder-inducing one-way latency, which the per-(neighbour, prefix)
/// sequence guard in the receive path keeps semantically in-order.  All
/// draws come from a dedicated RNG stream forked from the simulator seed,
/// so fault patterns replay exactly and zeroed probabilities consume no
/// randomness (bit-identical to a fault-free run).
struct MessageFaults {
  double loss = 0.0;        ///< P(outgoing update dropped, retransmitted)
  double duplicate = 0.0;   ///< P(update delivered twice)
  double delay_prob = 0.0;  ///< P(extra one-way delay added)
  double extra_delay = 0.5; ///< max extra delay, seconds (uniform draw)
  double retransmit = 0.1;  ///< delay before a lost update is re-flushed

  [[nodiscard]] bool any() const noexcept {
    return loss > 0.0 || duplicate > 0.0 || delay_prob > 0.0;
  }
};

/// RFC 2439-style route-flap damping, applied per (node, neighbour,
/// prefix) on the receive path.  Every change to a neighbour's candidate
/// adds `penalty`; the accumulated penalty decays exponentially with
/// `half_life`.  Crossing `suppress` removes the candidate and holds later
/// updates from that neighbour; the held state is reinstated once the
/// penalty decays to `reuse`.  Suppression always releases in finite sim
/// time (the release event re-arms itself), so a quiescent state is
/// damping-free and the differential oracle stays valid.
struct DampingConfig {
  bool enabled = false;
  double penalty = 1.0;    ///< added per candidate change
  double suppress = 3.0;   ///< suppress when penalty >= this
  double reuse = 1.0;      ///< release when decayed penalty <= this
  double half_life = 10.0; ///< exponential decay half-life, seconds

  [[nodiscard]] double release_delay(double p) const {
    // Time for `p` to decay to the reuse threshold.
    if (p <= reuse || reuse <= 0.0 || half_life <= 0.0) return 0.0;
    return half_life * std::log2(p / reuse);
  }
};

struct Config {
  /// MRAI per peering session: uniform in [mrai*(1-jitter), mrai].
  double mrai = 30.0;
  double mrai_jitter = 0.25;
  /// One-way message delay: uniform in [d*(1-jitter), d*(1+jitter)].
  double link_delay = 0.01;
  double link_delay_jitter = 0.5;
  /// Chaos-testing message faults (all zero: no faults, no RNG draws).
  MessageFaults faults;
  /// Peering-session lifecycle (hold timers, crash/restart, graceful
  /// restart).  Disabled by default: the seed engine's always-on
  /// adjacencies, bit-identical event and RNG sequences.
  SessionConfig session;
  bool enable_dragon = false;
  /// §3.8 self-organising (re-)origination of watched aggregation roots.
  bool enable_reaggregation = true;
  /// Give every directed link a unique label id (link_id << 2 | GR label)
  /// for path-identity algebras such as GrPathVectorAlgebra, which model
  /// BGP's AS-PATH content changes (path exploration).  Plain GR-family
  /// algebras only read the low two bits, so this is compatible with them.
  bool unique_link_labels = false;
  /// Per-edge import-label override (adversarial dispute gadgets, see
  /// algebra/gadgets.hpp): called once per directed adjacency at
  /// construction with the GR-derived label (after any unique_link_labels
  /// encoding); the returned label is used instead.  Unset: identity.
  std::function<algebra::LabelId(topology::NodeId learner,
                                 topology::NodeId speaker,
                                 algebra::LabelId gr)>
      label_override;
  /// Route-leak masquerade (chaos scenario engine): when a node marked
  /// with start_route_leak() hits an export the algebra's policy would
  /// drop, the elected attribute is rewritten through this hook and sent
  /// anyway — the wire carries attributes, so the receiver cannot tell
  /// the class was forged.  Returning kUnreachable still drops the
  /// export.  Unset: start_route_leak is a warned no-op.
  std::function<algebra::Attr(algebra::Attr)> leak_mask;
  /// Route-flap damping on the receive path (disabled by default; no
  /// behaviour or RNG change while disabled).
  DampingConfig damping;
  /// L-attribute projection used by CR/RA (smaller = preferred).  Defaults
  /// to the identity (whole-attribute comparison).
  std::function<std::uint32_t(algebra::Attr)> l_attr;
  std::uint64_t seed = 7;
};

/// Thin façade over the simulator's metrics registry: the historical
/// six-counter summary, materialised on demand from the registry's
/// `dragon.engine.*` / `dragon.dragon.*` counters (which are the source
/// of truth — see src/obs/metrics.hpp).
struct Stats {
  std::uint64_t announcements = 0;
  std::uint64_t withdrawals = 0;
  std::uint64_t deaggregations = 0;    // RA-forced de-aggregation events
  std::uint64_t reaggregations = 0;    // origins restoring the aggregate
  std::uint64_t downgrades = 0;        // RA-forced announcement downgrades (§3.9)
  std::uint64_t agg_originations = 0;  // §3.7 self-organised originations

  [[nodiscard]] std::uint64_t updates() const {
    return announcements + withdrawals;
  }
};

class Simulator {
 public:
  using NodeId = topology::NodeId;
  using Prefix = prefix::Prefix;
  using Attr = algebra::Attr;

  /// The topology provides adjacency and GR labels; links can fail and
  /// recover at runtime.  `topo` and `alg` must outlive the simulator.
  Simulator(const topology::Topology& topo, const algebra::Algebra& alg,
            Config config);

  /// Injects an origination (assigned prefix).  The prefix is also watched
  /// for §3.8 re-aggregation when that feature is on.
  void originate(const Prefix& p, NodeId origin, Attr attr);

  /// Removes an origination (prefix returned to the registry).
  void withdraw_origin(const Prefix& p, NodeId origin);

  /// Registers a root for §3.7 self-organised aggregation without anyone
  /// being assigned it: any node electing routes at least as preferred as
  /// `attr` for a tiling of `root` may originate it (Figs. 5-6).  No-op
  /// unless DRAGON and re-aggregation are enabled.
  void watch_aggregate(const Prefix& root, Attr attr);

  // --- Adversarial misbehaviour (chaos scenario engine, src/chaos/) --------

  /// Marks n as a route leaker: exports the algebra's export policy would
  /// drop are sent anyway with Config::leak_mask applied.  Triggers a full
  /// export re-evaluation towards every neighbour.  Warned no-op without
  /// the leak_mask hook or for an invalid node; idempotent.
  void start_route_leak(NodeId n);
  void stop_route_leak(NodeId n);
  [[nodiscard]] bool leaking(NodeId n) const { return leakers_.contains(n); }
  /// Currently leaking nodes, ascending.
  [[nodiscard]] std::vector<NodeId> leaking_nodes() const;

  /// Originates p at `origin` *without* registering an origination record:
  /// an origin hijack — no delegation cross-links, no rule-RA audits, no
  /// aggregation watch.  The forwarding walk (trace()) terminates at the
  /// hijacker like at any originator, which is exactly the blast-radius
  /// semantics the scenario engine measures.  Must not target a prefix
  /// the node legitimately originates (the rogue withdrawal would stomp
  /// the assignment).
  void originate_rogue(const Prefix& p, NodeId origin, Attr attr);
  void withdraw_rogue(const Prefix& p, NodeId origin);
  /// Active rogue originations, ordered (prefix, origin).
  [[nodiscard]] std::vector<std::pair<Prefix, NodeId>> rogue_origins() const;

  /// Fails / restores the link between a and b (sessions reset).  Both are
  /// validated and idempotent: failing a link that does not exist in the
  /// topology (or is already failed), or restoring one that is not failed,
  /// is a warned no-op — chaos schedules may legitimately race a double
  /// failure, and a bogus pair must never open a phantom session.
  void fail_link(NodeId a, NodeId b);
  void restore_link(NodeId a, NodeId b);

  // --- Peering sessions & crash recovery (engine/session.cpp) --------------

  /// Crashes node n: its volatile RIB/FIB state is lost and every peer
  /// detects the silence when its hold timer expires.  With graceful
  /// restart the crashed node's forwarding plane stays frozen (and peers
  /// retain its routes as stale) for the restart window; without it the
  /// node's state is cleared immediately and peers flush on detection.
  /// Requires Config::session.enabled; invalid or already-down nodes are
  /// warned no-ops (chaos schedules may legitimately double-crash).
  void crash_node(NodeId n);
  /// Restarts a crashed node: state rebuilds through session
  /// re-establishment.  With graceful restart the node defers its own
  /// advertisements until End-of-RIB arrives from every peer (RFC 4724),
  /// then floods its table; peers sweep whatever stale routes the refresh
  /// did not cover when the node's own End-of-RIB arrives.
  void restart_node(NodeId n);

  [[nodiscard]] bool node_up(NodeId n) const { return !down_.contains(n); }
  /// Currently crashed nodes, ascending (oracle input, like failed_links).
  [[nodiscard]] std::vector<NodeId> down_nodes() const;
  /// u's view of its session towards v.  kDown when the link is failed,
  /// absent, or u itself is down; defaults to kEstablished otherwise (the
  /// state invariant checkers audit this against liveness at quiescence).
  [[nodiscard]] SessionState session_state(NodeId u, NodeId v) const;
  /// Stale-retained prefixes u holds from v (graceful restart).
  [[nodiscard]] std::size_t stale_route_count(NodeId u, NodeId v) const;
  /// n restarted and is still deferring advertisements (awaiting EoRs).
  [[nodiscard]] bool restart_deferred(NodeId n) const {
    return eor_wait_.contains(n);
  }

  /// Drains the event queue (or stops at max_time).  Returns the number of
  /// events processed.
  std::size_t run_until_quiescent(Time max_time = 1e7);

  struct RunResult {
    std::size_t events = 0;
    /// The queue drained; false when a budget stopped the run first.
    bool quiescent = false;
  };
  /// Like run_until_quiescent, but additionally bounded by an event-count
  /// budget, so a livelocked protocol run returns (quiescent = false)
  /// instead of spinning until the sim-time horizon.  The convergence
  /// watchdog (src/chaos/watchdog.hpp) wraps this with diagnostics.
  RunResult run_bounded(Time max_time, std::size_t max_events);

  /// Schedules an external callback at absolute sim time t (clamped to
  /// now()).  The chaos scheduler uses this to fire fault actions while
  /// convergence is still in flight, interleaved deterministically with
  /// protocol events.
  void inject(Time t, std::function<void()> fn);

  [[nodiscard]] Time now() const { return queue_.now(); }
  /// The Stats façade, read from the metrics registry.
  [[nodiscard]] Stats stats() const;
  /// Zeroes the registry's counters and histograms (gauges keep tracking
  /// current state, e.g. installed FIB entries).
  void reset_stats() { metrics_.reset_accumulators(); }

  // --- Observability -------------------------------------------------------

  /// The simulator's own metrics registry (counters under
  /// `dragon.engine.*` / `dragon.dragon.*`; see DESIGN.md).
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return metrics_;
  }
  /// Attaches a structured event tracer (nullptr detaches).  Non-owning;
  /// the tracer must outlive the simulator or be detached first.
  void set_tracer(obs::EventTracer* tracer) { tracer_ = tracer; }
  /// Attaches a convergence timeline probe (nullptr detaches) and
  /// (re)starts its sampling grid at now().  run_until_quiescent then
  /// records a sample per cadence tick plus a final end-state sample.
  void attach_timeline(obs::Timeline* timeline);

  // --- State introspection -------------------------------------------------

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const topology::Topology& topology_used() const {
    return topo_;
  }
  [[nodiscard]] const algebra::Algebra& algebra_used() const { return alg_; }
  /// The CR/RA L-attribute projection (Config::l_attr or identity).
  [[nodiscard]] std::uint32_t project_attr(Attr a) const { return project(a); }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }

  /// Visits every per-node route entry (the invariant checkers read the
  /// whole RIB/FIB state through this).
  void for_each_route(
      const std::function<void(NodeId, const Prefix&, const RouteEntry&)>& fn)
      const;

  /// A copy of an origination record, for RA audits and oracles.
  struct OriginInfo {
    Prefix root;
    NodeId origin;
    Attr attr;
    Attr effective_attr;
    bool deaggregated;
    std::vector<Prefix> fragments;
    std::vector<Prefix> delegated;
  };
  [[nodiscard]] std::vector<OriginInfo> origin_records() const;

  /// Currently failed links as undirected (min, max) pairs.
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> failed_links() const;

  [[nodiscard]] Attr elected(NodeId u, const Prefix& p) const;
  [[nodiscard]] bool filtered(NodeId u, const Prefix& p) const;
  [[nodiscard]] bool fib_active(NodeId u, const Prefix& p) const;
  /// Number of installed forwarding entries at u.
  [[nodiscard]] std::size_t fib_size(NodeId u) const;
  /// Does u currently originate p (actively announcing)?
  [[nodiscard]] bool originates(NodeId u, const Prefix& p) const;

  enum class Outcome { kDelivered, kBlackHole, kLoop };
  struct TraceResult {
    Outcome outcome;
    std::vector<NodeId> path;
  };
  /// Forwards a packet for `dst` hop by hop through the current FIBs
  /// (deterministic lowest-id choice among equal next hops) until it
  /// reaches a node originating the matched prefix.
  [[nodiscard]] TraceResult trace(NodeId from, prefix::Address dst) const;

  /// Links currently carrying at least one prefix's traffic: undirected
  /// pairs (u, v) where v is a forwarding neighbour of u for some prefix
  /// with an installed entry.  Used by the convergence study to sample
  /// failures that actually affect routing.
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> forwarding_links()
      const;

  // --- Snapshot / restore (for repeated failure trials) ---------------------

  /// Snapshots capture routing state only — they cannot represent
  /// in-flight messages or pending timers, so both snapshot() and
  /// restore() throw std::logic_error when the event queue is non-empty
  /// (run to quiescence first).  The error is thrown in all build types;
  /// a silent release-mode skip here corrupts every later trial.
  ///
  /// Each snapshot carries a process-unique serial.  Restoring the
  /// snapshot this simulator was last restored from copies back only the
  /// nodes changed since; any other snapshot (the first restore after
  /// snapshot(), alternating snapshots, another simulator's) is copied
  /// back whole, with the identical result.  A snapshot of another
  /// topology throws std::invalid_argument (all build types) and leaves
  /// the simulator as it was.
  struct Snapshot;
  [[nodiscard]] std::shared_ptr<const Snapshot> snapshot() const;
  void restore(const Snapshot& snap);
  void restore(const std::shared_ptr<const Snapshot>& snap);

 private:
  struct OriginationRecord {
    Prefix root;
    NodeId origin;
    Attr attr;
    bool deaggregated = false;
    std::vector<Prefix> fragments;
    /// Attribute the origin currently announces the root with.  Rule RA can
    /// be satisfied by downgrading the announcement (§3.9: u4 "announces p
    /// with a provider route") when a more-specific is elected with a less
    /// preferred attribute; de-aggregation is reserved for delegated
    /// prefixes whose route is lost outright (§3.8).
    Attr effective_attr;
    /// More-specific prefixes assigned out of this block to other ASs
    /// (inferred from other originate() calls).  Rule RA treats the loss of
    /// a delegated prefix's route as a violation (§3.8: u4 assigned q to
    /// u6, so losing the customer q-route forces de-aggregation).
    std::vector<Prefix> delegated;
  };

  [[nodiscard]] static std::uint64_t link_key(NodeId a, NodeId b) {
    const auto lo = static_cast<std::uint64_t>(a < b ? a : b);
    const auto hi = static_cast<std::uint64_t>(a < b ? b : a);
    return (hi << 32) | lo;
  }
  [[nodiscard]] bool link_alive(NodeId a, NodeId b) const {
    return !failed_.contains(link_key(a, b));
  }
  [[nodiscard]] algebra::LabelId label(NodeId learner, NodeId speaker) const;
  [[nodiscard]] std::uint32_t project(Attr a) const;

  // --- Node state access ----------------------------------------------------
  // The dirty-node rule: outside const members, the constructor and
  // restore(), node state is written only through touch(), which records
  // the node for the next restore().  Reads on mutating paths go through
  // peek(), which cannot write.  A write that bypasses touch() survives a
  // dirty-only restore and leaks into the next trial.
  [[nodiscard]] NodeState& touch(NodeId u) {
    if (dirty_flag_[u] == 0) {
      dirty_flag_[u] = 1;
      dirty_.push_back(u);
    }
    return nodes_[u];
  }
  [[nodiscard]] const NodeState& peek(NodeId u) const { return nodes_[u]; }

  // --- Neighbour IO addressing ---------------------------------------------
  // NodeState::io is a dense vector with one slot per topology neighbour
  // (adjacency order); the sorted (neighbour id -> slot) index lives here,
  // shared by every trial and never copied into snapshots.
  [[nodiscard]] std::uint32_t io_slot(NodeId u, NodeId v) const;
  [[nodiscard]] NeighborIo& io(NodeId u, NodeId v) {
    return touch(u).io[io_slot(u, v)];
  }
  [[nodiscard]] const NeighborIo& io(NodeId u, NodeId v) const {
    return nodes_[u].io[io_slot(u, v)];
  }
  /// Like io(), but nullptr when v is not a neighbour of u (public
  /// introspection entry points may be probed with arbitrary pairs).
  [[nodiscard]] const NeighborIo* io_find(NodeId u, NodeId v) const;

  void deliver(NodeId to, NodeId from, prefix::PrefixId p,
               std::optional<Attr> wire, std::uint64_t seq);
  /// Queues one wire copy of the message (link-delay jitter plus any
  /// chaos-injected extra delay).
  void schedule_delivery(NodeId from, NodeId to, prefix::PrefixId p,
                         std::optional<Attr> wire, std::uint64_t seq);
  /// Chaos loss path: drop the update before it reaches the wire and
  /// schedule a retransmission (the prefix is re-flushed later).
  void drop_and_retry(NodeId u, NodeId v, prefix::PrefixId p);
  /// Re-elects p at u, runs DRAGON hooks, and schedules updates for every
  /// prefix whose externally visible state may have changed.
  void reelect_and_react(NodeId u, prefix::PrefixId p);
  /// Reconciles the entry's FIB accounting (install/remove counters, the
  /// fib_entries gauge, trace events) with its current elected/filtered
  /// state.  Idempotent.
  void sync_entry_obs(NodeId u, prefix::PrefixId p, RouteEntry& entry);
  [[nodiscard]] obs::Timeline::Sample timeline_sample(Time t) const;
  void mark_pending(NodeId u, prefix::PrefixId p);
  void try_flush(NodeId u, NodeId v);
  void flush_now(NodeId u, NodeId v);
  void send(NodeId from, NodeId to, prefix::PrefixId p,
            std::optional<Attr> wire);

  // Route-flap damping (Config::damping; engine/simulator.cpp).
  /// Applies damping to an incoming already-imported candidate.  Returns
  /// true when the update was absorbed (the candidate is suppressed and
  /// the latest state held for release) and must not touch rib_in.
  bool damp_absorb(NodeId to, NodeId from, prefix::PrefixId p, Attr imported);
  void damp_release(NodeId to, NodeId from, prefix::PrefixId p,
                    std::uint32_t gen);
  void schedule_damp_release(NodeId to, NodeId from, prefix::PrefixId p,
                             std::uint32_t gen, double penalty);
  /// Drops all damping state u holds for neighbour v (session reset /
  /// link failure), with gauge-consistent accounting.
  void damp_clear(NodeId u, NodeId v);
  /// Re-evaluates every export of n (leak start/stop flips which routes
  /// cross the export policy).
  void leak_reflush(NodeId n);

  // Session lifecycle (engine/session.cpp).
  /// Can protocol messages flow on (a, b)?  Link alive, both endpoints up,
  /// and (sessions enabled) both directions established.  Reduces to
  /// link_alive when the session layer is disabled.
  [[nodiscard]] bool channel_up(NodeId a, NodeId b) const;
  /// u's raw session state towards v (lazy io entries read as the default
  /// kEstablished), without the liveness semantics of session_state().
  [[nodiscard]] SessionState peek_sess(NodeId u, NodeId v) const;
  /// Timer-cancellation epoch of the directed channel u->v: every session
  /// transition bumps it, and every session timer captures it at schedule
  /// time and no-ops on mismatch.  Stored outside NodeState so wiping a
  /// crashed node cannot recycle epoch values under a still-queued timer.
  [[nodiscard]] std::uint64_t sess_epoch(NodeId u, NodeId v) const;
  std::uint64_t bump_sess_epoch(NodeId u, NodeId v);
  /// Brings the (u, v) session up in both directions with route-refresh
  /// semantics: each side retains what it learned from the other as stale
  /// (GR; flushed outright without GR), queues a full-table refresh, and
  /// follows the batch with an End-of-RIB marker.
  void establish_session(NodeId u, NodeId v);
  /// Queues x's full table towards y followed by End-of-RIB (deferred
  /// while x is in its post-restart advertisement deferral).
  void session_refresh(NodeId x, NodeId y);
  /// Bilateral loss-induced teardown: both sides flush what they learned
  /// from the other; re-establishment is scheduled after the idle hold.
  void teardown_session(NodeId u, NodeId v);
  /// drop_and_retry's hook: an observed update loss opens a probe episode
  /// that draws the next hold window's keepalive fates in one step.
  void session_on_loss(NodeId u, NodeId v);
  /// v's hold timer for (crashed) peer n expired: retain stale (GR) or
  /// flush (no GR).
  void session_hold_expired(NodeId v, NodeId n);
  /// Marks everything v learned from n as stale (opens a retention cycle).
  void retain_stale(NodeId v, NodeId n);
  /// Closes v's stale-retention cycle for n: remaining stale candidates
  /// are removed and re-elected.  `expired` distinguishes the window-cap
  /// sweep from the End-of-RIB sweep in the metrics.
  void sweep_stale(NodeId v, NodeId n, bool expired);
  /// Clears the stale set without re-election (the rib_in entries are
  /// being flushed through another path).
  void drop_stale(NodeId v, NodeId n);
  /// Erases every rib_in candidate x learned from y and re-elects.
  void flush_rib_in_from(NodeId x, NodeId y);
  void send_eor(NodeId u, NodeId v);
  void recv_eor(NodeId v, NodeId u);
  /// Ends n's post-restart deferral: full table + EoR to every peer.
  void finish_restart(NodeId n);
  /// Re-judges n's own originations against the re-synced RIB: a
  /// delegated prefix that vanished from the network while n was down
  /// produces no event at the rebuilt node, so event-driven rule RA
  /// would never re-fire.
  void restart_ra_recheck(NodeId n);
  /// The (a, b) channel died; neither side may keep waiting on the
  /// other's EoR (a vanished peer must not wedge the deferral).
  void abort_restart_wait(NodeId a, NodeId b);
  /// Wipes n's volatile state (RIB, FIB, io) with gauge-consistent
  /// accounting.
  void clear_node_state(NodeId n);

  // DRAGON hooks (engine/dragon_hooks.cpp).
  void dragon_react(NodeId u, prefix::PrefixId p);
  void dragon_update_cr(NodeId u, prefix::PrefixId q);
  void dragon_check_ra(OriginationRecord& rec);
  void dragon_check_reaggregation(NodeId u, prefix::PrefixId root, Attr attr);
  /// DRAGON's §3.6 parent: the most specific prefix strictly covering q
  /// for which the node currently elects a route — the interner's
  /// memoized covering chain filtered by the node's route membership.
  /// Returns prefix::kNoPrefixId when there is none.
  [[nodiscard]] prefix::PrefixId effective_parent(const NodeState& node,
                                                  prefix::PrefixId q) const;

  const topology::Topology& topo_;
  const algebra::Algebra& alg_;
  Config config_;
  EventQueue queue_;
  util::Rng rng_;
  /// Dedicated stream for message-fault draws (forked from rng_), so
  /// enabling faults does not perturb MRAI/delay jitter sequences.
  util::Rng msg_rng_;
  /// Global monotone message sequence; see NeighborIo::rx_seq.
  std::uint64_t msg_seq_ = 0;
  /// Prefix -> dense id intern table.  Append-only with stable ids, so
  /// snapshots skip it: per-node membership (NodeState::routes) is what
  /// restores, and every interner query the engine makes is filtered by
  /// membership (DESIGN.md §10).
  prefix::PrefixInterner interner_;
  std::vector<NodeState> nodes_;
  /// Nodes touch()ed since the last restore, in first-touch order, and
  /// their membership flags.
  std::vector<NodeId> dirty_;
  std::vector<std::uint8_t> dirty_flag_;
  /// Serial of the snapshot nodes_ was last restored from (0: none).
  /// Every node outside dirty_ equals that snapshot's copy.
  std::uint64_t restored_serial_ = 0;
  /// Per-node (neighbour id -> io slot) indices, sorted by neighbour id.
  std::vector<std::vector<std::pair<NodeId, std::uint32_t>>> nbr_index_;
  /// Import labels, indexed [node][io slot] (flat mirror of the seed's
  /// per-node hash maps).
  std::vector<std::vector<algebra::LabelId>> labels_;
  std::unordered_set<std::uint64_t> failed_;
  /// Crashed nodes (ordered: down_nodes() feeds the oracle and must be
  /// deterministic).  Always empty while the session layer is disabled.
  std::set<NodeId> down_;
  /// Crash/restart generation per node; the graceful-restart forwarding
  /// freeze-expiry timer captures it so a restart cancels the wipe.
  std::vector<std::uint64_t> node_gen_;
  /// Directed-channel session epochs (see sess_epoch()).
  std::vector<std::unordered_map<NodeId, std::uint64_t>> sess_epoch_;
  /// Restarting node -> peers whose End-of-RIB is still awaited.
  std::map<NodeId, std::set<NodeId>> eor_wait_;
  std::vector<OriginationRecord> originations_;
  /// Roots watched for §3.7/§3.8 self-organised origination.
  std::vector<std::pair<Prefix, Attr>> agg_watch_;
  /// Nodes currently leaking (ordered: leaking_nodes() is deterministic).
  std::set<NodeId> leakers_;
  /// Active rogue (hijack) originations.
  std::set<std::pair<Prefix, NodeId>> rogues_;

  // --- Observability state --------------------------------------------------
  obs::MetricsRegistry metrics_;
  obs::EventTracer* tracer_ = nullptr;    // non-owning
  obs::Timeline* timeline_ = nullptr;     // non-owning
  /// Node class per node (index into kNodeClassNames: stub/transit/tier1)
  /// for the per-node-class update counters.
  std::vector<std::uint8_t> node_class_;
  // Hot-path handles into metrics_ (resolved once in the constructor).
  obs::Counter* c_announce_;
  obs::Counter* c_withdraw_;
  obs::Counter* c_class_updates_[3];
  obs::Counter* c_mrai_flush_;
  obs::Counter* c_msg_lost_;
  obs::Counter* c_msg_dup_;
  obs::Counter* c_msg_stale_;
  obs::Counter* c_fib_install_;
  obs::Counter* c_fib_remove_;
  obs::Counter* c_filter_;
  obs::Counter* c_unfilter_;
  obs::Counter* c_deagg_;
  obs::Counter* c_reagg_;
  obs::Counter* c_downgrade_;
  obs::Counter* c_agg_orig_;
  obs::Counter* c_ra_violation_;
  obs::Counter* c_sess_est_;
  obs::Counter* c_sess_torn_;
  obs::Counter* c_hold_expire_;
  obs::Counter* c_node_crash_;
  obs::Counter* c_node_restart_;
  obs::Counter* c_stale_retained_;
  obs::Counter* c_stale_swept_;
  obs::Counter* c_stale_expired_;
  obs::Counter* c_eor_sent_;
  obs::Counter* c_eor_recv_;
  obs::Counter* c_damp_suppress_;
  obs::Counter* c_damp_release_;
  obs::Gauge* g_fib_;
  obs::Gauge* g_damped_;
  obs::Gauge* g_filtered_;
  obs::Gauge* g_stale_;
  obs::Histogram* h_update_depth_;
  obs::Histogram* h_queue_depth_;
  obs::Histogram* h_resync_;
};

}  // namespace dragon::engine
