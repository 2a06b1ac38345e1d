// Peering-session lifecycle: hold timers, crash/restart, and RFC 4724
// graceful restart.  Simulator member functions, split out of
// simulator.cpp the same way the DRAGON hooks are (dragon_hooks.cpp).
//
// Timer discipline.  The event queue has no cancellation primitive, so
// every session timer captures the directed channel's epoch (and, for
// node-level timers, the node's crash/restart generation) at schedule
// time and no-ops when the value moved on.  Epochs live in the Simulator
// rather than in NodeState: wiping a crashed node's state must not let a
// fresh session reuse an epoch an old timer still holds.  Snapshots can
// only be taken at quiescence (empty queue), so no timer ever crosses a
// snapshot/restore boundary — the epochs make *intra-run* cancellation
// sound, and the restore precondition makes cross-trial replay sound.
#include <algorithm>

#include "engine/simulator.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace dragon::engine {

using algebra::kUnreachable;
using prefix::PrefixId;
using topology::NodeId;
using Prefix = prefix::Prefix;

const char* to_string(SessionState state) noexcept {
  switch (state) {
    case SessionState::kEstablished: return "established";
    case SessionState::kStaleHold: return "stale_hold";
    case SessionState::kDown: return "down";
  }
  return "unknown";
}

bool Simulator::channel_up(NodeId a, NodeId b) const {
  if (!link_alive(a, b)) return false;
  if (!config_.session.enabled) return true;
  if (!node_up(a) || !node_up(b)) return false;
  return peek_sess(a, b) == SessionState::kEstablished &&
         peek_sess(b, a) == SessionState::kEstablished;
}

SessionState Simulator::peek_sess(NodeId u, NodeId v) const {
  const NeighborIo* nio = io_find(u, v);
  return nio == nullptr ? SessionState::kEstablished : nio->sess;
}

SessionState Simulator::session_state(NodeId u, NodeId v) const {
  if (!config_.session.enabled) return SessionState::kEstablished;
  if (!topo_.linked(u, v) || !link_alive(u, v) || !node_up(u)) {
    return SessionState::kDown;
  }
  return peek_sess(u, v);
}

std::size_t Simulator::stale_route_count(NodeId u, NodeId v) const {
  const NeighborIo* nio = io_find(u, v);
  return nio == nullptr ? 0 : nio->stale.size();
}

std::vector<topology::NodeId> Simulator::down_nodes() const {
  return {down_.begin(), down_.end()};
}

std::uint64_t Simulator::sess_epoch(NodeId u, NodeId v) const {
  const auto it = sess_epoch_[u].find(v);
  return it == sess_epoch_[u].end() ? 0 : it->second;
}

std::uint64_t Simulator::bump_sess_epoch(NodeId u, NodeId v) {
  return ++sess_epoch_[u][v];
}

void Simulator::flush_rib_in_from(NodeId x, NodeId y) {
  // Damping state rides the session: a suppressed candidate must not be
  // reinstated across a teardown (the stale release timer dies on the
  // cleared state).
  if (config_.damping.enabled) damp_clear(x, y);
  std::vector<PrefixId> lost;
  touch(x).routes.for_each_sorted(
      interner_, [&](PrefixId p, RouteEntry& entry) {
        if (entry.rib_in.erase(y)) lost.push_back(p);
      });
  for (const PrefixId p : lost) reelect_and_react(x, p);
}

void Simulator::retain_stale(NodeId v, NodeId n) {
  NeighborIo& nio = io(v, n);
  std::size_t added = 0;
  peek(v).routes.for_each_sorted(
      interner_, [&](PrefixId p, const RouteEntry& entry) {
        if (entry.rib_in.contains(n) && nio.stale.insert(p)) ++added;
      });
  if (added == 0) return;
  if (nio.stale_since == 0.0) nio.stale_since = queue_.now();
  g_stale_->add(static_cast<double>(added));
  c_stale_retained_->inc(added);
  emit(obs::EventKind::kStaleRetain, v, n);
}

void Simulator::drop_stale(NodeId v, NodeId n) {
  const std::uint32_t slot = io_slot(v, n);
  if (slot == 0xFFFFFFFFu) return;
  NeighborIo& nio = touch(v).io[slot];
  if (!nio.stale.empty()) {
    g_stale_->add(-static_cast<double>(nio.stale.size()));
    nio.stale.clear();
  }
  nio.stale_since = 0.0;
  ++nio.stale_gen;
}

void Simulator::sweep_stale(NodeId v, NodeId n, bool expired) {
  NeighborIo& nio = io(v, n);
  if (nio.stale.empty() && nio.stale_since == 0.0) return;  // no open cycle
  // Global prefix order — the seed's std::set<Prefix> iteration order, on
  // which the re-election event sequence depends.
  const std::vector<PrefixId> doomed = nio.stale.sorted_ids(interner_);
  if (!doomed.empty()) {
    g_stale_->add(-static_cast<double>(doomed.size()));
    nio.stale.clear();
    (expired ? c_stale_expired_ : c_stale_swept_)->inc(doomed.size());
    emit(obs::EventKind::kStaleSweep, v, n);
  }
  if (nio.stale_since != 0.0) {
    h_resync_->observe(
        static_cast<std::uint64_t>((queue_.now() - nio.stale_since) * 1e3));
    nio.stale_since = 0.0;
  }
  ++nio.stale_gen;  // the window-cap timer for this cycle dies on its guard
  for (const PrefixId p : doomed) {
    if (touch(v).route(p).rib_in.erase(n)) reelect_and_react(v, p);
  }
}

void Simulator::session_refresh(NodeId x, NodeId y) {
  if (restart_deferred(x)) return;  // finish_restart() sends table + EoR
  const std::uint32_t slot = io_slot(x, y);
  NeighborIo& nio = touch(x).io[slot];
  peek(x).routes.for_each_sorted(
      interner_,
      [&nio](PrefixId p, const RouteEntry&) { nio.pending.insert(p); });
  if (nio.pending.empty()) {
    // Nothing to advertise: the End-of-RIB is the whole refresh.  Without
    // this, a peer holding stale routes from an empty-table node would
    // wait out the full restart window for nothing.
    send_eor(x, y);
  } else {
    nio.eor_pending = true;
    try_flush(x, slot);
  }
}

void Simulator::establish_session(NodeId u, NodeId v) {
  emit(obs::EventKind::kSessionUp, u, v);
  // Two passes: both directions must read kEstablished (channel_up) before
  // either side's refresh tries to flush, or the first side's batch would
  // sit in pending with no flush scheduled.
  for (const auto& [x, y] : {std::pair{u, v}, std::pair{v, u}}) {
    NeighborIo& nio = io(x, y);
    bump_sess_epoch(x, y);
    nio.sess = SessionState::kEstablished;
    nio.probing = false;
    nio.eor_pending = false;
    // Route-refresh semantics: the peer resends its whole table, so our
    // Adj-RIB-Out towards it restarts empty and everything we previously
    // learned from it is suspect until re-advertised.  With graceful
    // restart we retain those candidates as stale (still forwarding)
    // until the peer's End-of-RIB; without it they are flushed outright.
    // This also covers the "restart faster than detection" race: a peer
    // that never noticed the crash still refreshes, so routes the
    // restarted node no longer advertises cannot linger.
    nio.sent.clear();
    nio.pending.clear();
    if (config_.session.graceful_restart) {
      retain_stale(x, y);
    } else {
      drop_stale(x, y);
      flush_rib_in_from(x, y);
    }
  }
  for (const auto& [x, y] : {std::pair{u, v}, std::pair{v, u}}) {
    session_refresh(x, y);
  }
}

void Simulator::teardown_session(NodeId u, NodeId v) {
  // Bilateral: the transport's failure is visible at both ends at once.
  emit(obs::EventKind::kSessionDown, u, v);
  abort_restart_wait(u, v);
  for (const auto& [x, y] : {std::pair{u, v}, std::pair{v, u}}) {
    NeighborIo& nio = io(x, y);
    bump_sess_epoch(x, y);
    nio.sess = SessionState::kDown;
    nio.sent.clear();
    nio.pending.clear();
    nio.probing = false;
    nio.eor_pending = false;
    drop_stale(x, y);
    flush_rib_in_from(x, y);
  }
  // Idle hold, then retry (both endpoints still up in the loss-teardown
  // case; the epoch guard kills the retry if anything moved meanwhile).
  const std::uint64_t eu = sess_epoch(u, v);
  const std::uint64_t ev = sess_epoch(v, u);
  queue_.schedule(queue_.now() + config_.session.reestablish_delay,
                  [this, u, v, eu, ev] {
                    if (sess_epoch(u, v) != eu || sess_epoch(v, u) != ev) {
                      return;
                    }
                    if (!link_alive(u, v) || !node_up(u) || !node_up(v)) {
                      return;
                    }
                    establish_session(u, v);
                  });
}

void Simulator::session_on_loss(NodeId u, NodeId v) {
  const SessionConfig& sc = config_.session;
  if (!sc.enabled) return;
  NeighborIo& nio = io(u, v);
  if (nio.sess != SessionState::kEstablished || nio.probing) return;
  // Keepalives ride the same lossy channel as the update that just
  // dropped.  The peer's hold timer expires only if every keepalive in
  // the next hold window is lost too: draw that episode now, from the
  // same fault stream, instead of keeping a periodic timer alive (which
  // would never let the queue drain).  Per observed loss, the teardown
  // probability is loss^(hold/keepalive).
  const int rounds = std::max(
      1, static_cast<int>(sc.hold_time / std::max(sc.keepalive, 1e-9)));
  bool all_lost = true;
  for (int i = 0; i < rounds && all_lost; ++i) {
    all_lost = msg_rng_.chance(config_.faults.loss);
  }
  if (!all_lost) return;
  nio.probing = true;
  const std::uint64_t eu = sess_epoch(u, v);
  const std::uint64_t ev = sess_epoch(v, u);
  queue_.schedule(queue_.now() + sc.hold_time, [this, u, v, eu, ev] {
    io(u, v).probing = false;
    if (sess_epoch(u, v) != eu || sess_epoch(v, u) != ev) return;
    if (!link_alive(u, v) || !node_up(u) || !node_up(v)) return;
    emit(obs::EventKind::kHoldExpire, v, u);
    teardown_session(u, v);
  });
}

void Simulator::session_hold_expired(NodeId v, NodeId n) {
  // v heard nothing from (crashed) n for a full hold interval.  The
  // scheduling epoch guard guarantees n is still down — any restart or
  // link event on the channel would have bumped it — but keep the check
  // as a defensive invariant.
  if (node_up(n)) return;
  emit(obs::EventKind::kHoldExpire, v, n);
  abort_restart_wait(v, n);
  NeighborIo& nio = io(v, n);
  nio.sent.clear();
  nio.pending.clear();
  nio.probing = false;
  nio.eor_pending = false;
  bump_sess_epoch(v, n);
  const SessionConfig& sc = config_.session;
  if (sc.graceful_restart) {
    // RFC 4724: keep forwarding over the learned routes, mark them stale,
    // and give the peer a restart window to come back and refresh them.
    nio.sess = SessionState::kStaleHold;
    retain_stale(v, n);
    const std::uint64_t gen = nio.stale_gen;
    queue_.schedule(queue_.now() + sc.restart_window, [this, v, n, gen] {
      NeighborIo& nio2 = io(v, n);
      if (nio2.stale_gen != gen) return;  // cycle already resolved
      sweep_stale(v, n, /*expired=*/true);
      if (!node_up(n) && nio2.sess == SessionState::kStaleHold) {
        bump_sess_epoch(v, n);
        nio2.sess = SessionState::kDown;
      }
    });
  } else {
    nio.sess = SessionState::kDown;
    emit(obs::EventKind::kSessionDown, v, n);
    flush_rib_in_from(v, n);
  }
}

void Simulator::send_eor(NodeId u, NodeId v) {
  emit(obs::EventKind::kEorSend, u, v);
  const std::uint64_t eu = sess_epoch(u, v);
  const std::uint64_t ev = sess_epoch(v, u);
  // Reliable control marker, delivered at the wire's deterministic upper
  // bound so it lands after every update of the refresh batch it closes.
  double delay = config_.link_delay * (1.0 + config_.link_delay_jitter);
  if (config_.faults.delay_prob > 0.0) delay += config_.faults.extra_delay;
  queue_.schedule(queue_.now() + delay, [this, u, v, eu, ev] {
    if (sess_epoch(u, v) != eu || sess_epoch(v, u) != ev) return;
    if (!channel_up(u, v)) return;  // torn down in flight; cleanup ran there
    recv_eor(v, u);
  });
}

void Simulator::recv_eor(NodeId v, NodeId u) {
  emit(obs::EventKind::kEorRecv, v, u);
  // A restarting v collects EoRs; the last one ends its deferral.
  const auto it = eor_wait_.find(v);
  if (it != eor_wait_.end() && it->second.erase(u) > 0 && it->second.empty()) {
    finish_restart(v);
  }
  // Whatever u's refresh did not re-advertise, u no longer has: sweep.
  sweep_stale(v, u, /*expired=*/false);
}

void Simulator::finish_restart(NodeId n) {
  eor_wait_.erase(n);
  for (const auto& nb : topo_.neighbors(n)) {
    if (!channel_up(n, nb.id)) continue;
    session_refresh(n, nb.id);
  }
  restart_ra_recheck(n);
}

void Simulator::restart_ra_recheck(NodeId n) {
  // Rule RA is event-driven, and a delegated prefix that vanished from
  // the network entirely while n was down never produces an event at the
  // rebuilt node: clear_node_state() erased even the unreachable
  // placeholder entry, so dragon_check_ra's "origins that never heard of
  // it are left alone" carve-out would keep n announcing an aggregate it
  // cannot serve.  Delegations are configuration, not learned state:
  // recreate the placeholders and re-judge every own origination against
  // the RIB the re-sync just rebuilt.
  if (!config_.enable_dragon) return;
  for (OriginationRecord& rec : originations_) {
    if (rec.origin != n) continue;
    for (const Prefix& q : rec.delegated) touch(n).route(interner_.intern(q));
    dragon_check_ra(rec);
  }
}

void Simulator::abort_restart_wait(NodeId a, NodeId b) {
  for (const auto& [x, y] : {std::pair{a, b}, std::pair{b, a}}) {
    const auto it = eor_wait_.find(x);
    if (it != eor_wait_.end() && it->second.erase(y) > 0 &&
        it->second.empty()) {
      finish_restart(x);
    }
  }
}

void Simulator::clear_node_state(NodeId n) {
  NodeState& node = touch(n);
  node.routes.for_each_sorted(interner_, [&](PrefixId p, RouteEntry& entry) {
    if (entry.fib_installed) {
      entry.fib_installed = false;
      g_fib_->add(-1.0);
      emit(obs::EventKind::kFibRemove, n, interner_.prefix_of(p));
    }
    if (entry.elected != kUnreachable && entry.filtered) {
      g_filtered_->add(-1.0);
    }
  });
  for (const NeighborIo& nio : node.io) {
    if (!nio.stale.empty()) {
      g_stale_->add(-static_cast<double>(nio.stale.size()));
    }
    if (!nio.damp.empty()) {
      nio.damp.for_each([this](PrefixId, const DampState& d) {
        if (d.suppressed) g_damped_->add(-1.0);
      });
    }
  }
  // In-place wipe: the routes table empties, the io vector keeps its
  // one-slot-per-neighbour size with every slot reset to defaults.
  node.clear();
}

void Simulator::crash_node(NodeId n) {
  const SessionConfig& sc = config_.session;
  if (!sc.enabled) {
    DRAGON_LOG_WARN("crash_node(%u): session layer disabled; ignored", n);
    return;
  }
  if (n >= topo_.node_count()) {
    DRAGON_LOG_WARN("crash_node(%u): no such node; ignored", n);
    return;
  }
  if (!node_up(n)) {
    DRAGON_LOG_WARN("crash_node(%u): already down; ignored", n);
    return;
  }
  down_.insert(n);
  const std::uint64_t gen = ++node_gen_[n];
  emit(obs::EventKind::kNodeCrash, n);
  // A crash mid-deferral abandons the deferral outright.
  eor_wait_.erase(n);
  // Volatile origination state dies with the control plane: rule RA's
  // de-aggregation bookkeeping is derived from the (lost) RIB, so a
  // restarted n comes back announcing the plain assigned roots until RA
  // re-fires.  The records themselves are configuration and survive.
  for (OriginationRecord& rec : originations_) {
    if (rec.origin != n) continue;
    rec.deaggregated = false;
    rec.fragments.clear();
    rec.effective_attr = rec.attr;
  }
  // n's own session sides go down and their timers die on the epoch bump.
  {
    const auto nbrs = topo_.neighbors(n);
    for (std::size_t s = 0; s < nbrs.size(); ++s) {
      bump_sess_epoch(n, nbrs[s].id);
      NeighborIo& nio = touch(n).io[s];
      nio.sess = SessionState::kDown;
      nio.probing = false;
      nio.eor_pending = false;
      nio.pending.clear();
    }
  }
  // Peers detect the silence when their hold timer expires.
  for (const auto& nb : topo_.neighbors(n)) {
    const NodeId v = nb.id;
    if (!link_alive(n, v) || !node_up(v)) continue;
    if (peek_sess(v, n) != SessionState::kEstablished) continue;
    const std::uint64_t epoch = sess_epoch(v, n);
    queue_.schedule(queue_.now() + sc.hold_time, [this, v, n, epoch] {
      if (sess_epoch(v, n) != epoch) return;  // cancelled: channel moved on
      session_hold_expired(v, n);
    });
  }
  if (!sc.graceful_restart) {
    // Control and data plane die together.
    clear_node_state(n);
  } else {
    // The forwarding plane stays frozen while peers would still forward
    // through n (detection + retention window), then gives up.  Aligned
    // with the peers' own sweep deadline so graceful restart never leaves
    // a window where peers forward into a wiped node.
    queue_.schedule(queue_.now() + sc.hold_time + sc.restart_window,
                    [this, n, gen] {
                      if (node_gen_[n] != gen || node_up(n)) return;
                      clear_node_state(n);
                    });
  }
}

void Simulator::restart_node(NodeId n) {
  const SessionConfig& sc = config_.session;
  if (!sc.enabled) {
    DRAGON_LOG_WARN("restart_node(%u): session layer disabled; ignored", n);
    return;
  }
  if (n >= topo_.node_count() || node_up(n)) {
    DRAGON_LOG_WARN("restart_node(%u): not down; ignored", n);
    return;
  }
  down_.erase(n);
  ++node_gen_[n];  // cancels the pending forwarding freeze-expiry wipe
  emit(obs::EventKind::kNodeRestart, n);
  clear_node_state(n);  // idempotent against an already-expired freeze
  // Deferral set first: establish_session consults restart_deferred(n) to
  // keep n's own refresh (and EoR) out of the initial exchange.
  std::set<NodeId>& wait = eor_wait_[n];
  for (const auto& nb : topo_.neighbors(n)) {
    if (link_alive(n, nb.id) && node_up(nb.id)) wait.insert(nb.id);
  }
  if (wait.empty()) {
    eor_wait_.erase(n);  // isolated node: nothing to defer on
  } else {
    const std::set<NodeId> peers = wait;  // establish mutates eor_wait_
    for (const NodeId v : peers) establish_session(n, v);
  }
  // Reinstall the configured originations; originate()'s refresh path
  // updates the surviving records in place.  Advertisements queue behind
  // the deferral and leave in finish_restart's flood.
  std::vector<std::pair<Prefix, algebra::Attr>> own;
  for (const OriginationRecord& rec : originations_) {
    if (rec.origin == n) own.emplace_back(rec.root, rec.attr);
  }
  for (const auto& [p, attr] : own) originate(p, n, attr);
  // An isolated restart has no peers to defer on, so finish_restart()
  // never runs; do the post-resync rule-RA pass directly.
  if (!restart_deferred(n)) restart_ra_recheck(n);
}

}  // namespace dragon::engine
