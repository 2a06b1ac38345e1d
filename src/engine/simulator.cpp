#include "engine/simulator.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <stdexcept>

#include "obs/profile.hpp"
#include "obs/span.hpp"
#include "util/log.hpp"

namespace dragon::engine {

using algebra::Attr;
using algebra::kUnreachable;
using prefix::kNoPrefixId;
using prefix::PrefixId;
using topology::NodeId;
using Prefix = prefix::Prefix;

namespace {
constexpr const char* kNodeClassNames[3] = {"stub", "transit", "tier1"};
constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
std::atomic<std::uint64_t> next_snapshot_serial{1};
}  // namespace

// The intern table is deliberately absent: it is append-only with stable
// ids, and every engine query against it is filtered by per-node route
// membership, so a restored trial behaves bit-identically even when the
// table has grown since the capture (DESIGN.md §10).  Node states are flat
// vectors all the way down (engine/rib.hpp), so copying one is a few
// vector assignments.  restore() of the snapshot it last restored copies
// back only the nodes touch()ed since; any other snapshot is copied back
// whole.
struct Simulator::Snapshot {
  /// Process-unique, never 0.  Not the address: the allocator reuses a
  /// freed snapshot's address for the next one.
  std::uint64_t serial = 0;
  /// The topology the nodes were captured on (compared, never read).
  const topology::Topology* topo = nullptr;
  std::vector<NodeState> nodes;
  std::unordered_set<std::uint64_t> failed;
  std::set<topology::NodeId> down;
  std::vector<std::uint64_t> node_gen;
  std::vector<std::unordered_map<topology::NodeId, std::uint64_t>> sess_epoch;
  std::map<topology::NodeId, std::set<topology::NodeId>> eor_wait;
  std::vector<OriginationRecord> originations;
  std::vector<std::pair<Prefix, Attr>> agg_watch;
  std::set<topology::NodeId> leakers;
  std::set<std::pair<Prefix, topology::NodeId>> rogues;
  obs::MetricsRegistry::Snapshot metrics;
  util::Rng rng;
  util::Rng msg_rng;
  std::uint64_t msg_seq = 0;
  Time time = 0.0;
};

Simulator::Simulator(const topology::Topology& topo,
                     const algebra::Algebra& alg, Config config)
    : topo_(topo),
      alg_(alg),
      config_(std::move(config)),
      rng_(config_.seed),
      msg_rng_(rng_.fork()),
      nodes_(topo.node_count()),
      dirty_flag_(topo.node_count(), 0),
      nbr_index_(topo.node_count()),
      labels_(topo.node_count()),
      node_gen_(topo.node_count(), 0),
      sess_epoch_(topo.node_count()),
      node_class_(topo.node_count()) {
  std::uint32_t link_counter = 1;
  for (NodeId u = 0; u < topo.node_count(); ++u) {
    const auto nbrs = topo.neighbors(u);
    nodes_[u].io.resize(nbrs.size());
    labels_[u].reserve(nbrs.size());
    nbr_index_[u].reserve(nbrs.size());
    std::uint32_t slot = 0;
    for (const auto& nb : nbrs) {
      algebra::LabelId label = topology::gr_label(nb.rel);
      if (config_.unique_link_labels) {
        label |= link_counter++ << 2;
      }
      if (config_.label_override) {
        label = config_.label_override(u, nb.id, label);
      }
      labels_[u].push_back(label);
      nbr_index_[u].emplace_back(nb.id, slot++);
    }
    std::sort(nbr_index_[u].begin(), nbr_index_[u].end());
    node_class_[u] = topo.is_stub(u) ? 0 : (topo.is_root(u) ? 2 : 1);
  }

  c_announce_ = metrics_.counter("dragon.engine.announcements");
  c_withdraw_ = metrics_.counter("dragon.engine.withdrawals");
  for (int c = 0; c < 3; ++c) {
    c_class_updates_[c] = metrics_.counter(
        std::string("dragon.engine.updates.class.") + kNodeClassNames[c]);
  }
  c_mrai_flush_ = metrics_.counter("dragon.engine.mrai_flushes");
  c_msg_lost_ = metrics_.counter("dragon.engine.msgs_lost");
  c_msg_dup_ = metrics_.counter("dragon.engine.msgs_dup");
  c_msg_stale_ = metrics_.counter("dragon.engine.msgs_stale");
  c_fib_install_ = metrics_.counter("dragon.engine.fib_installs");
  c_fib_remove_ = metrics_.counter("dragon.engine.fib_removals");
  c_filter_ = metrics_.counter("dragon.dragon.filter_transitions");
  c_unfilter_ = metrics_.counter("dragon.dragon.unfilter_transitions");
  c_deagg_ = metrics_.counter("dragon.dragon.deaggregations");
  c_reagg_ = metrics_.counter("dragon.dragon.reaggregations");
  c_downgrade_ = metrics_.counter("dragon.dragon.downgrades");
  c_agg_orig_ = metrics_.counter("dragon.dragon.agg_originations");
  c_ra_violation_ = metrics_.counter("dragon.dragon.ra_violations");
  c_sess_est_ = metrics_.counter("dragon.session.established");
  c_sess_torn_ = metrics_.counter("dragon.session.torn_down");
  c_hold_expire_ = metrics_.counter("dragon.session.hold_expiries");
  c_node_crash_ = metrics_.counter("dragon.session.node_crashes");
  c_node_restart_ = metrics_.counter("dragon.session.node_restarts");
  c_stale_retained_ = metrics_.counter("dragon.session.stale_retained");
  c_stale_swept_ = metrics_.counter("dragon.session.stale_swept");
  c_stale_expired_ = metrics_.counter("dragon.session.stale_expired");
  c_eor_sent_ = metrics_.counter("dragon.session.eor_sent");
  c_eor_recv_ = metrics_.counter("dragon.session.eor_received");
  c_damp_suppress_ = metrics_.counter("dragon.engine.damp_suppressions");
  c_damp_release_ = metrics_.counter("dragon.engine.damp_releases");
  g_fib_ = metrics_.gauge("dragon.engine.fib_entries");
  g_damped_ = metrics_.gauge("dragon.engine.damped_routes");
  g_filtered_ = metrics_.gauge("dragon.dragon.filtered_entries");
  g_stale_ = metrics_.gauge("dragon.session.stale_routes");
  h_update_depth_ = metrics_.histogram("dragon.engine.update_prefix_depth");
  h_queue_depth_ = metrics_.histogram("dragon.engine.queue_depth");
  h_resync_ = metrics_.histogram("dragon.session.resync_ms");
}

Stats Simulator::stats() const {
  // Materialised from one consistent registry snapshot rather than six
  // live handle reads: under the sharded-registry contract (DESIGN.md §8)
  // the facade must also be correct for a registry whose values arrived
  // by merging worker shards, where the hot-path handles resolved at
  // construction are not the only writers of these names.
  const auto snap = metrics_.snapshot_state();
  const auto get = [&snap](std::string_view name) -> std::uint64_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  Stats s;
  s.announcements = get("dragon.engine.announcements");
  s.withdrawals = get("dragon.engine.withdrawals");
  s.deaggregations = get("dragon.dragon.deaggregations");
  s.reaggregations = get("dragon.dragon.reaggregations");
  s.downgrades = get("dragon.dragon.downgrades");
  s.agg_originations = get("dragon.dragon.agg_originations");
  return s;
}

std::uint32_t Simulator::io_slot(NodeId u, NodeId v) const {
  const auto& idx = nbr_index_[u];
  const auto it = std::lower_bound(
      idx.begin(), idx.end(), v,
      [](const std::pair<NodeId, std::uint32_t>& e, NodeId key) {
        return e.first < key;
      });
  return (it != idx.end() && it->first == v) ? it->second : kNoSlot;
}

const NeighborIo* Simulator::io_find(NodeId u, NodeId v) const {
  const std::uint32_t s = io_slot(u, v);
  return s == kNoSlot ? nullptr : &nodes_[u].io[s];
}

algebra::LabelId Simulator::label(NodeId learner, NodeId speaker) const {
  return labels_[learner][io_slot(learner, speaker)];
}

std::uint32_t Simulator::project(Attr a) const {
  if (a == kUnreachable) return kUnreachable;
  return config_.l_attr ? config_.l_attr(a) : a;
}

void Simulator::originate(const Prefix& p, NodeId origin, Attr attr) {
  const PrefixId pid = interner_.intern(p);
  // A chaos origin-flap can land on a node that is currently crashed: the
  // registry assignment changes, but there is no control plane to act on
  // it.  Mutate only the configuration records — no RIB writes, no
  // re-election, nothing on the wire — and let restart_node() replay the
  // records through this function when the node returns.
  const bool offline = config_.session.enabled && !node_up(origin);
  // Re-announcing an origination that is already on record (overlapping
  // chaos flaps) refreshes the assignment in place; a duplicate record
  // would double-count delegations in every later rule-RA check.
  for (OriginationRecord& rec : originations_) {
    if (rec.root == p && rec.origin == origin) {
      rec.attr = attr;
      rec.effective_attr = attr;
      if (offline) return;
      RouteEntry& entry = touch(origin).route(pid);
      entry.originated = true;
      entry.origin_attr = attr;
      entry.origin_paused = rec.deaggregated;
      reelect_and_react(origin, pid);
      return;
    }
  }
  if (!offline) {
    RouteEntry& entry = touch(origin).route(pid);
    entry.originated = true;
    entry.origin_attr = attr;
    entry.origin_paused = false;
  }
  OriginationRecord rec{p, origin, attr, false, {}, attr, {}};
  // Cross-link delegations: a registry origination inside another AS's
  // block is a delegation of that block (and vice versa).
  std::vector<std::size_t> gained_delegation;
  for (std::size_t i = 0; i < originations_.size(); ++i) {
    OriginationRecord& other = originations_[i];
    if (other.origin != origin && other.root.covers(p) && other.root != p) {
      other.delegated.push_back(p);
      gained_delegation.push_back(i);
    }
    if (other.origin != origin && p.covers(other.root) && other.root != p) {
      rec.delegated.push_back(other.root);
    }
  }
  originations_.push_back(std::move(rec));
  if (config_.enable_dragon && config_.enable_reaggregation) {
    agg_watch_.emplace_back(p, attr);
  }
  if (!offline) reelect_and_react(origin, pid);
  // Rule RA is otherwise event-driven at the ancestor origins, and this
  // origination may never produce an event there: a prefix re-delegated
  // to an origin the ancestor cannot reach (it keeps a stale unreachable
  // entry for p) announces into a black hole unless the ancestor
  // de-aggregates NOW.  Origins that never heard of p have no entry and
  // are left alone — the check re-fires when the announcement arrives.
  // A crashed ancestor has no control plane to react with either; its
  // restart_ra_recheck() pass re-judges the record when it returns.
  if (config_.enable_dragon) {
    for (const std::size_t i : gained_delegation) {
      OriginationRecord& ancestor = originations_[i];
      if (config_.session.enabled && !node_up(ancestor.origin)) continue;
      dragon_check_ra(ancestor);
    }
  }
}

void Simulator::withdraw_origin(const Prefix& p, NodeId origin) {
  const PrefixId pid = interner_.intern(p);
  // Mirror of originate()'s down-node handling: withdrawing at a crashed
  // node edits the configuration only.  The record must go now (or a
  // later restart would resurrect a returned prefix); the RIB of the
  // crashed node is dead or frozen and stays untouched.
  const bool offline = config_.session.enabled && !node_up(origin);
  if (!offline) {
    RouteEntry& entry = touch(origin).route(pid);
    entry.originated = false;
    entry.origin_attr = kUnreachable;
    entry.origin_paused = false;
  }
  // If rule RA had de-aggregated this block, the fragments belong to the
  // origination and must be withdrawn with it; leaving them originated
  // would announce pieces of a prefix that was returned to the registry.
  std::vector<Prefix> fragments;
  Attr watch_attr = kUnreachable;
  for (const OriginationRecord& rec : originations_) {
    if (rec.root == p && rec.origin == origin) {
      if (rec.deaggregated) fragments = rec.fragments;
      watch_attr = rec.attr;
    }
  }
  std::erase_if(originations_, [&](const OriginationRecord& rec) {
    return rec.root == p && rec.origin == origin;
  });
  // The prefix is returned to the registry: it no longer constrains the
  // covering blocks' rule-RA checks, and nobody should self-organise its
  // aggregate any more.
  std::vector<std::size_t> lost_delegation;
  for (std::size_t i = 0; i < originations_.size(); ++i) {
    if (std::erase(originations_[i].delegated, p) > 0) {
      lost_delegation.push_back(i);
    }
  }
  std::erase_if(agg_watch_, [&](const std::pair<Prefix, Attr>& w) {
    return w.first == p && w.second == watch_attr;
  });
  // With the last watch for p gone, §3.7 self-organised originations of p
  // lose their mandate: the block is no longer anyone's aggregate, so
  // continuing to announce it would squat on returned address space.
  const bool still_watched =
      std::any_of(agg_watch_.begin(), agg_watch_.end(),
                  [&](const std::pair<Prefix, Attr>& w) { return w.first == p; });
  if (!still_watched) {
    for (NodeId u = 0; u < nodes_.size(); ++u) {
      // A crashed node's plane is dead or frozen; restart wipes it anyway.
      if (config_.session.enabled && !node_up(u)) continue;
      const RouteEntry* re = peek(u).find(pid);
      if (re == nullptr || !re->originated || !re->origin_reagg) continue;
      RouteEntry& e = touch(u).route(pid);
      e.originated = false;
      e.origin_reagg = false;
      e.origin_attr = kUnreachable;
      DRAGON_TRACE_EVENT(tracer_, queue_.now(), obs::EventKind::kAggStop, u, p);
      reelect_and_react(u, pid);
    }
  }
  if (!offline) {
    for (const Prefix& f : fragments) {
      const PrefixId fid = interner_.intern(f);
      RouteEntry& fe = touch(origin).route(fid);
      if (!fe.originated) continue;
      fe.originated = false;
      fe.origin_attr = kUnreachable;
      fe.origin_paused = false;
      reelect_and_react(origin, fid);
    }
    reelect_and_react(origin, pid);
  }
  // Mirror of the recheck in originate(): an ancestor that de-aggregated
  // around p may never see another event for it (e.g. p's origin is
  // unreachable), yet with the delegation gone rule RA may be satisfied
  // again and the ancestor must re-aggregate.  Crashed ancestors are
  // re-judged by restart_ra_recheck() instead.
  if (config_.enable_dragon) {
    for (const std::size_t i : lost_delegation) {
      OriginationRecord& ancestor = originations_[i];
      if (config_.session.enabled && !node_up(ancestor.origin)) continue;
      dragon_check_ra(ancestor);
    }
  }
}

void Simulator::watch_aggregate(const Prefix& root, Attr attr) {
  if (!config_.enable_dragon || !config_.enable_reaggregation) return;
  agg_watch_.emplace_back(root, attr);
  const PrefixId root_id = interner_.intern(root);
  for (NodeId u = 0; u < topo_.node_count(); ++u) {
    dragon_check_reaggregation(u, root_id, attr);
  }
}

void Simulator::start_route_leak(NodeId n) {
  if (n >= topo_.node_count() || !config_.leak_mask) {
    DRAGON_LOG_WARN("start_route_leak(%u): %s; ignored", n,
                    config_.leak_mask ? "no such node"
                                      : "Config::leak_mask is unset");
    return;
  }
  if (!leakers_.insert(n).second) return;
  leak_reflush(n);
}

void Simulator::stop_route_leak(NodeId n) {
  if (leakers_.erase(n) == 0) return;
  leak_reflush(n);
}

std::vector<topology::NodeId> Simulator::leaking_nodes() const {
  return {leakers_.begin(), leakers_.end()};
}

void Simulator::leak_reflush(NodeId n) {
  // Every export decision of n may flip between leaked and withdrawn;
  // re-queue the whole table towards every live neighbour.
  std::vector<PrefixId> all;
  peek(n).routes.for_each_sorted(
      interner_, [&all](PrefixId p, const RouteEntry&) { all.push_back(p); });
  for (const PrefixId p : all) mark_pending(n, p);
}

void Simulator::originate_rogue(const Prefix& p, NodeId origin, Attr attr) {
  if (origin >= topo_.node_count()) {
    DRAGON_LOG_WARN("originate_rogue(%u): no such node; ignored", origin);
    return;
  }
  if (config_.session.enabled && !node_up(origin)) {
    DRAGON_LOG_WARN("originate_rogue(%u): node is down; ignored", origin);
    return;
  }
  rogues_.insert({p, origin});
  const PrefixId pid = interner_.intern(p);
  RouteEntry& entry = touch(origin).route(pid);
  entry.originated = true;
  entry.origin_attr = attr;
  entry.origin_paused = false;
  reelect_and_react(origin, pid);
}

void Simulator::withdraw_rogue(const Prefix& p, NodeId origin) {
  if (rogues_.erase({p, origin}) == 0) return;
  if (config_.session.enabled && !node_up(origin)) return;
  const PrefixId pid = interner_.intern(p);
  RouteEntry& entry = touch(origin).route(pid);
  entry.originated = false;
  entry.origin_attr = kUnreachable;
  entry.origin_paused = false;
  reelect_and_react(origin, pid);
}

std::vector<std::pair<prefix::Prefix, topology::NodeId>>
Simulator::rogue_origins() const {
  return {rogues_.begin(), rogues_.end()};
}

void Simulator::fail_link(NodeId a, NodeId b) {
  if (a == b || a >= topo_.node_count() || b >= topo_.node_count() ||
      !topo_.linked(a, b)) {
    // A bogus pair must never enter failed_: restore_link on it would
    // otherwise open a phantom session and advertise the full table to a
    // non-neighbour.
    DRAGON_LOG_WARN("fail_link(%u, %u): no such link; ignored", a, b);
    return;
  }
  if (!failed_.insert(link_key(a, b)).second) return;
  DRAGON_TRACE_EVENT(tracer_, queue_.now(), obs::EventKind::kLinkFail, a,
                     static_cast<std::int64_t>(b));
  if (config_.session.enabled) {
    // The transport under the session died: every pending session timer on
    // the channel dies on the epoch bump, stale retention ends (the link,
    // not the peer, is gone — RFC 4724 retention does not survive a link
    // flap), and neither side may keep waiting on the other's End-of-RIB.
    abort_restart_wait(a, b);
    for (NodeId u : {a, b}) {
      const NodeId v = (u == a) ? b : a;
      bump_sess_epoch(u, v);
      NeighborIo& nio = io(u, v);
      nio.sess = SessionState::kDown;
      nio.probing = false;
      nio.eor_pending = false;
      drop_stale(u, v);
    }
  }
  // Session reset: both sides drop what they learned from and advertised to
  // the other.
  for (NodeId u : {a, b}) {
    const NodeId v = (u == a) ? b : a;
    NodeState& node = touch(u);
    NeighborIo& nio = io(u, v);
    nio.sent.clear();
    nio.pending.clear();
    if (config_.damping.enabled) damp_clear(u, v);
    std::vector<PrefixId> lost;
    node.routes.for_each_sorted(interner_, [&](PrefixId p, RouteEntry& entry) {
      if (entry.rib_in.erase(v)) lost.push_back(p);
    });
    for (const PrefixId p : lost) reelect_and_react(u, p);
  }
}

void Simulator::restore_link(NodeId a, NodeId b) {
  if (a == b || a >= topo_.node_count() || b >= topo_.node_count() ||
      !topo_.linked(a, b)) {
    DRAGON_LOG_WARN("restore_link(%u, %u): no such link; ignored", a, b);
    return;
  }
  if (failed_.erase(link_key(a, b)) == 0) return;
  DRAGON_TRACE_EVENT(tracer_, queue_.now(), obs::EventKind::kLinkRestore, a,
                     static_cast<std::int64_t>(b));
  if (config_.session.enabled) {
    // The session layer owns re-establishment: an immediate bilateral
    // bring-up with route-refresh + End-of-RIB semantics.  A down endpoint
    // means no session yet — restart_node() establishes it when the node
    // comes back (and finds the link alive).
    if (node_up(a) && node_up(b)) establish_session(a, b);
    return;
  }
  // Session re-establishment: full table re-advertisement both ways.
  for (NodeId u : {a, b}) {
    const NodeId v = (u == a) ? b : a;
    NeighborIo& nio = io(u, v);
    peek(u).routes.for_each_sorted(
        interner_,
        [&nio](PrefixId p, const RouteEntry&) { nio.pending.insert(p); });
    try_flush(u, v);
  }
}

void Simulator::attach_timeline(obs::Timeline* timeline) {
  timeline_ = timeline;
  if (timeline_ != nullptr) timeline_->begin(queue_.now());
}

obs::Timeline::Sample Simulator::timeline_sample(Time t) const {
  obs::Timeline::Sample s;
  s.t = t;
  s.updates = c_announce_->value() + c_withdraw_->value();
  s.fib_entries = static_cast<std::uint64_t>(g_fib_->value());
  const double filtered = g_filtered_->value();
  const double elected = filtered + g_fib_->value();
  s.frac_filtered = elected > 0.0 ? filtered / elected : 0.0;
  s.queue_depth = queue_.size();
  return s;
}

std::size_t Simulator::run_until_quiescent(Time max_time) {
  return run_bounded(max_time, std::numeric_limits<std::size_t>::max()).events;
}

Simulator::RunResult Simulator::run_bounded(Time max_time,
                                            std::size_t max_events) {
  // Coarse phase span: one event-drain pass (a convergence run or a
  // watchdog slice); the events argument is filled in at the end.
  DRAGON_SPAN_NAMED(drain_span, "engine", "drain", "events");
  RunResult result;
  while (!queue_.empty() && queue_.next_time() <= max_time &&
         result.events < max_events) {
    if (timeline_ != nullptr) {
      // Emit every grid sample due before the next event fires, so the
      // series has a point per cadence tick even across quiet stretches.
      while (timeline_->due(queue_.next_time())) {
        timeline_->push(timeline_sample(timeline_->next_due()));
      }
    }
    queue_.run_next();
    ++result.events;
    if ((result.events & 63u) == 0) h_queue_depth_->observe(queue_.size());
  }
  if (timeline_ != nullptr) timeline_->push(timeline_sample(queue_.now()));
  result.quiescent = queue_.empty();
  drain_span.set_arg(0, result.events);
  return result;
}

void Simulator::inject(Time t, std::function<void()> fn) {
  queue_.schedule(t, std::move(fn));
}

Attr Simulator::elected(NodeId u, const Prefix& p) const {
  const PrefixId id = interner_.find(p);
  const RouteEntry* entry = id == kNoPrefixId ? nullptr : nodes_[u].find(id);
  return entry ? entry->elected : kUnreachable;
}

bool Simulator::filtered(NodeId u, const Prefix& p) const {
  const PrefixId id = interner_.find(p);
  const RouteEntry* entry = id == kNoPrefixId ? nullptr : nodes_[u].find(id);
  return entry != nullptr && entry->filtered;
}

bool Simulator::fib_active(NodeId u, const Prefix& p) const {
  const PrefixId id = interner_.find(p);
  return id != kNoPrefixId && nodes_[u].fib_active(id);
}

std::size_t Simulator::fib_size(NodeId u) const {
  std::size_t count = 0;
  nodes_[u].routes.for_each_sorted(
      interner_, [&count](PrefixId, const RouteEntry& entry) {
        if (entry.elected != kUnreachable && !entry.filtered) ++count;
      });
  return count;
}

bool Simulator::originates(NodeId u, const Prefix& p) const {
  const PrefixId id = interner_.find(p);
  const RouteEntry* entry = id == kNoPrefixId ? nullptr : nodes_[u].find(id);
  return entry != nullptr && entry->originated && !entry->origin_paused;
}

void Simulator::for_each_route(
    const std::function<void(NodeId, const Prefix&, const RouteEntry&)>& fn)
    const {
  for (NodeId u = 0; u < nodes_.size(); ++u) {
    nodes_[u].routes.for_each_sorted(
        interner_, [&](PrefixId id, const RouteEntry& entry) {
          fn(u, interner_.prefix_of(id), entry);
        });
  }
}

std::vector<Simulator::OriginInfo> Simulator::origin_records() const {
  std::vector<OriginInfo> out;
  out.reserve(originations_.size());
  for (const OriginationRecord& rec : originations_) {
    out.push_back({rec.root, rec.origin, rec.attr, rec.effective_attr,
                   rec.deaggregated, rec.fragments, rec.delegated});
  }
  return out;
}

std::vector<std::pair<topology::NodeId, topology::NodeId>>
Simulator::failed_links() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(failed_.size());
  for (const std::uint64_t key : failed_) {
    out.emplace_back(static_cast<NodeId>(key & 0xFFFFFFFFu),
                     static_cast<NodeId>(key >> 32));
  }
  std::sort(out.begin(), out.end());
  return out;
}

Simulator::TraceResult Simulator::trace(NodeId from,
                                        prefix::Address dst) const {
  TraceResult result{Outcome::kDelivered, {from}};
  std::unordered_set<NodeId> visited{from};
  NodeId u = from;
  for (;;) {
    // Longest prefix match over u's installed entries.
    const NodeState& node = nodes_[u];
    const RouteEntry* best_entry = nullptr;
    int best_len = -1;
    Attr best_attr = kUnreachable;
    node.routes.for_each_sorted(
        interner_, [&](PrefixId id, const RouteEntry& e) {
          if (e.elected == kUnreachable || e.filtered) return;
          const Prefix& p = interner_.prefix_of(id);
          if (!p.contains(dst)) return;
          if (p.length() > best_len) {
            best_len = p.length();
            best_attr = e.elected;
            best_entry = &e;
          }
        });
    if (best_entry == nullptr) {
      result.outcome = Outcome::kBlackHole;
      return result;
    }
    if (best_entry->originated && !best_entry->origin_paused) {
      result.outcome = Outcome::kDelivered;
      return result;
    }
    // Deterministic forwarding neighbour: lowest id whose candidate equals
    // the elected attribute.
    NodeId next = 0;
    bool found = false;
    for (const auto& [v, attr] : best_entry->rib_in) {
      if (attr == best_attr && link_alive(u, v)) {
        next = v;
        found = true;
        break;  // rib_in is sorted by neighbour id: lowest first
      }
    }
    if (!found) {
      result.outcome = Outcome::kBlackHole;
      return result;
    }
    if (!visited.insert(next).second) {
      result.path.push_back(next);
      result.outcome = Outcome::kLoop;
      return result;
    }
    result.path.push_back(next);
    u = next;
  }
}

std::vector<std::pair<topology::NodeId, topology::NodeId>>
Simulator::forwarding_links() const {
  std::unordered_set<std::uint64_t> seen;
  std::vector<std::pair<NodeId, NodeId>> out;
  for (NodeId u = 0; u < nodes_.size(); ++u) {
    nodes_[u].routes.for_each_sorted(
        interner_, [&](PrefixId, const RouteEntry& entry) {
          if (entry.elected == kUnreachable || entry.filtered) return;
          for (const auto& [v, attr] : entry.rib_in) {
            if (attr != entry.elected || !link_alive(u, v)) continue;
            if (seen.insert(link_key(u, v)).second) out.emplace_back(u, v);
          }
        });
  }
  return out;
}

namespace {
[[noreturn]] void throw_not_quiescent(const char* what, std::size_t depth,
                                      double now) {
  throw std::logic_error(
      std::string(what) + " requires a quiescent simulator, but " +
      std::to_string(depth) + " event(s) are still queued at t=" +
      std::to_string(now) +
      " (in-flight messages and timers cannot be captured; run to"
      " quiescence first)");
}
}  // namespace

std::shared_ptr<const Simulator::Snapshot> Simulator::snapshot() const {
  DRAGON_SPAN("engine", "snapshot");
  if (!queue_.empty()) {
    throw_not_quiescent("snapshot", queue_.size(), queue_.now());
  }
  auto snap = std::make_shared<Snapshot>();
  snap->serial = next_snapshot_serial.fetch_add(1);
  snap->topo = &topo_;
  snap->nodes = nodes_;
  snap->failed = failed_;
  snap->down = down_;
  snap->node_gen = node_gen_;
  snap->sess_epoch = sess_epoch_;
  snap->eor_wait = eor_wait_;
  snap->originations = originations_;
  snap->agg_watch = agg_watch_;
  snap->leakers = leakers_;
  snap->rogues = rogues_;
  snap->metrics = metrics_.snapshot_state();
  snap->rng = rng_;
  snap->msg_rng = msg_rng_;
  snap->msg_seq = msg_seq_;
  snap->time = queue_.now();
  return snap;
}

void Simulator::restore(const std::shared_ptr<const Snapshot>& snap) {
  restore(*snap);
}

void Simulator::restore(const Snapshot& snap) {
  DRAGON_SPAN("engine", "restore");
  if (!queue_.empty()) {
    throw_not_quiescent("restore", queue_.size(), queue_.now());
  }
  if (snap.topo != &topo_) {
    // Another topology's node vector has the wrong size or io vectors of
    // the wrong degree; the next io() would index out of range.
    throw std::invalid_argument(
        "restore: the snapshot was taken on another topology");
  }
  // Every node outside dirty_ already equals the last-restored snapshot's
  // copy, so restoring that snapshot again copies back only dirty_.
  // restored_serial_ is cleared first: a copy that throws halfway leaves
  // the next restore a whole copy.
  const bool dirty_only = snap.serial == restored_serial_;
  restored_serial_ = 0;
  if (dirty_only) {
    for (const NodeId u : dirty_) nodes_[u] = snap.nodes[u];
  } else {
    nodes_ = snap.nodes;
  }
  restored_serial_ = snap.serial;
  for (const NodeId u : dirty_) dirty_flag_[u] = 0;
  dirty_.clear();
  failed_ = snap.failed;
  down_ = snap.down;
  // The epoch vectors restore as captured: the empty-queue precondition
  // above guarantees no session/crash timer survives into the restored
  // trial, so a replay rebuilds exactly the captured timer landscape (see
  // the regression tests in tests/test_session.cpp).
  node_gen_ = snap.node_gen;
  sess_epoch_ = snap.sess_epoch;
  eor_wait_ = snap.eor_wait;
  originations_ = snap.originations;
  agg_watch_ = snap.agg_watch;
  leakers_ = snap.leakers;
  rogues_ = snap.rogues;
  metrics_.restore_state(snap.metrics);
  rng_ = snap.rng;
  msg_rng_ = snap.msg_rng;
  msg_seq_ = snap.msg_seq;
  // Rewind the clock to the capture instant: node state holds absolute
  // MRAI deadlines, so replaying a trial at a later now() would see them
  // all expired and batch updates differently.
  queue_.reset_time(snap.time);
}

void Simulator::deliver(NodeId to, NodeId from, PrefixId p,
                        std::optional<Attr> wire, std::uint64_t seq) {
  if (config_.session.enabled) {
    // The TCP session under the message died with the channel: anything in
    // flight to/from a crashed node or across a torn-down session is lost.
    if (!channel_up(to, from)) return;
  } else if (!link_alive(to, from)) {
    return;  // failed while in flight
  }
  NeighborIo& nio = io(to, from);
  // Sequence guard: per-(neighbour, prefix) newest-wins.  A reordered
  // older message (chaos extra delay, or in flight across a fast
  // fail/restore cycle) must not clobber a newer update.  Duplicates
  // carry the same seq and are re-applied idempotently.
  std::uint64_t& rx = nio.rx_seq.get_or_insert(p, 0);
  if (seq < rx) {
    c_msg_stale_->inc();
    DRAGON_TRACE_EVENT(tracer_, queue_.now(), obs::EventKind::kMsgStale, to,
                       static_cast<std::int64_t>(from),
                       interner_.prefix_of(p), 0u);
    return;
  }
  rx = seq;
  if (config_.session.enabled) {
    // Graceful restart: a refreshed prefix is no longer stale (RFC 4724's
    // "replace stale route on update").  The remainder is swept at EoR.
    if (!nio.stale.empty() && nio.stale.erase(p)) g_stale_->add(-1.0);
  }
  DRAGON_TRACE_EVENT(tracer_, queue_.now(),
                     wire ? obs::EventKind::kRecvAnnounce
                          : obs::EventKind::kRecvWithdraw,
                     to, static_cast<std::int64_t>(from),
                     interner_.prefix_of(p),
                     wire ? static_cast<std::uint32_t>(*wire) : 0u);
  const Attr imported =
      wire ? alg_.extend(label(to, from), *wire) : kUnreachable;
  if (config_.damping.enabled && damp_absorb(to, from, p, imported)) {
    return;  // suppressed: the release event replays the held state
  }
  RouteEntry& entry = touch(to).route(p);
  if (imported == kUnreachable) {
    entry.rib_in.erase(from);
  } else {
    entry.rib_in.set(from, imported);
  }
  reelect_and_react(to, p);
}

bool Simulator::damp_absorb(NodeId to, NodeId from, PrefixId p,
                            Attr imported) {
  NeighborIo& nio = io(to, from);
  DampState& d = nio.damp.get_or_insert(p, DampState{});
  const double now = queue_.now();
  if (d.penalty > 0.0 && now > d.stamp) {
    d.penalty *= std::exp2(-(now - d.stamp) / config_.damping.half_life);
  }
  d.stamp = now;
  // A flap is a change to this neighbour's contribution: compared against
  // the held state while suppressed, the live candidate otherwise.
  bool changed;
  const bool announce = imported != kUnreachable;
  if (d.suppressed) {
    changed = announce != d.held_announce ||
              (announce && imported != d.held_attr);
  } else {
    const RouteEntry* e = peek(to).find(p);
    const Attr* cur = e == nullptr ? nullptr : e->rib_in.find(from);
    changed = cur == nullptr ? announce : (!announce || imported != *cur);
  }
  if (changed) d.penalty += config_.damping.penalty;
  if (d.suppressed) {
    // Already suppressed: hold the newest state; the pending release event
    // re-reads the (possibly increased) penalty and re-arms itself.
    d.held_announce = announce;
    d.held_attr = imported;
    return true;
  }
  if (changed && d.penalty >= config_.damping.suppress) {
    d.suppressed = true;
    d.held_announce = announce;
    d.held_attr = imported;
    const std::uint32_t gen = ++d.gen;
    const double penalty = d.penalty;
    c_damp_suppress_->inc();
    g_damped_->add(1.0);
    RouteEntry& entry = touch(to).route(p);
    entry.rib_in.erase(from);
    reelect_and_react(to, p);
    schedule_damp_release(to, from, p, gen, penalty);
    return true;
  }
  return false;
}

void Simulator::schedule_damp_release(NodeId to, NodeId from, PrefixId p,
                                      std::uint32_t gen, double penalty) {
  // +epsilon so the decayed penalty at fire time is at or below reuse
  // despite floating-point rounding of the exact decay-crossing time.
  const double wait = config_.damping.release_delay(penalty) + 1e-9;
  queue_.schedule(queue_.now() + wait, [this, to, from, p, gen] {
    damp_release(to, from, p, gen);
  });
}

void Simulator::damp_release(NodeId to, NodeId from, PrefixId p,
                             std::uint32_t gen) {
  NeighborIo& nio = io(to, from);
  DampState* d = nio.damp.find(p);
  // Cleared state (session reset / crash wipe) or a newer suppress cycle:
  // this timer is stale.
  if (d == nullptr || !d->suppressed || d->gen != gen) return;
  const double now = queue_.now();
  if (d->penalty > 0.0 && now > d->stamp) {
    d->penalty *= std::exp2(-(now - d->stamp) / config_.damping.half_life);
    d->stamp = now;
  }
  if (d->penalty > config_.damping.reuse) {
    // Flaps while suppressed raised the penalty past the original release
    // point; re-arm for the new crossing (gen unchanged: same cycle).
    schedule_damp_release(to, from, p, gen, d->penalty);
    return;
  }
  d->suppressed = false;
  ++d->gen;
  const bool announce = d->held_announce;
  const Attr held = d->held_attr;
  c_damp_release_->inc();
  g_damped_->add(-1.0);
  RouteEntry& entry = touch(to).route(p);
  if (announce) {
    entry.rib_in.set(from, held);
  } else {
    entry.rib_in.erase(from);
  }
  reelect_and_react(to, p);
}

void Simulator::damp_clear(NodeId u, NodeId v) {
  NeighborIo& nio = io(u, v);
  if (nio.damp.empty()) return;
  double suppressed = 0.0;
  nio.damp.for_each([&suppressed](PrefixId, const DampState& d) {
    if (d.suppressed) suppressed += 1.0;
  });
  if (suppressed > 0.0) g_damped_->add(-suppressed);
  nio.damp.clear();
}

void Simulator::reelect_and_react(NodeId u, PrefixId p) {
  NodeState& node = touch(u);
  const Attr before = node.route(p).elected;
  const bool filtered_before = node.route(p).filtered;
  node.elect(alg_, p);

  if (config_.enable_dragon) {
    dragon_react(u, p);
  }

  // Re-acquire: the DRAGON hooks may have created entries (fragments,
  // aggregation roots, subtree placeholders), and FlatTable growth moves
  // entries — unlike the seed's std::map, references are not stable.
  RouteEntry& entry = node.route(p);
  if (entry.elected != before || entry.filtered != filtered_before) {
    DRAGON_LOG_DEBUG("t=%.6f node %u %s elected %x->%x filtered %d->%d",
                     queue_.now(), u,
                     interner_.prefix_of(p).to_bit_string().c_str(), before,
                     entry.elected, (int)filtered_before,
                     (int)entry.filtered);
    if (entry.elected != before) {
      DRAGON_TRACE_EVENT(tracer_, queue_.now(), obs::EventKind::kElect, u,
                         interner_.prefix_of(p),
                         static_cast<std::uint32_t>(entry.elected));
    }
    mark_pending(u, p);
  }
  sync_entry_obs(u, p, entry);
}

void Simulator::sync_entry_obs([[maybe_unused]] NodeId u,
                               [[maybe_unused]] PrefixId p,
                               RouteEntry& entry) {
  const bool active = entry.elected != kUnreachable && !entry.filtered;
  if (active == entry.fib_installed) return;
  entry.fib_installed = active;
  if (active) {
    c_fib_install_->inc();
    g_fib_->add(1.0);
    DRAGON_TRACE_EVENT(tracer_, queue_.now(), obs::EventKind::kFibInstall, u,
                       interner_.prefix_of(p));
  } else {
    c_fib_remove_->inc();
    g_fib_->add(-1.0);
    DRAGON_TRACE_EVENT(tracer_, queue_.now(), obs::EventKind::kFibRemove, u,
                       interner_.prefix_of(p));
  }
}

void Simulator::mark_pending(NodeId u, PrefixId p) {
  const auto nbrs = topo_.neighbors(u);
  for (std::size_t s = 0; s < nbrs.size(); ++s) {
    const NodeId v = nbrs[s].id;
    if (config_.session.enabled ? !channel_up(u, v) : !link_alive(u, v)) {
      continue;
    }
    touch(u).io[s].pending.insert(p);
    try_flush(u, v);
  }
}

void Simulator::try_flush(NodeId u, NodeId v) {
  // Gated on session.enabled so the disabled path keeps the seed engine's
  // exact behaviour (including draining pending on a failed link below).
  if (config_.session.enabled &&
      (!channel_up(u, v) || restart_deferred(u))) {
    return;  // teardown cleanup / finish_restart re-queues as appropriate
  }
  NeighborIo& nio = io(u, v);
  if (nio.pending.empty()) return;
  if (queue_.now() >= nio.mrai_ready) {
    flush_now(u, v);
    return;
  }
  if (!nio.flush_scheduled) {
    nio.flush_scheduled = true;
    queue_.schedule(nio.mrai_ready, [this, u, v] {
      NeighborIo& later = io(u, v);
      later.flush_scheduled = false;
      if (!later.pending.empty()) flush_now(u, v);
    });
  }
}

void Simulator::flush_now(NodeId u, NodeId v) {
  DRAGON_PROF_SCOPE("engine.flush");
  if (config_.session.enabled &&
      (!channel_up(u, v) || restart_deferred(u))) {
    return;  // the channel moved under a scheduled MRAI flush
  }
  const NodeState& node = peek(u);
  NeighborIo& nio = io(u, v);
  bool sent_any = false;
  // Batch in global prefix order — the seed's std::set<Prefix> iteration
  // order, and the order the wire sequence (and thus every digest)
  // depends on.
  const std::vector<PrefixId> batch = nio.pending.sorted_ids(interner_);
  for (const PrefixId p : batch) {
    if (!link_alive(u, v)) break;
    const RouteEntry* entry = node.find(p);
    bool exporting = entry != nullptr && entry->elected != kUnreachable &&
                     !entry->filtered;
    Attr wire_attr = exporting ? entry->elected : kUnreachable;
    if (exporting &&
        alg_.extend(label(v, u), entry->elected) == kUnreachable) {
      // Export policy drops it; nothing on the wire — unless u is leaking
      // (chaos scenario engine), in which case the route goes out anyway
      // with the masqueraded attribute the receiver's import accepts.
      wire_attr = kUnreachable;
      if (config_.leak_mask && leakers_.contains(u)) {
        wire_attr = config_.leak_mask(entry->elected);
      }
      exporting = wire_attr != kUnreachable;
    }
    const Attr* sent_attr = nio.sent.find(p);
    const bool update_due =
        exporting ? (sent_attr == nullptr || *sent_attr != wire_attr)
                  : sent_attr != nullptr;
    if (!update_due) continue;
    // Chaos loss seam.  The drop happens BEFORE the Adj-RIB-Out mutation:
    // io.sent still records the peer's pre-loss view, so the scheduled
    // re-flush genuinely resends the update — including withdrawals,
    // which a post-mutation drop would lose forever.
    if (config_.faults.loss > 0.0 && msg_rng_.chance(config_.faults.loss)) {
      drop_and_retry(u, v, p);
      continue;
    }
    if (exporting) {
      nio.sent.put(p, wire_attr);
      send(u, v, p, wire_attr);
    } else {
      nio.sent.erase(p);
      send(u, v, p, std::nullopt);
    }
    sent_any = true;
  }
  nio.pending.clear();
  if (sent_any) {
    c_mrai_flush_->inc();
    DRAGON_TRACE_EVENT(tracer_, queue_.now(), obs::EventKind::kMraiFlush, u,
                       static_cast<std::int64_t>(v));
    const double jitter = config_.mrai_jitter * rng_.uniform();
    nio.mrai_ready = queue_.now() + config_.mrai * (1.0 - jitter);
  }
  if (config_.session.enabled && nio.eor_pending) {
    // The refresh batch is fully on the wire (losses retransmit and are
    // resent before the peer's sweep: EoR rides a later flush only if the
    // batch sent nothing).  Close it with the End-of-RIB marker.
    nio.eor_pending = false;
    send_eor(u, v);
  }
}

void Simulator::send(NodeId from, NodeId to, PrefixId p,
                     std::optional<Attr> wire) {
  if (wire) {
    c_announce_->inc();
  } else {
    c_withdraw_->inc();
  }
  c_class_updates_[node_class_[from]]->inc();
  h_update_depth_->observe(
      static_cast<std::uint64_t>(interner_.prefix_of(p).length()));
  DRAGON_TRACE_EVENT(tracer_, queue_.now(),
                     wire ? obs::EventKind::kAnnounce
                          : obs::EventKind::kWithdraw,
                     from, static_cast<std::int64_t>(to),
                     interner_.prefix_of(p),
                     wire ? static_cast<std::uint32_t>(*wire) : 0u);
  const std::uint64_t seq = ++msg_seq_;
  schedule_delivery(from, to, p, wire, seq);
  if (config_.faults.duplicate > 0.0 &&
      msg_rng_.chance(config_.faults.duplicate)) {
    // Second wire copy with the same sequence: delivered (idempotently)
    // unless a newer update overtakes it first.
    c_msg_dup_->inc();
    DRAGON_TRACE_EVENT(tracer_, queue_.now(), obs::EventKind::kMsgDup, from,
                       static_cast<std::int64_t>(to), interner_.prefix_of(p),
                       0u);
    schedule_delivery(from, to, p, wire, seq);
  }
}

void Simulator::schedule_delivery(NodeId from, NodeId to, PrefixId p,
                                  std::optional<Attr> wire,
                                  std::uint64_t seq) {
  const double jitter =
      1.0 + config_.link_delay_jitter * (2.0 * rng_.uniform() - 1.0);
  double delay = config_.link_delay * jitter;
  if (config_.faults.delay_prob > 0.0 &&
      msg_rng_.chance(config_.faults.delay_prob)) {
    delay += config_.faults.extra_delay * msg_rng_.uniform();
  }
  queue_.schedule(queue_.now() + delay, [this, from, to, p, wire, seq] {
    deliver(to, from, p, wire, seq);
  });
}

void Simulator::drop_and_retry(NodeId u, NodeId v, PrefixId p) {
  c_msg_lost_->inc();
  DRAGON_TRACE_EVENT(tracer_, queue_.now(), obs::EventKind::kMsgLost, u,
                     static_cast<std::int64_t>(v), interner_.prefix_of(p),
                     0u);
  // An observed loss is the session layer's signal that keepalives share
  // the channel's fate: maybe this hold window eats them all.
  session_on_loss(u, v);
  queue_.schedule(queue_.now() + config_.faults.retransmit, [this, u, v, p] {
    if (config_.session.enabled ? !channel_up(u, v) : !link_alive(u, v)) {
      return;  // session reset resynced the peer
    }
    io(u, v).pending.insert(p);
    try_flush(u, v);
  });
}

}  // namespace dragon::engine
