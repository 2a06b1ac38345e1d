#include <algorithm>

#include "dragon/deaggregation.hpp"
#include "util/log.hpp"
#include "engine/dragon_hooks.hpp"

namespace dragon::engine {

using algebra::Attr;
using algebra::kUnreachable;
using prefix::kNoPrefixId;
using prefix::PrefixId;
using topology::NodeId;
using Prefix = prefix::Prefix;

PrefixId Simulator::effective_parent(const NodeState& node,
                                     PrefixId q) const {
  // The parent of q as known locally (§3.6): the most specific
  // less-specific prefix for which the node currently elects a route.
  // The interner's memoized covering chain enumerates every interned
  // strict ancestor in decreasing specificity; filtering it by the node's
  // route membership yields exactly the seed code's per-node PrefixSet
  // parent walk, without re-deriving ancestry per event.
  for (PrefixId pp = interner_.parent_of(q); pp != kNoPrefixId;
       pp = interner_.parent_of(pp)) {
    const RouteEntry* entry = node.find(pp);
    if (entry != nullptr && entry->elected != kUnreachable) return pp;
  }
  return kNoPrefixId;
}

void Simulator::dragon_react(NodeId u, PrefixId p) {
  const NodeState& node = peek(u);

  // Code CR for p itself and for every known prefix underneath it (their
  // local parent may be p); prefix-trees are small, so a subtree sweep is
  // cheap.  The interner forest's pre-order restricted to this node's
  // members is the seed PrefixSet's visit order.
  dragon_update_cr(u, p);
  std::vector<PrefixId> below;
  interner_.visit_subtree(p, [&](PrefixId q) {
    if (q != p && node.find(q) != nullptr) below.push_back(q);
  });
  for (const PrefixId q : below) dragon_update_cr(u, q);

  // Rule RA at this node's originations whose root covers p.
  const Prefix pfx = interner_.prefix_of(p);
  for (auto& rec : originations_) {
    if (rec.origin == u && rec.root.covers(pfx)) dragon_check_ra(rec);
  }

  // Self-organised aggregation originations watching a root that covers p.
  if (config_.enable_reaggregation) {
    // Copy: reelect_and_react recursion may not mutate the watch list, but
    // keep iteration independent of callee behaviour.
    const auto watches = agg_watch_;
    for (const auto& [root, attr] : watches) {
      if (root.covers(pfx)) {
        dragon_check_reaggregation(u, interner_.intern(root), attr);
      }
    }
  }
}

void Simulator::dragon_update_cr(NodeId u, PrefixId q) {
  NodeState& node = touch(u);
  RouteEntry& entry = node.route(q);
  bool filter = false;
  const bool own_active = entry.originated && !entry.origin_paused;
  if (!own_active && entry.elected != kUnreachable) {
    const PrefixId parent = effective_parent(node, q);
    if (parent != kNoPrefixId) {
      const RouteEntry* pe = node.find(parent);
      const bool origin_of_p = pe->originated && !pe->origin_paused;
      if (!origin_of_p) {
        // Filter iff the q-route's L-attribute equals or is less preferred
        // than the p-route's (code CR on L-attributes; §3.1, §3.5).
        filter = project(entry.elected) >= project(pe->elected);
      }
    }
  }
  if (filter != entry.filtered) {
    entry.filtered = filter;
    if (filter) {
      c_filter_->inc();
      g_filtered_->add(1.0);
      DRAGON_TRACE_EVENT(tracer_, queue_.now(), obs::EventKind::kFilter, u,
                         interner_.prefix_of(q),
                         static_cast<std::uint32_t>(entry.elected));
    } else {
      c_unfilter_->inc();
      g_filtered_->add(-1.0);
      DRAGON_TRACE_EVENT(tracer_, queue_.now(), obs::EventKind::kUnfilter, u,
                         interner_.prefix_of(q),
                         static_cast<std::uint32_t>(entry.elected));
    }
    sync_entry_obs(u, q, entry);
    mark_pending(u, q);
  }
}

void Simulator::dragon_check_ra(OriginationRecord& rec) {
  NodeState& node = touch(rec.origin);
  const PrefixId root_id = interner_.intern(rec.root);
  if (!node.route(root_id).originated) return;  // withdrawn meanwhile

  // Rule RA at the origin of a block has a three-way outcome:
  //   * every more-specific is elected at least as preferred as the
  //     assigned attribute -> announce normally;
  //   * some more-specific is elected with a *worse* attribute -> downgrade
  //     the announcement to that attribute (§3.9: u4 elects a provider
  //     p1-route, so it "announces p with a provider route");
  //   * a *delegated* more-specific has no route at all -> the origin would
  //     be a black hole for it, so de-aggregate around it (§3.8).
  // Stale un-elected entries for non-delegated prefixes do not count, so
  // retired de-aggregation fragments never re-trigger.
  // Classify the more-specifics.  Entries this node itself actively
  // originates (its own TE children or de-aggregation fragments) are
  // self-covered and are skipped: without AS-path loop detection, their
  // learned candidates may be echoes of our own announcements, and acting
  // on echoes oscillates (announce -> echo back -> "independently
  // reachable" -> withdraw -> echo gone -> re-announce ...).
  Attr worst_attr = rec.attr;
  std::vector<Prefix> reachable;   // more-specifics routed by others
  std::vector<Prefix> violating;   // ... elected worse than the assignment
  interner_.visit_subtree(root_id, [&](PrefixId q) {
    if (q == root_id) return;
    const RouteEntry* qe = node.find(q);
    if (qe == nullptr || qe->elected == kUnreachable) return;
    if (qe->originated && !qe->origin_paused) return;  // self-covered
    reachable.push_back(interner_.prefix_of(q));
    if (project(qe->elected) > project(rec.attr)) {
      violating.push_back(interner_.prefix_of(q));
      if (project(qe->elected) > project(worst_attr)) {
        worst_attr = qe->elected;
      }
    }
  });
  std::vector<Prefix> lost;
  for (const Prefix& q : rec.delegated) {
    const PrefixId qid = interner_.find(q);
    const RouteEntry* qe = qid == kNoPrefixId ? nullptr : node.find(qid);
    if (qe != nullptr && qe->elected == kUnreachable) lost.push_back(q);
  }
  if (!violating.empty() || !lost.empty()) {
    c_ra_violation_->inc();
    DRAGON_TRACE_EVENT(tracer_, queue_.now(), obs::EventKind::kRaViolation,
                       rec.origin, rec.root,
                       static_cast<std::uint32_t>(worst_attr));
  }

  // A §3.9 downgrade is RA-compliant only when the reachable more-specifics
  // fully tile the root: no address then depends on the root announcement,
  // so shrinking its export scope loses nothing.  Otherwise the origin must
  // de-aggregate, keeping root-minus-violating reachable with the assigned
  // attribute.
  const bool tiled =
      !reachable.empty() &&
      core::deaggregate_excluding(rec.root, reachable).empty();
  if (!violating.empty() && (!lost.empty() || !tiled)) {
    for (const Prefix& q : lost) {
      if (std::find(violating.begin(), violating.end(), q) ==
          violating.end()) {
        violating.push_back(q);
      }
    }
    lost = std::move(violating);
  } else if (!lost.empty()) {
    // keep `lost` as the de-aggregation driver
  }

  if (!lost.empty()) {
    // De-aggregate (§3.8): withdraw the root, announce the tiling of the
    // root minus the lost prefixes with the assigned attribute.
    auto fragments = core::deaggregate_excluding(rec.root, lost);
    if (rec.deaggregated && fragments == rec.fragments) return;
    const auto old_fragments = std::move(rec.fragments);
    rec.fragments = std::move(fragments);
    if (!rec.deaggregated) {
      rec.deaggregated = true;
      c_deagg_->inc();
      DRAGON_TRACE_EVENT(tracer_, queue_.now(), obs::EventKind::kDeaggregate,
                         rec.origin, rec.root);
      node.route(root_id).origin_paused = true;
      reelect_and_react(rec.origin, root_id);
    }
    for (const Prefix& f : rec.fragments) {
      const PrefixId fid = interner_.intern(f);
      RouteEntry& fe = node.route(fid);
      if (fe.originated && fe.origin_attr == rec.attr) continue;
      fe.originated = true;
      fe.origin_attr = rec.attr;
      fe.origin_paused = false;
      reelect_and_react(rec.origin, fid);
    }
    for (const Prefix& f : old_fragments) {
      if (std::find(rec.fragments.begin(), rec.fragments.end(), f) !=
          rec.fragments.end()) {
        continue;
      }
      const PrefixId fid = interner_.intern(f);
      RouteEntry& fe = node.route(fid);
      fe.originated = false;
      fe.origin_attr = kUnreachable;
      reelect_and_react(rec.origin, fid);
    }
    return;
  }

  if (rec.deaggregated) {
    // The lost prefixes are routable again: restore the root.
    c_reagg_->inc();
    DRAGON_TRACE_EVENT(tracer_, queue_.now(), obs::EventKind::kReaggregate,
                       rec.origin, rec.root);
    rec.deaggregated = false;
    const auto old_fragments = std::move(rec.fragments);
    rec.fragments.clear();
    node.route(root_id).origin_paused = false;
    // Re-elect the root unconditionally: un-pausing alone changes the
    // election input even when the announce attribute below ends up
    // unchanged (the delegated route came back with its original class),
    // and the root must be announced before the fragments are withdrawn
    // (make-before-break).
    reelect_and_react(rec.origin, root_id);
    for (const Prefix& f : old_fragments) {
      const PrefixId fid = interner_.intern(f);
      RouteEntry& fe = node.route(fid);
      fe.originated = false;
      fe.origin_attr = kUnreachable;
      reelect_and_react(rec.origin, fid);
    }
  }

  // Announce with the RA-compliant attribute: possibly a §3.9 downgrade,
  // or a recovery back to the assigned attribute.  Fresh reference: the
  // fragment/reaction paths above may have grown the flat table, and
  // FlatTable growth moves entries (std::map references were stable).
  RouteEntry& root_entry = node.route(root_id);
  if (root_entry.origin_attr != worst_attr) {
    if (project(worst_attr) > project(rec.attr) &&
        project(rec.effective_attr) <= project(rec.attr)) {
      c_downgrade_->inc();
      DRAGON_TRACE_EVENT(tracer_, queue_.now(), obs::EventKind::kDowngrade,
                         rec.origin, rec.root,
                         static_cast<std::uint32_t>(worst_attr));
    }
    rec.effective_attr = worst_attr;
    root_entry.origin_attr = worst_attr;
    reelect_and_react(rec.origin, root_id);
  }
}

void Simulator::dragon_check_reaggregation(NodeId u, PrefixId root,
                                           Attr attr) {
  const Prefix root_pfx = interner_.prefix_of(root);
  // The assigned origin of the root manages it through rule RA instead.
  for (const auto& rec : originations_) {
    if (rec.origin == u && rec.root == root_pfx) return;
  }
  NodeState& node = touch(u);
  RouteEntry& entry = node.route(root);

  // Pieces: known prefixes under the root elected with an attribute at
  // least as preferred as the origination attribute.  Any worse-elected
  // more-specific would break rule RA for the origination, so it vetoes.
  std::vector<Prefix> pieces;
  bool veto = false;
  interner_.visit_subtree(root, [&](PrefixId q) {
    if (q == root) return;
    const RouteEntry* qe = node.find(q);
    if (qe == nullptr || qe->elected == kUnreachable) return;
    if (project(qe->elected) <= project(attr)) {
      pieces.push_back(interner_.prefix_of(q));
    } else {
      veto = true;
    }
  });

  bool should = !veto && !pieces.empty() &&
                core::deaggregate_excluding(root_pfx, pieces).empty();
  if (should) {
    // Fig. 6 stop rule: an equally-preferred learned route for the root
    // makes the origination redundant.
    for (const auto& [neighbor, cand] : entry.rib_in) {
      (void)neighbor;
      if (project(cand) <= project(attr)) {
        should = false;
        break;
      }
    }
  }

  if (should && !entry.originated) {
    DRAGON_LOG_DEBUG("t=%.6f node %u ORIGINATE %s (pieces=%zu rib=%zu)",
                     queue_.now(), u, root_pfx.to_bit_string().c_str(),
                     pieces.size(), entry.rib_in.size());
    entry.originated = true;
    entry.origin_reagg = true;
    entry.origin_attr = attr;
    entry.origin_paused = false;
    c_agg_orig_->inc();
    DRAGON_TRACE_EVENT(tracer_, queue_.now(), obs::EventKind::kAggOriginate,
                       u, root_pfx, static_cast<std::uint32_t>(attr));
    reelect_and_react(u, root);
  } else if (!should && entry.originated && entry.origin_reagg) {
    const auto missing = core::deaggregate_excluding(root_pfx, pieces);
    bool learned_eq = false;
    for (const auto& [nb, cand] : entry.rib_in) {
      if (project(cand) <= project(attr)) learned_eq = true;
      (void)nb;
    }
    DRAGON_LOG_DEBUG(
        "t=%.6f node %u STOP %s (veto=%d pieces=%zu learned_eq=%d "
        "missing0=%s)",
        queue_.now(), u, root_pfx.to_bit_string().c_str(), (int)veto,
        pieces.size(), (int)learned_eq,
        missing.empty() ? "-" : missing.front().to_bit_string().c_str());
    entry.originated = false;
    entry.origin_reagg = false;
    entry.origin_attr = kUnreachable;
    DRAGON_TRACE_EVENT(tracer_, queue_.now(), obs::EventKind::kAggStop, u,
                       root_pfx);
    reelect_and_react(u, root);
  }
}

}  // namespace dragon::engine
