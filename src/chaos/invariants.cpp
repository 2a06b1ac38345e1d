#include "chaos/invariants.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <set>

#include "dragon/deaggregation.hpp"

namespace dragon::chaos {

using algebra::Attr;
using algebra::kUnreachable;
using engine::RouteEntry;
using topology::NodeId;
using Prefix = prefix::Prefix;

std::string Violation::to_string() const {
  std::string out = check;
  out += " node=" + std::to_string(node);
  out += " prefix=\"" + prefix.to_bit_string() + "\"";
  out += ": " + detail;
  return out;
}

std::string InvariantReport::to_string() const {
  std::string out;
  for (const Violation& v : violations) {
    out += v.to_string();
    out += '\n';
  }
  return out;
}

namespace {

using Rib = std::map<Prefix, RouteEntry>;

constexpr std::size_t kMaxViolations = 32;

struct Checker {
  const engine::Simulator& sim;
  const InvariantOptions& opts;
  InvariantReport report;
  std::vector<Rib> rib;

  [[nodiscard]] bool full() const {
    return report.violations.size() >= kMaxViolations;
  }
  void add(const char* check, NodeId node, const Prefix& p,
           std::string detail) {
    if (!full()) {
      report.violations.push_back({check, node, p, std::move(detail)});
    }
  }
  [[nodiscard]] std::uint32_t proj(Attr a) const {
    return sim.project_attr(a);
  }

  /// The most specific strict ancestor of q with an elected route at this
  /// node — dragon_hooks' effective_parent recomputed from the RIB copy.
  [[nodiscard]] std::optional<Prefix> effective_parent(const Rib& node,
                                                       const Prefix& q) const {
    for (int len = q.length() - 1; len >= 0; --len) {
      const Prefix anc(q.bits(), len);
      const auto it = node.find(anc);
      if (it != node.end() && it->second.elected != kUnreachable) return anc;
    }
    return std::nullopt;
  }

  void check_forwarding();
  void check_coherence();
  void check_cr();
  void check_ra();
  void check_session();
};

void Checker::check_forwarding() {
  // Destination set: the first address of every actively originated prefix
  // (assigned roots, de-aggregation fragments, §3.7 aggregates).
  std::set<prefix::Address> dests;
  for (const Rib& node : rib) {
    for (const auto& [p, e] : node) {
      if (e.originated && !e.origin_paused) dests.insert(p.first_address());
    }
  }
  const std::size_t n = rib.size();
  const std::size_t take = std::min(opts.max_sources, n);
  if (take == 0) return;
  const std::size_t stride = n / take;
  for (std::size_t i = 0; i < take && !full(); ++i) {
    const NodeId u = static_cast<NodeId>(i * stride);
    for (const prefix::Address dst : dests) {
      ++report.checks_run;
      const auto tr = sim.trace(u, dst);
      char addr[16];
      std::snprintf(addr, sizeof(addr), "%08x", dst);
      if (tr.outcome == engine::Simulator::Outcome::kLoop) {
        std::string path;
        for (const NodeId v : tr.path) {
          if (!path.empty()) path += '>';
          path += std::to_string(v);
        }
        add("loop", u, {}, "dst=" + std::string(addr) + " path=" + path);
      } else if (tr.outcome == engine::Simulator::Outcome::kBlackHole) {
        if (tr.path.size() > 1) {
          // A neighbour forwarded the packet to a node without a route:
          // DRAGON's black-hole freedom (route consistency) is broken.
          add("black_hole", tr.path.back(), {},
              "dst=" + std::string(addr) + " reached via " +
                  std::to_string(tr.path.size() - 1) + " hop(s) from node " +
                  std::to_string(u) + " and has no covering FIB entry");
        } else {
          // Stuck at the source: fine unless the source itself claims a
          // covering installed entry (then its election is unusable).
          for (const auto& [p, e] : rib[u]) {
            if (e.fib_installed && p.contains(dst)) {
              add("black_hole", u, p,
                  "dst=" + std::string(addr) +
                      " covered by an installed entry with no viable "
                      "next hop");
              break;
            }
          }
        }
      }
      if (full()) break;
    }
  }
}

void Checker::check_coherence() {
  const auto& alg = sim.algebra_used();
  const auto& topo = sim.topology_used();
  std::set<std::pair<NodeId, NodeId>> down;
  for (const auto& l : sim.failed_links()) down.insert(l);
  std::uint64_t fib_total = 0;
  std::uint64_t filtered_total = 0;
  for (NodeId u = 0; u < rib.size() && !full(); ++u) {
    for (const auto& [p, e] : rib[u]) {
      ++report.checks_run;
      if (e.fib_installed) ++fib_total;
      if (e.elected != kUnreachable && e.filtered) ++filtered_total;
      if (e.fib_installed != (e.elected != kUnreachable && !e.filtered)) {
        add("coherence", u, p,
            "fib_installed flag out of sync with elected/filtered");
      }
      if (e.filtered && e.elected == kUnreachable) {
        add("coherence", u, p, "filtered without an elected route");
      }
      // Session-reset semantics: no Adj-RIB-In candidate may survive from
      // a non-neighbour or across a failed link at quiescence.
      Attr best = (e.originated && !e.origin_paused) ? e.origin_attr
                                                     : kUnreachable;
      for (const auto& [v, cand] : e.rib_in) {
        if (!topo.linked(u, v)) {
          add("coherence", u, p,
              "rib_in candidate from non-neighbour " + std::to_string(v));
        } else if (down.contains(std::minmax(u, v))) {
          add("coherence", u, p,
              "rib_in candidate survives failed link to " +
                  std::to_string(v));
        } else if (!sim.node_up(v)) {
          add("coherence", u, p,
              "rib_in candidate survives from crashed node " +
                  std::to_string(v));
        }
        if (best == kUnreachable || alg.prefer(cand, best)) best = cand;
      }
      if (best != e.elected) {
        add("coherence", u, p,
            "elected " + alg.attr_name(e.elected) +
                " != best candidate " + alg.attr_name(best));
      }
      if (full()) break;
    }
  }
  const obs::Gauge* g_fib = sim.metrics().find_gauge("dragon.engine.fib_entries");
  const obs::Gauge* g_filt =
      sim.metrics().find_gauge("dragon.dragon.filtered_entries");
  if (g_fib != nullptr && g_fib->value() != static_cast<double>(fib_total)) {
    add("coherence", 0, {},
        "fib_entries gauge " + std::to_string(g_fib->value()) +
            " != recounted " + std::to_string(fib_total));
  }
  if (g_filt != nullptr &&
      g_filt->value() != static_cast<double>(filtered_total)) {
    add("coherence", 0, {},
        "filtered_entries gauge " + std::to_string(g_filt->value()) +
            " != recounted " + std::to_string(filtered_total));
  }
}

void Checker::check_cr() {
  const bool dragon = sim.config().enable_dragon;
  for (NodeId u = 0; u < rib.size() && !full(); ++u) {
    const Rib& node = rib[u];
    for (const auto& [q, e] : node) {
      ++report.checks_run;
      bool expect = false;
      const bool own_active = e.originated && !e.origin_paused;
      if (dragon && !own_active && e.elected != kUnreachable) {
        if (const auto parent = effective_parent(node, q)) {
          const RouteEntry& pe = node.at(*parent);
          const bool origin_of_p = pe.originated && !pe.origin_paused;
          if (!origin_of_p) expect = proj(e.elected) >= proj(pe.elected);
        }
      }
      if (e.filtered != expect) {
        add("cr", u, q,
            std::string("filter flag ") + (e.filtered ? "set" : "clear") +
                " but code CR on L-attributes says " +
                (expect ? "filter" : "announce"));
      }
      if (full()) break;
    }
  }
}

void Checker::check_ra() {
  if (!sim.config().enable_dragon) return;
  for (const auto& rec : sim.origin_records()) {
    if (full()) break;
    // A crashed origin's record is configuration that survives, but its
    // volatile entries (including the root's) are legitimately gone; RA is
    // re-audited once the node restarts and re-announces.
    if (!sim.node_up(rec.origin)) continue;
    ++report.checks_run;
    const Rib& node = rib[rec.origin];
    Attr worst = rec.attr;
    std::vector<Prefix> reachable;
    std::vector<Prefix> violating;
    for (const auto& [q, qe] : node) {
      if (q == rec.root || !rec.root.covers(q)) continue;
      if (qe.elected == kUnreachable) continue;
      if (qe.originated && !qe.origin_paused) continue;  // self-covered
      reachable.push_back(q);
      if (proj(qe.elected) > proj(rec.attr)) {
        violating.push_back(q);
        if (proj(qe.elected) > proj(worst)) worst = qe.elected;
      }
    }
    std::vector<Prefix> lost;
    for (const Prefix& q : rec.delegated) {
      const auto it = node.find(q);
      if (it != node.end() && it->second.elected == kUnreachable) {
        lost.push_back(q);
      }
    }
    const bool tiled =
        !reachable.empty() &&
        core::deaggregate_excluding(rec.root, reachable).empty();
    // Same driver-set resolution as dragon_check_ra: a violating
    // more-specific forces de-aggregation unless a §3.9 downgrade is
    // RA-compliant (the reachable more-specifics tile the root).
    std::vector<Prefix> drivers = lost;
    if (!violating.empty() && (!lost.empty() || !tiled)) {
      drivers = violating;
      for (const Prefix& q : lost) {
        if (std::find(drivers.begin(), drivers.end(), q) == drivers.end()) {
          drivers.push_back(q);
        }
      }
    }
    const auto root_it = node.find(rec.root);
    if (root_it == node.end()) {
      add("ra", rec.origin, rec.root, "origin has no entry for its root");
      continue;
    }
    const RouteEntry& root_entry = root_it->second;
    if (!drivers.empty()) {
      if (!rec.deaggregated) {
        add("ra", rec.origin, rec.root,
            "rule RA requires de-aggregation around " +
                std::to_string(drivers.size()) +
                " unreachable/violating more-specific(s), but the origin "
                "still announces the root");
        continue;
      }
      const auto expected = core::deaggregate_excluding(rec.root, drivers);
      if (rec.fragments != expected) {
        add("ra", rec.origin, rec.root,
            "de-aggregation fragments do not tile the root minus the "
            "offending more-specifics");
      }
      if (!root_entry.origin_paused) {
        add("ra", rec.origin, rec.root,
            "de-aggregated but the root announcement is not paused");
      }
      for (const Prefix& f : rec.fragments) {
        const auto it = node.find(f);
        const bool ok = it != node.end() && it->second.originated &&
                        !it->second.origin_paused &&
                        it->second.origin_attr == rec.attr;
        if (!ok) {
          add("ra", rec.origin, f,
              "de-aggregation fragment is not originated with the "
              "assigned attribute");
        }
      }
    } else {
      if (rec.deaggregated) {
        add("ra", rec.origin, rec.root,
            "de-aggregated with every more-specific reachable (should "
            "have re-aggregated)");
        continue;
      }
      // §3.9 fixpoint: the announced attribute must equal the worst
      // elected more-specific (compared as L-attributes).
      if (proj(rec.effective_attr) != proj(worst)) {
        add("ra", rec.origin, rec.root,
            "announced L-attribute " +
                std::to_string(proj(rec.effective_attr)) +
                " != worst elected more-specific " +
                std::to_string(proj(worst)));
      }
      if (root_entry.originated &&
          proj(root_entry.origin_attr) != proj(rec.effective_attr)) {
        add("ra", rec.origin, rec.root,
            "root entry announces a different attribute than the "
            "origination record");
      }
    }
  }
}

void Checker::check_session() {
  if (!sim.config().session.enabled) return;
  const auto& topo = sim.topology_used();
  std::set<std::pair<NodeId, NodeId>> down_links;
  for (const auto& l : sim.failed_links()) down_links.insert(l);
  double stale_total = 0.0;
  for (NodeId u = 0; u < rib.size() && !full(); ++u) {
    for (const auto& nb : topo.neighbors(u)) {
      const NodeId v = nb.id;
      ++report.checks_run;
      // Deterministic sweep guarantee: no stale-retained route may outlive
      // quiescence — every retention cycle ends in an EoR or window sweep.
      const std::size_t stale = sim.stale_route_count(u, v);
      stale_total += static_cast<double>(stale);
      if (stale > 0) {
        add("session", u, {},
            std::to_string(stale) + " stale route(s) from " +
                std::to_string(v) + " survive quiescence");
      }
      // Liveness: an alive link between up nodes has no reason to remain
      // un-established once every timer has drained.
      if (sim.node_up(u) && sim.node_up(v) &&
          !down_links.contains(std::minmax(u, v))) {
        const engine::SessionState st = sim.session_state(u, v);
        if (st != engine::SessionState::kEstablished) {
          add("session", u, {},
              std::string("session towards ") + std::to_string(v) +
                  " is " + engine::to_string(st) +
                  " at quiescence on an alive link between up nodes");
        }
      }
    }
    if (!sim.node_up(u) && !rib[u].empty()) {
      add("session", u, {},
          "crashed node retains " + std::to_string(rib[u].size()) +
              " route entrie(s) at quiescence");
    }
    if (sim.restart_deferred(u)) {
      add("session", u, {},
          "restart advertisement deferral still outstanding at quiescence");
    }
  }
  const obs::Gauge* g_stale =
      sim.metrics().find_gauge("dragon.session.stale_routes");
  if (g_stale != nullptr && g_stale->value() != stale_total) {
    add("session", 0, {},
        "stale_routes gauge " + std::to_string(g_stale->value()) +
            " != recounted " + std::to_string(stale_total));
  }
}

}  // namespace

InvariantReport check_invariants(const engine::Simulator& sim,
                                 const InvariantOptions& opts) {
  Checker ck{sim, opts, {}, {}};
  ck.rib.resize(sim.topology_used().node_count());
  sim.for_each_route(
      [&](NodeId u, const Prefix& p, const RouteEntry& e) { ck.rib[u][p] = e; });
  if (!ck.full()) ck.check_coherence();
  if (!ck.full()) ck.check_cr();
  if (!ck.full()) ck.check_ra();
  if (!ck.full()) ck.check_session();
  if (opts.forwarding && !ck.full()) ck.check_forwarding();
  return std::move(ck.report);
}

BlastRadius measure_blast_radius(
    const engine::Simulator& sim, prefix::Address dst,
    const std::vector<topology::NodeId>& adversaries,
    std::size_t max_sources) {
  BlastRadius out;
  const std::set<NodeId> bad(adversaries.begin(), adversaries.end());
  const std::size_t n = sim.topology_used().node_count();
  const std::size_t take = std::min(max_sources, n);
  if (take == 0) return out;
  const std::size_t stride = n / take;
  for (std::size_t i = 0; i < take; ++i) {
    const NodeId u = static_cast<NodeId>(i * stride);
    if (bad.contains(u)) continue;
    ++out.sources;
    const auto tr = sim.trace(u, dst);
    // A walk that never delivers (loop or black hole) is damage too —
    // route leaks leave stable forwarding loops behind, which is the
    // blast, not a measurement artefact.
    if (tr.outcome != engine::Simulator::Outcome::kDelivered) {
      ++out.affected;
      continue;
    }
    for (const NodeId hop : tr.path) {
      if (bad.contains(hop)) {
        ++out.affected;
        break;
      }
    }
  }
  return out;
}

}  // namespace dragon::chaos
