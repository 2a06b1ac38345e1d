#include "chaos/fault_plan.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <set>

#include "util/rng.hpp"

namespace dragon::chaos {

using topology::NodeId;
using Prefix = prefix::Prefix;

namespace {

/// Serialised names, indexed by FaultKind.  The static_assert is the
/// exhaustiveness guard promised in fault_plan.hpp: adding an enumerator
/// without a name (or a name without an enumerator) fails to compile.
constexpr const char* kFaultKindNames[] = {
    "link_fail",        "link_restore",    "origin_withdraw",
    "origin_announce",  "node_crash",      "node_restart",
    "route_leak_start", "route_leak_stop", "hijack_announce",
    "hijack_withdraw",
};
static_assert(std::size(kFaultKindNames) ==
                  static_cast<std::size_t>(FaultKind::kCount_),
              "kFaultKindNames must name every FaultKind — update the table, "
              "FaultAction::to_json, parse_action, and schedule_plan together");

}  // namespace

const char* to_string(FaultKind kind) noexcept {
  const auto idx = static_cast<std::size_t>(kind);
  if (idx >= std::size(kFaultKindNames)) return "unknown";
  return kFaultKindNames[idx];
}

std::string FaultAction::to_json() const {
  char buf[128];
  std::string out;
  std::snprintf(buf, sizeof(buf), "{\"t\":%.9g,\"kind\":\"%s\"", t,
                to_string(kind));
  out += buf;
  if (kind == FaultKind::kLinkFail || kind == FaultKind::kLinkRestore) {
    std::snprintf(buf, sizeof(buf), ",\"a\":%u,\"b\":%u", a, b);
    out += buf;
  } else if (kind == FaultKind::kNodeCrash || kind == FaultKind::kNodeRestart ||
             kind == FaultKind::kRouteLeakStart ||
             kind == FaultKind::kRouteLeakStop) {
    std::snprintf(buf, sizeof(buf), ",\"node\":%u", a);
    out += buf;
  } else {
    std::snprintf(buf, sizeof(buf), ",\"origin\":%u,\"attr\":%u", origin, attr);
    out += buf;
    out += ",\"prefix\":\"";
    out += prefix.to_bit_string();
    out += '"';
  }
  out += '}';
  return out;
}

double FaultPlan::last_time() const {
  return actions.empty() ? 0.0 : actions.back().t;
}

namespace {

// Minimal cursor-based parser for exactly the JSON this file emits
// (object keys in emission order, insignificant whitespace tolerated).
// Every helper returns false on mismatch and leaves the caller to abort:
// a half-parsed plan must never replay.
struct JsonCursor {
  std::string_view s;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < s.size() &&
           (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' ||
            s[pos] == '\r')) {
      ++pos;
    }
  }
  bool lit(char c) {
    skip_ws();
    if (pos >= s.size() || s[pos] != c) return false;
    ++pos;
    return true;
  }
  bool peek(char c) {
    skip_ws();
    return pos < s.size() && s[pos] == c;
  }
  /// Matches `"key":` (the exact quoted key followed by a colon).
  bool key(std::string_view k) {
    skip_ws();
    if (s.size() - pos < k.size() + 3) return false;
    if (s[pos] != '"' || s.substr(pos + 1, k.size()) != k ||
        s[pos + 1 + k.size()] != '"') {
      return false;
    }
    pos += k.size() + 2;
    return lit(':');
  }
  /// An unsigned decimal that fits `T` (std::from_chars rejects a sign
  /// and reports overflow).
  template <typename T>
  bool number_uint(T& out) {
    skip_ws();
    const char* first = s.data() + pos;
    const auto [end, ec] = std::from_chars(first, s.data() + s.size(), out);
    if (ec != std::errc{}) return false;
    pos += static_cast<std::size_t>(end - first);
    return true;
  }
  /// A finite number: to_json could not write inf or nan back as JSON.
  bool number_double(double& out) {
    skip_ws();
    // %.9g emits an optional sign, digits, optional fraction and exponent;
    // delimit the token manually (string_view is not NUL-terminated).
    const std::size_t begin = pos;
    while (pos < s.size() &&
           (s[pos] == '-' || s[pos] == '+' || s[pos] == '.' ||
            s[pos] == 'e' || s[pos] == 'E' ||
            (s[pos] >= '0' && s[pos] <= '9'))) {
      ++pos;
    }
    if (pos == begin) return false;
    char buf[64];
    const std::size_t len = pos - begin;
    if (len >= sizeof(buf)) return false;
    std::memcpy(buf, s.data() + begin, len);
    buf[len] = '\0';
    char* end = nullptr;
    out = std::strtod(buf, &end);
    return end == buf + len && std::isfinite(out);
  }
  bool string(std::string& out) {
    if (!lit('"')) return false;
    const std::size_t begin = pos;
    while (pos < s.size() && s[pos] != '"') ++pos;
    if (pos >= s.size()) return false;
    out.assign(s.substr(begin, pos - begin));
    ++pos;
    return true;
  }
};

bool kind_from_string(std::string_view name, FaultKind& out) {
  for (std::size_t k = 0; k < static_cast<std::size_t>(FaultKind::kCount_);
       ++k) {
    if (name == kFaultKindNames[k]) {
      out = static_cast<FaultKind>(k);
      return true;
    }
  }
  return false;
}

bool parse_action(JsonCursor& c, FaultAction& act) {
  std::string kind_name;
  if (!c.lit('{') || !c.key("t") || !c.number_double(act.t) || !c.lit(',') ||
      !c.key("kind") || !c.string(kind_name) ||
      !kind_from_string(kind_name, act.kind)) {
    return false;
  }
  switch (act.kind) {
    case FaultKind::kLinkFail:
    case FaultKind::kLinkRestore:
      if (!c.lit(',') || !c.key("a") || !c.number_uint(act.a) || !c.lit(',') ||
          !c.key("b") || !c.number_uint(act.b)) {
        return false;
      }
      break;
    case FaultKind::kNodeCrash:
    case FaultKind::kNodeRestart:
    case FaultKind::kRouteLeakStart:
    case FaultKind::kRouteLeakStop:
      if (!c.lit(',') || !c.key("node") || !c.number_uint(act.a)) return false;
      break;
    case FaultKind::kOriginWithdraw:
    case FaultKind::kOriginAnnounce:
    case FaultKind::kHijackAnnounce:
    case FaultKind::kHijackWithdraw: {
      std::string bits;
      if (!c.lit(',') || !c.key("origin") || !c.number_uint(act.origin) ||
          !c.lit(',') || !c.key("attr") || !c.number_uint(act.attr) ||
          !c.lit(',') || !c.key("prefix") || !c.string(bits)) {
        return false;
      }
      const auto p = Prefix::from_bit_string(bits);
      if (!p) return false;
      act.prefix = *p;
      break;
    }
    case FaultKind::kCount_:
      return false;
  }
  return c.lit('}');
}

}  // namespace

std::optional<FaultPlan> FaultPlan::from_json(std::string_view json) {
  JsonCursor c{json};
  FaultPlan plan;
  if (!c.lit('{') || !c.key("seed") || !c.number_uint(plan.seed) ||
      !c.lit(',') || !c.key("actions") || !c.lit('[')) {
    return std::nullopt;
  }
  if (!c.peek(']')) {
    do {
      FaultAction act;
      if (!parse_action(c, act)) return std::nullopt;
      plan.actions.push_back(act);
    } while (c.lit(','));
  }
  if (!c.lit(']') || !c.lit('}')) return std::nullopt;
  c.skip_ws();
  if (c.pos != json.size()) return std::nullopt;  // trailing garbage
  return plan;
}

std::string FaultPlan::to_json() const {
  std::string out = "{\"seed\":" + std::to_string(seed) + ",\"actions\":[";
  for (std::size_t i = 0; i < actions.size(); ++i) {
    if (i > 0) out += ',';
    out += actions[i].to_json();
  }
  out += "]}";
  return out;
}

std::vector<std::pair<NodeId, NodeId>> FaultPlan::net_failed_links() const {
  // Replay into a set keyed the same way Simulator keys failed_ (so the
  // resolution of double fails / spurious restores matches the engine).
  std::set<std::pair<NodeId, NodeId>> down;
  for (const FaultAction& act : actions) {
    const auto key = std::minmax(act.a, act.b);
    if (act.kind == FaultKind::kLinkFail) {
      down.insert(key);
    } else if (act.kind == FaultKind::kLinkRestore) {
      down.erase(key);
    }
  }
  return {down.begin(), down.end()};
}

std::vector<topology::NodeId> FaultPlan::net_down_nodes() const {
  std::set<NodeId> down;
  for (const FaultAction& act : actions) {
    if (act.kind == FaultKind::kNodeCrash) {
      down.insert(act.a);
    } else if (act.kind == FaultKind::kNodeRestart) {
      down.erase(act.a);
    }
  }
  return {down.begin(), down.end()};
}

std::vector<topology::NodeId> FaultPlan::net_leaking_nodes() const {
  std::set<NodeId> leaking;
  for (const FaultAction& act : actions) {
    if (act.kind == FaultKind::kRouteLeakStart) {
      leaking.insert(act.a);
    } else if (act.kind == FaultKind::kRouteLeakStop) {
      leaking.erase(act.a);
    }
  }
  return {leaking.begin(), leaking.end()};
}

std::vector<OriginSpec> FaultPlan::net_rogue_origins() const {
  std::map<std::pair<Prefix, NodeId>, algebra::Attr> active;
  for (const FaultAction& act : actions) {
    if (act.kind == FaultKind::kHijackAnnounce) {
      active[{act.prefix, act.origin}] = act.attr;
    } else if (act.kind == FaultKind::kHijackWithdraw) {
      active.erase({act.prefix, act.origin});
    }
  }
  std::vector<OriginSpec> out;
  out.reserve(active.size());
  for (const auto& [key, attr] : active) {
    out.push_back({key.first, key.second, attr});
  }
  return out;
}

std::vector<OriginSpec> FaultPlan::surviving_origins(
    const std::vector<OriginSpec>& initial) const {
  std::map<std::pair<Prefix, NodeId>, bool> active;
  for (const OriginSpec& o : initial) active[{o.prefix, o.origin}] = true;
  for (const FaultAction& act : actions) {
    if (act.kind == FaultKind::kOriginWithdraw) {
      active[{act.prefix, act.origin}] = false;
    } else if (act.kind == FaultKind::kOriginAnnounce) {
      active[{act.prefix, act.origin}] = true;
    }
  }
  std::vector<OriginSpec> out;
  for (const OriginSpec& o : initial) {
    if (active[{o.prefix, o.origin}]) out.push_back(o);
  }
  return out;
}

FaultPlan generate_plan(const topology::Topology& topo,
                        const std::vector<OriginSpec>& origins,
                        const PlanParams& params, std::uint64_t seed) {
  util::Rng rng(seed);
  FaultPlan plan;
  plan.seed = seed;
  const auto links = topo.links();
  if (links.empty()) return plan;

  // Route leaks only divert traffic from transit nodes (a stub that leaks
  // re-exports to nobody below it); computed lazily so plans with
  // leak_prob == 0 pay nothing and stay bit-identical to older seeds.
  std::vector<NodeId> transit;
  if (params.leak_prob > 0.0) {
    for (NodeId u = 0; u < topo.node_count(); ++u) {
      if (topo.provider_count(u) > 0 && topo.customer_count(u) > 0) {
        transit.push_back(u);
      }
    }
  }

  for (std::size_t e = 0; e < params.events; ++e) {
    const double t =
        params.start + params.min_gap + rng.uniform() * params.horizon;
    const bool restore =
        params.restore_prob > 0.0 && rng.chance(params.restore_prob);
    const double restore_at =
        t + params.min_gap + rng.uniform() * params.restore_delay;

    if (params.origin_flap_prob > 0.0 && !origins.empty() &&
        rng.chance(params.origin_flap_prob)) {
      const OriginSpec& o = origins[rng.below(origins.size())];
      plan.actions.push_back({t, FaultKind::kOriginWithdraw, 0, 0, o.prefix,
                              o.origin, o.attr});
      if (restore) {
        plan.actions.push_back({restore_at, FaultKind::kOriginAnnounce, 0, 0,
                                o.prefix, o.origin, o.attr});
      }
      continue;
    }

    if (params.crash_prob > 0.0 && rng.chance(params.crash_prob)) {
      // Control-plane crash (session layer): volatile state loss at one
      // node, recovered through session re-establishment on restart.
      const NodeId u = static_cast<NodeId>(rng.below(topo.node_count()));
      plan.actions.push_back({t, FaultKind::kNodeCrash, u, 0, {}, 0, 0});
      if (restore) {
        plan.actions.push_back(
            {restore_at, FaultKind::kNodeRestart, u, 0, {}, 0, 0});
      }
      continue;
    }

    if (params.hijack_prob > 0.0 && !origins.empty() &&
        rng.chance(params.hijack_prob)) {
      // Origin hijack: a node other than the assigned origin announces a
      // more-specific of the victim's prefix, masquerading with the
      // victim's attribute so importers cannot tell by preference alone.
      const OriginSpec& o = origins[rng.below(origins.size())];
      NodeId adv = static_cast<NodeId>(rng.below(topo.node_count()));
      if (adv == o.origin) {
        adv = static_cast<NodeId>((adv + 1) % topo.node_count());
      }
      const Prefix target = o.prefix.length() < prefix::kAddressBits
                                ? o.prefix.child(0)
                                : o.prefix;
      plan.actions.push_back(
          {t, FaultKind::kHijackAnnounce, 0, 0, target, adv, o.attr});
      if (restore) {
        plan.actions.push_back(
            {restore_at, FaultKind::kHijackWithdraw, 0, 0, target, adv, o.attr});
      }
      continue;
    }

    if (params.leak_prob > 0.0 && rng.chance(params.leak_prob)) {
      // Route leak: a transit node re-exports provider/peer routes
      // downhill-to-uphill, violating the GR export rule (the algebra's
      // leak_attr is what reaches the wire).
      const NodeId u =
          transit.empty()
              ? static_cast<NodeId>(rng.below(topo.node_count()))
              : transit[rng.below(transit.size())];
      plan.actions.push_back({t, FaultKind::kRouteLeakStart, u, 0, {}, 0, 0});
      if (restore) {
        plan.actions.push_back(
            {restore_at, FaultKind::kRouteLeakStop, u, 0, {}, 0, 0});
      }
      continue;
    }

    if (params.node_fault_prob > 0.0 && rng.chance(params.node_fault_prob)) {
      // Whole-node outage: one correlated burst over the incident links.
      const NodeId u =
          static_cast<NodeId>(rng.below(topo.node_count()));
      for (const auto& nb : topo.neighbors(u)) {
        plan.actions.push_back({t, FaultKind::kLinkFail, u, nb.id, {}, 0, 0});
        if (restore) {
          plan.actions.push_back(
              {restore_at, FaultKind::kLinkRestore, u, nb.id, {}, 0, 0});
        }
      }
      continue;
    }

    // Correlated burst of `burst` distinct links at one timestamp.
    std::set<std::size_t> chosen;
    const std::size_t want = std::min(params.burst, links.size());
    while (chosen.size() < want) chosen.insert(rng.below(links.size()));
    for (const std::size_t idx : chosen) {
      const auto& l = links[idx];
      plan.actions.push_back({t, FaultKind::kLinkFail, l.a, l.b, {}, 0, 0});
      if (restore) {
        plan.actions.push_back(
            {restore_at, FaultKind::kLinkRestore, l.a, l.b, {}, 0, 0});
      }
    }
  }

  // Stable sort keeps the generation order among same-timestamp actions
  // (burst members fire in the order they were drawn).
  std::stable_sort(plan.actions.begin(), plan.actions.end(),
                   [](const FaultAction& x, const FaultAction& y) {
                     return x.t < y.t;
                   });
  return plan;
}

void schedule_plan(engine::Simulator& sim, const FaultPlan& plan) {
  for (const FaultAction& act : plan.actions) {
    switch (act.kind) {
      case FaultKind::kLinkFail:
        sim.inject(act.t, [&sim, a = act.a, b = act.b] { sim.fail_link(a, b); });
        break;
      case FaultKind::kLinkRestore:
        sim.inject(act.t,
                   [&sim, a = act.a, b = act.b] { sim.restore_link(a, b); });
        break;
      case FaultKind::kOriginWithdraw:
        sim.inject(act.t, [&sim, p = act.prefix, o = act.origin] {
          sim.withdraw_origin(p, o);
        });
        break;
      case FaultKind::kOriginAnnounce:
        sim.inject(act.t, [&sim, p = act.prefix, o = act.origin,
                           attr = act.attr] { sim.originate(p, o, attr); });
        break;
      case FaultKind::kNodeCrash:
        sim.inject(act.t, [&sim, n = act.a] { sim.crash_node(n); });
        break;
      case FaultKind::kNodeRestart:
        sim.inject(act.t, [&sim, n = act.a] { sim.restart_node(n); });
        break;
      case FaultKind::kRouteLeakStart:
        sim.inject(act.t, [&sim, n = act.a] { sim.start_route_leak(n); });
        break;
      case FaultKind::kRouteLeakStop:
        sim.inject(act.t, [&sim, n = act.a] { sim.stop_route_leak(n); });
        break;
      case FaultKind::kHijackAnnounce:
        sim.inject(act.t, [&sim, p = act.prefix, o = act.origin,
                           attr = act.attr] { sim.originate_rogue(p, o, attr); });
        break;
      case FaultKind::kHijackWithdraw:
        sim.inject(act.t, [&sim, p = act.prefix, o = act.origin] {
          sim.withdraw_rogue(p, o);
        });
        break;
      case FaultKind::kCount_:
        break;
    }
  }
}

}  // namespace dragon::chaos
