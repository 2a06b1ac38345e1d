#include "chaos/oracle.hpp"

#include <map>
#include <tuple>

namespace dragon::chaos {

using algebra::Attr;
using algebra::kUnreachable;
using engine::RouteEntry;
using topology::NodeId;
using Prefix = prefix::Prefix;

namespace {

constexpr std::size_t kMaxMismatches = 16;

/// Externally visible route state at one (node, prefix).  Vestigial
/// entries (withdrawn routes that left an empty RouteEntry behind)
/// normalise to the default-constructed value, which is also what a
/// missing entry compares as — the two simulators need not agree on
/// which empty entries exist.
struct Cell {
  std::uint32_t attr = kUnreachable;  // projected or raw elected attribute
  bool filtered = false;
  bool fib = false;
  bool originates = false;

  friend bool operator==(const Cell&, const Cell&) = default;
  [[nodiscard]] bool empty() const { return *this == Cell{}; }
};

using State = std::map<std::pair<NodeId, Prefix>, Cell>;

State collect(const engine::Simulator& sim, bool strict) {
  State state;
  sim.for_each_route([&](NodeId u, const Prefix& p, const RouteEntry& e) {
    Cell c;
    c.attr = e.elected == kUnreachable
                 ? kUnreachable
                 : (strict ? e.elected : sim.project_attr(e.elected));
    c.filtered = e.elected != kUnreachable && e.filtered;
    c.fib = e.elected != kUnreachable && !e.filtered;
    c.originates = e.originated && !e.origin_paused;
    if (!c.empty()) state[{u, p}] = c;
  });
  return state;
}

std::string describe(const std::pair<NodeId, Prefix>& key, const Cell& a,
                     const Cell& b) {
  const auto cell = [](const Cell& c) {
    return "(attr=" + std::to_string(c.attr) +
           " filtered=" + std::to_string(c.filtered) +
           " fib=" + std::to_string(c.fib) +
           " originates=" + std::to_string(c.originates) + ")";
  };
  return "node " + std::to_string(key.first) + " prefix \"" +
         key.second.to_bit_string() + "\": chaotic " + cell(a) +
         " != reference " + cell(b);
}

}  // namespace

std::string OracleResult::to_string() const {
  if (match) return "oracle: match";
  std::string out = "oracle: MISMATCH\n";
  for (const std::string& m : mismatches) {
    out += "  " + m + "\n";
  }
  return out;
}

OracleResult differential_check(
    const engine::Simulator& chaotic,
    const std::vector<std::pair<Prefix, Attr>>& watches,
    const OracleOptions& opts) {
  OracleResult result;

  engine::Config cfg = chaotic.config();
  cfg.faults = {};
  // Same topology and algebra objects: link labels are a function of the
  // topology's adjacency iteration order (Algebra::import_label), so both
  // simulators see bit-identical extend() maps.
  engine::Simulator ref(chaotic.topology_used(), chaotic.algebra_used(), cfg);

  // Two-phase reference: converge on the FULL topology first, then apply
  // the surviving failures and converge again.  Failing the links before
  // any origination would be subtly wrong for rule RA: the rule is
  // event-driven (it re-evaluates when a more-specific's election
  // changes), so an origin that NEVER had a route for a delegated
  // more-specific gets no event and never de-aggregates, whereas every
  // chaotic history reaches the same cut as "had the route, then lost
  // it" and does.  Phase one manufactures that shared history.
  for (const auto& [root, attr] : watches) ref.watch_aggregate(root, attr);
  for (const auto& rec : chaotic.origin_records()) {
    ref.originate(rec.root, rec.origin, rec.attr);
  }
  const WatchdogResult warm = run_to_quiescence(ref);
  if (!warm.quiescent) {
    result.mismatches.push_back(
        "reference full-topology phase did not converge:\n" +
        warm.diagnostics);
    return result;
  }
  for (const auto& [a, b] : chaotic.failed_links()) ref.fail_link(a, b);
  // Nodes still crashed at the cut are crashed in the reference too: the
  // converge below drains their peers' hold/sweep timers, so the quiescent
  // reference is "peers detected the silence and (GR) swept the stale
  // routes" — exactly what any chaotic crash history must also reach.
  for (const NodeId n : chaotic.down_nodes()) ref.crash_node(n);

  const WatchdogResult run = run_to_quiescence(ref);
  result.reference_quiescent = run.quiescent;
  if (!run.quiescent) {
    result.mismatches.push_back("reference run did not converge:\n" +
                                run.diagnostics);
    return result;
  }

  const State a = collect(chaotic, opts.strict_attrs);
  const State b = collect(ref, opts.strict_attrs);
  // Union compare: a key present on one side only mismatches against the
  // empty cell.
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() || ib != b.end()) {
    if (result.mismatches.size() >= kMaxMismatches) break;
    if (ib == b.end() || (ia != a.end() && ia->first < ib->first)) {
      result.mismatches.push_back(describe(ia->first, ia->second, Cell{}));
      ++ia;
    } else if (ia == a.end() || ib->first < ia->first) {
      result.mismatches.push_back(describe(ib->first, Cell{}, ib->second));
      ++ib;
    } else {
      if (!(ia->second == ib->second)) {
        result.mismatches.push_back(describe(ia->first, ia->second, ib->second));
      }
      ++ia;
      ++ib;
    }
  }
  result.match = result.mismatches.empty();
  return result;
}

}  // namespace dragon::chaos
