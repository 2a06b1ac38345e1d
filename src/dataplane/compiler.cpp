#include "dataplane/compiler.hpp"

#include <unordered_set>

#include "algebra/algebra.hpp"
#include "obs/span.hpp"

namespace dragon::dataplane {

using engine::RouteEntry;
using NodeId = engine::Simulator::NodeId;

namespace {

[[nodiscard]] std::uint64_t link_key(NodeId a, NodeId b) {
  const auto lo = static_cast<std::uint64_t>(a < b ? a : b);
  const auto hi = static_cast<std::uint64_t>(a < b ? b : a);
  return (hi << 32) | lo;
}

/// Failed-link set in the same undirected-key shape the simulator uses,
/// so the next-hop rule below can mirror trace()'s link_alive check.
[[nodiscard]] std::unordered_set<std::uint64_t> failed_set(
    const engine::Simulator& sim) {
  std::unordered_set<std::uint64_t> failed;
  for (const auto& [a, b] : sim.failed_links()) failed.insert(link_key(a, b));
  return failed;
}

/// The Simulator::trace() forwarding rule for one installed entry.
[[nodiscard]] fibcomp::NextHop next_hop_of(
    NodeId u, const RouteEntry& e,
    const std::unordered_set<std::uint64_t>& failed) {
  if (e.originated && !e.origin_paused) return fibcomp::kLocal;
  for (const auto& [v, attr] : e.rib_in) {
    // rib_in is sorted by neighbour id: the first match is the
    // deterministic lowest-id forwarding neighbour.
    if (attr == e.elected && !failed.contains(link_key(u, v))) {
      return fibcomp::next_hop_from_node(v);
    }
  }
  return fibcomp::kDrop;
}

[[nodiscard]] bool wanted(const RouteEntry& e, SnapshotKind kind) {
  if (e.elected == algebra::kUnreachable) return false;
  return kind == SnapshotKind::kPreDragon || !e.filtered;
}

}  // namespace

std::vector<fibcomp::Fib> fibs_from_simulator(const engine::Simulator& sim,
                                              SnapshotKind kind) {
  DRAGON_SPAN("dataplane", "fib_snapshot_all");
  const auto failed = failed_set(sim);
  std::vector<fibcomp::Fib> fibs(sim.topology_used().node_count());
  sim.for_each_route([&](NodeId u, const prefix::Prefix& p,
                         const RouteEntry& e) {
    if (!wanted(e, kind)) return;
    fibs[u].push_back({p, next_hop_of(u, e, failed)});
  });
  return fibs;
}

}  // namespace dragon::dataplane
