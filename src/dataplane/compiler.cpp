#include "dataplane/compiler.hpp"

#include "algebra/algebra.hpp"
#include "obs/span.hpp"

namespace dragon::dataplane {

using engine::RouteEntry;
using NodeId = engine::Simulator::NodeId;

namespace {

/// The Simulator::trace() forwarding rule for one installed entry.
[[nodiscard]] fibcomp::NextHop next_hop_of(const engine::Simulator& sim,
                                           NodeId u, const RouteEntry& e) {
  if (e.originated && !e.origin_paused) return fibcomp::kLocal;
  const std::optional<NodeId> v = sim.forwarding_neighbor(u, e);
  return v ? fibcomp::next_hop_from_node(*v) : fibcomp::kDrop;
}

[[nodiscard]] bool wanted(const RouteEntry& e, SnapshotKind kind) {
  if (e.elected == algebra::kUnreachable) return false;
  return kind == SnapshotKind::kPreDragon || !e.filtered;
}

}  // namespace

std::vector<fibcomp::Fib> fibs_from_simulator(const engine::Simulator& sim,
                                              SnapshotKind kind) {
  DRAGON_SPAN("dataplane", "fib_snapshot_all");
  std::vector<fibcomp::Fib> fibs(sim.topology_used().node_count());
  sim.for_each_route([&](NodeId u, const prefix::Prefix& p,
                         const RouteEntry& e) {
    if (!wanted(e, kind)) return;
    fibs[u].push_back({p, next_hop_of(sim, u, e)});
  });
  return fibs;
}

}  // namespace dragon::dataplane
