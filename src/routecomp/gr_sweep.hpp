// Fast stable-state computation for the GR algebra, one origin at a time.
//
// Because GR routing policies do not depend on the prefix (§4.1 assumption),
// the stable state of the vector-protocol for any prefix is a function of
// its origin AS only.  For one origin it is computable with a three-phase
// sweep, which is what makes Internet-scale evaluation (Fig. 8) tractable.
// Each phase walks only the relation list it follows (topology/graph.hpp):
//   1. customer routes: BFS from the origin along providers() (every AS
//      with the origin in its customer cone elects a customer route; BFS
//      depth = AS-path length);
//   2. peer routes: the peers() of that upset, for the ASs outside it;
//   3. provider routes: multi-source shortest-hop propagation down
//      customers(), seeded with the ASs routed by phases 1 and 2.
// Cost: O(V) to set up the per-node arrays, plus one step per routed AS
// and per link a phase follows: the upset's provider and peer links and
// every routed AS's customer links.  The provider and peer links of ASs
// outside the upset, most of them stubs' (§5.1: 84% of ASs are stubs),
// are never read.  Phase 3 queues only routed ASs with customers: a
// stub's class and length are final when set, so it is never pushed.
//
// The sweep also yields AS-path lengths (BGP's tie-breaker) and forwarding
// neighbours, both needed by the FIB-compression baseline and the slack-X
// ablation.  Its agreement with the generic solver is asserted by tests.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "algebra/gr_algebra.hpp"
#include "topology/graph.hpp"

namespace dragon::exec {
class ThreadPool;
}

namespace dragon::routecomp {

/// Attribute classes per node after convergence; kUnreachableClass for
/// nodes with no route (cannot happen in policy-connected topologies).
inline constexpr std::uint8_t kCustomer =
    static_cast<std::uint8_t>(algebra::GrClass::kCustomer);
inline constexpr std::uint8_t kPeer =
    static_cast<std::uint8_t>(algebra::GrClass::kPeer);
inline constexpr std::uint8_t kProvider =
    static_cast<std::uint8_t>(algebra::GrClass::kProvider);
inline constexpr std::uint8_t kUnreachableClass = 3;

inline constexpr std::uint16_t kInfiniteDistance = 0xFFFF;

struct GrStableState {
  /// Origin set (singleton normally; several for anycast aggregation
  /// prefixes, §3.7).
  std::vector<topology::NodeId> origins;
  /// Elected GR class per node (kCustomer at the origins themselves).
  std::vector<std::uint8_t> cls;
  /// AS-path length of the elected route per node (0 at the origins).
  std::vector<std::uint16_t> dist;

  [[nodiscard]] bool is_origin(topology::NodeId u) const {
    for (topology::NodeId o : origins) {
      if (o == u) return true;
    }
    return false;
  }
};

/// Computes the stable state for routes originated at `origin`.
[[nodiscard]] GrStableState gr_sweep(const topology::Topology& topo,
                                     topology::NodeId origin);

/// Per-prefix parallel solving: computes gr_sweep for every origin,
/// chunked over `pool` (nullptr runs sequentially).  Results are
/// index-aligned with `origins` and bit-identical for any thread count —
/// each sweep is an independent pure function of (topo, origin), so the
/// only parallel obligation is deterministic placement (DESIGN.md §8).
[[nodiscard]] std::vector<GrStableState> gr_sweep_batch(
    const topology::Topology& topo,
    std::span<const topology::NodeId> origins,
    exec::ThreadPool* pool = nullptr);

/// Anycast generalisation: all origins announce a customer route; each node
/// elects the best candidate.  `suppressed`, if given, marks nodes that
/// elect but do not announce (DRAGON filtering at partial deployment);
/// origins always announce.
[[nodiscard]] GrStableState gr_sweep_multi(
    const topology::Topology& topo,
    std::span<const topology::NodeId> origins,
    const std::vector<char>* suppressed = nullptr);

/// One node of an origin set's non-provider region (see GrRegionBuilder).
struct RegionNode {
  topology::NodeId id;
  std::uint8_t cls;  // kCustomer or kPeer
  friend bool operator==(const RegionNode&, const RegionNode&) = default;
};

/// The nodes whose class in gr_sweep_multi(topo, origins) is not
/// kProvider, without a dense sweep: the origins' upset (kCustomer: the
/// nodes with an origin in their customer cone) and the peers of that
/// upset outside it (kPeer).  Every other node elects a provider route,
/// or no route when no routed node sits above it.  The builder keeps one
/// n-entry mark array and clears only what a call marked, so a call costs
/// O(region + the upset's provider and peer links), never O(n).  Not
/// thread-safe.
class GrRegionBuilder {
 public:
  explicit GrRegionBuilder(const topology::Topology& topo);

  /// The region of `origins`, sorted by node id.
  [[nodiscard]] std::vector<RegionNode> build(
      std::span<const topology::NodeId> origins);

 private:
  const topology::Topology& topo_;
  /// kProvider everywhere between calls.
  std::vector<std::uint8_t> mark_;
};

/// All forwarding neighbours of `u` for this origin: neighbours whose
/// candidate route coincides with u's elected route (class and path
/// length), in neighbors() order.  Only the relation list u's class
/// learns over is read: customers for a customer route, peers for a peer
/// route, providers for a provider route.  Empty for the origin and for
/// unreachable nodes.
[[nodiscard]] std::vector<topology::NodeId> forwarding_neighbors(
    const topology::Topology& topo, const GrStableState& state,
    topology::NodeId u);

/// Deterministic single best forwarding neighbour (lowest node id among
/// forwarding_neighbors, found by the same one-list scan without building
/// the vector), modelling BGP's single best path.  Returns kNoNeighbor for
/// the origin / unreachable nodes.
inline constexpr topology::NodeId kNoNeighbor = 0xFFFFFFFFu;
[[nodiscard]] topology::NodeId best_forwarding_neighbor(
    const topology::Topology& topo, const GrStableState& state,
    topology::NodeId u);

}  // namespace dragon::routecomp
