// Quiescent-state invariant checkers for the chaos-testing subsystem.
//
// After a fault schedule has played out and the simulator has drained,
// these checkers audit the global state against DRAGON's correctness
// claims (§3, Theorems 1-3) and against the engine's own bookkeeping:
//
//   * forwarding:   longest-prefix-match walks from every (sampled) node
//                   to every active origination address must deliver —
//                   no forwarding loops, and no node that installed a
//                   covering FIB entry may lead traffic into a black
//                   hole (route consistency of filtered prefixes);
//   * coherence:    FIB/RIB agreement — the elected attribute must be
//                   the best of Adj-RIB-In plus the local origination,
//                   no RIB-In candidate may survive over a failed link
//                   (session-reset semantics), fib_installed must equal
//                   elected-and-unfiltered, and the fib/filtered gauges
//                   must equal the recounted sums;
//   * cr_audit:     every filter flag must match a from-scratch
//                   evaluation of code CR against the locally known
//                   effective parent (§3.1, §3.6);
//   * ra_audit:     every origination must satisfy rule RA the way the
//                   engine claims: de-aggregated exactly when a
//                   delegated/violating more-specific forces it (§3.8),
//                   fragments matching deaggregate_excluding, and the
//                   announced attribute equal to the worst elected
//                   more-specific otherwise (§3.9 downgrade fixpoint);
//   * session_audit: (session layer enabled) every alive link between up
//                   nodes carries an established session both ways, no
//                   stale-retained routes survive quiescence (and the
//                   stale gauge reads zero), no restart deferral is left
//                   outstanding, no RIB-In candidate survives from a
//                   crashed neighbour, and a crashed node's volatile
//                   state is empty.
//
// The checkers are read-only and meaningful only at quiescence (transient
// states legitimately violate them while messages are in flight).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/simulator.hpp"
#include "prefix/prefix.hpp"
#include "topology/graph.hpp"

namespace dragon::chaos {

struct Violation {
  /// Which checker fired: "loop", "black_hole", "coherence", "cr", "ra",
  /// "session".
  std::string check;
  topology::NodeId node = 0;
  prefix::Prefix prefix;
  std::string detail;

  [[nodiscard]] std::string to_string() const;
};

/// Only the forwarding walk is optional: coherence, CR, RA and session
/// checks always run.  A report stops after 32 violations (the state is
/// broken either way; keep reports readable).
struct InvariantOptions {
  bool forwarding = true;
  /// Forwarding walks sample at most this many source nodes (stride
  /// sampling over the id space keeps the choice deterministic).
  std::size_t max_sources = static_cast<std::size_t>(-1);
};

struct InvariantReport {
  std::vector<Violation> violations;
  std::size_t checks_run = 0;

  [[nodiscard]] bool ok() const { return violations.empty(); }
  /// All violations, one per line (empty string when ok).
  [[nodiscard]] std::string to_string() const;
};

[[nodiscard]] InvariantReport check_invariants(
    const engine::Simulator& sim, const InvariantOptions& opts = {});

/// Blast radius of an adversary (route leaker or prefix hijacker): among
/// stride-sampled source nodes, how many forward traffic for `dst` along
/// a path that touches any adversary node — transit through a leaker, or
/// delivery at a hijacker — or that fails to deliver at all (leaks leave
/// stable forwarding loops).  Adversary nodes themselves are not sampled
/// as sources.  Deterministic (the same stride sampling as the forwarding
/// checker), so DRAGON-filtered vs plain-BGP runs compare like for like.
struct BlastRadius {
  /// Sources whose forwarding walk for dst touches an adversary node or
  /// never delivers.
  std::size_t affected = 0;
  /// Sources sampled (adversaries excluded).
  std::size_t sources = 0;
};
[[nodiscard]] BlastRadius measure_blast_radius(
    const engine::Simulator& sim, prefix::Address dst,
    const std::vector<topology::NodeId>& adversaries,
    std::size_t max_sources = static_cast<std::size_t>(-1));

}  // namespace dragon::chaos
