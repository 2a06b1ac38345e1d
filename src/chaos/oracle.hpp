// Differential convergence oracle.
//
// The GR-family algebras used throughout the reproduction are strictly
// monotone, so the stable state is unique: whatever path a convergence
// run takes — whatever order failures, restorations, flaps, message
// losses, duplicates and reorderings interleave in — the quiescent
// outcome must be *identical* to a from-scratch run on the surviving
// network.  differential_check() builds that reference: a fresh
// simulator on the same topology/algebra/config with message faults
// zeroed, the surviving originations injected in record order and
// converged on the FULL topology, and only then the net-failed links
// cut and the network re-converged.  The two-phase shape matters: rule
// RA is event-driven, so an origin that never learned a route for a
// delegated more-specific would never de-aggregate in a "fail the links
// first" reference, while every chaotic history that reaches the same
// cut has lost the route and has.  It then compares the full (node,
// prefix) route state of both simulators and reports every divergence.
//
// The chaotic simulator must be quiescent; comparing mid-convergence
// states diverges trivially (tests use that as the oracle's negative
// control).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "chaos/watchdog.hpp"
#include "engine/simulator.hpp"

namespace dragon::chaos {

struct OracleOptions {
  /// Compare raw attribute encodings instead of the projected
  /// L-attribute.  Exact for GR-family algebras (the stable state is
  /// unique); leave off for algebras where distinct-but-equivalent
  /// encodings can be elected.
  bool strict_attrs = true;
};

struct OracleResult {
  bool match = false;
  /// False when the reference run itself tripped the watchdog (its
  /// diagnostics are appended to `mismatches`).
  bool reference_quiescent = false;
  std::vector<std::string> mismatches;

  [[nodiscard]] std::string to_string() const;
};

/// Compares `chaotic` (already quiescent, after an arbitrary fault
/// schedule) against a from-scratch run on the surviving network,
/// converged under the watchdog's default budgets; reports at most 16
/// divergences.
/// `watches` re-registers any manual watch_aggregate() roots; automatic
/// watches from surviving originations are recreated by origination.
[[nodiscard]] OracleResult differential_check(
    const engine::Simulator& chaotic,
    const std::vector<std::pair<prefix::Prefix, algebra::Attr>>& watches = {},
    const OracleOptions& opts = {});

}  // namespace dragon::chaos
