// Adversarial scenario engine: parameterised scenario families.
//
// One spec string selects a family and its knobs —
//
//   "divergence:variant=bad,ring=3"   policy-dispute gadgets (DISAGREE /
//                                     BAD-GADGET, algebra/gadgets.hpp) run
//                                     under the classifying watchdog; the
//                                     classification is cross-checked
//                                     against the Daggitt-Griffin
//                                     convergence criteria
//                                     (algebra/property_check.hpp): a
//                                     strictly-increasing algebra must be
//                                     classified kConverged.
//   "leak:events=6"                   route leaks — transit nodes re-export
//                                     provider/peer routes masqueraded as
//                                     customer routes (Algebra::leak_attr);
//                                     twin runs (DRAGON filtering vs plain
//                                     BGP) measure the leaker's blast
//                                     radius at quiescence.
//   "hijack:prefixes=8"               origin hijacks — a rogue node
//                                     originates a more-specific of a
//                                     victim prefix; the twin blast radii
//                                     count nodes whose forwarding walk
//                                     ends at the hijacker (DRAGON's code
//                                     CR filters the covered more-specific
//                                     wherever the victim's covering route
//                                     is no worse, so its radius must not
//                                     exceed plain BGP's).
//   "damping:flaps=12"                route-flap damping sensitivity —
//                                     an origin-flap storm run twice
//                                     (damping on/off), comparing update
//                                     volume and suppression activity.
//   "jitter:jitter=0.5"               MRAI-jitter sensitivity — a link
//                                     fault schedule under a given jitter
//                                     fraction, with the full invariant
//                                     and oracle audits.
//
// Every scenario is a pure function of (spec, seed): outcomes are
// replayable from the printed plan JSON and bit-identical for any sweep
// thread count (ScenarioOutcome::digest is the invariance witness).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "chaos/invariants.hpp"
#include "chaos/watchdog.hpp"
#include "topology/graph.hpp"

namespace dragon::exec {
class ThreadPool;
}

namespace dragon::chaos {

enum class ScenarioFamily : std::uint8_t {
  kDivergence,
  kLeak,
  kHijack,
  kDamping,
  kJitter,
};

[[nodiscard]] const char* to_string(ScenarioFamily f) noexcept;

struct ScenarioSpec {
  ScenarioFamily family = ScenarioFamily::kDivergence;

  // --- divergence ----------------------------------------------------------
  /// Gadget variant: "bad" (odd dispute ring, must oscillate), "disagree"
  /// (even dispute ring, multiple stable states — must not livelock),
  /// "benign" (strictly-increasing table algebra, must converge), "gr"
  /// (GR path algebra on the same ring, must converge).
  std::string variant = "bad";
  /// Ring size (gadget nodes excluding the origin).
  std::size_t ring = 3;

  // --- generated-topology families (leak/hijack/damping/jitter) -----------
  std::size_t tier1 = 3;
  std::size_t transit = 18;
  std::size_t stubs = 90;
  /// Originations (stride-sampled stub nodes, one /8 each).
  std::size_t prefixes = 6;
  /// Fault events per schedule.
  std::size_t events = 4;
  double horizon = 30.0;
  double mrai = 1.0;
  /// P(adversarial action is later reverted).  0 keeps leaks/hijacks
  /// active at quiescence, where the blast radius is measured.
  double restore_prob = 0.0;

  // --- damping -------------------------------------------------------------
  double damp_penalty = 1.0;
  double damp_suppress = 2.5;
  double damp_reuse = 0.8;
  double damp_half_life = 4.0;

  // --- jitter --------------------------------------------------------------
  /// MRAI jitter fraction for the jitter family.
  double jitter = 0.25;

  // --- watchdog ------------------------------------------------------------
  /// Event budget for divergence classification (oscillators burn the
  /// whole budget) and sampling cadence.  The cadence defaults to an odd
  /// prime: protocol oscillations have even event-periods (one
  /// announce/withdraw pair per participant per half-cycle), and a cadence
  /// that divides the period samples a constant digest — the aliasing
  /// mislabels the oscillation as kLivelock (see watchdog.hpp).
  std::size_t max_events = 60'000;
  std::size_t sample_every = 13;

  /// Parses "family" or "family:key=val,key=val,...".  Unknown families or
  /// keys, or malformed values, return nullopt.
  [[nodiscard]] static std::optional<ScenarioSpec> parse(std::string_view text);

  /// Canonical spec string ("family:key=val,..." with family-relevant keys).
  [[nodiscard]] std::string to_string() const;
};

struct ScenarioOutcome {
  std::uint64_t seed = 0;
  bool ok = false;

  // Divergence family.
  Quiescence classification = Quiescence::kConverged;
  std::size_t period = 0;
  std::vector<topology::NodeId> participants;
  /// The algebra satisfies the strict-increase convergence criteria (the
  /// classifier is then required to report kConverged).
  bool criteria_convergent = false;

  // Adversarial families (leak/hijack): twin blast radii.
  BlastRadius blast_dragon;
  BlastRadius blast_bgp;
  std::size_t adversaries = 0;

  // Damping family: twin update volumes.
  std::uint64_t updates_damped = 0;
  std::uint64_t updates_undamped = 0;
  std::uint64_t suppressions = 0;

  // Jitter family (and general): update volume and recovery time.
  std::uint64_t updates = 0;
  double recovery = 0.0;

  /// Replayable fault plan (empty for the divergence family, which has no
  /// fault schedule — the gadget itself is the adversity).
  std::string plan_json;
  /// Failure detail; empty when ok.
  std::string diagnostics;

  /// Order-independent fingerprint of everything above except
  /// diagnostics; equal outcomes hash equal, so a sweep's digest is
  /// invariant under thread count.
  [[nodiscard]] std::uint64_t digest() const;
};

/// Runs one scenario instance for one seed.  Pure function of (spec, seed).
[[nodiscard]] ScenarioOutcome run_scenario(const ScenarioSpec& spec,
                                           std::uint64_t seed);

/// Runs every seed's scenario over `pool` (nullptr: sequential); outcomes
/// are index-aligned with `seeds` and identical for any thread count.
[[nodiscard]] std::vector<ScenarioOutcome> run_scenario_sweep(
    const ScenarioSpec& spec, std::span<const std::uint64_t> seeds,
    exec::ThreadPool* pool = nullptr);

}  // namespace dragon::chaos
