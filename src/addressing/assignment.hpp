// Synthetic IP-prefix assignment aligned with the provider-customer
// hierarchy — the substitute for the CAIDA Routeviews prefix-to-AS dataset
// of §5.1 (see DESIGN.md).
//
// The generative process mirrors how address space is really handed out:
//   * regional registries own top-level pools; provider-independent (PI)
//     blocks are allocated contiguously (bump allocation with alignment)
//     from the pool of the AS's region, so aggregation prefixes exist;
//   * providers delegate (PA) sub-blocks of their own announced blocks to
//     customers, who announce them globally (multi-homing makes that
//     necessary), creating child prefixes with a different origin;
//   * ASs de-aggregate their own blocks for traffic engineering, creating
//     child prefixes with the same origin (83% of children in the paper's
//     dataset share the parent's origin);
//   * the number of prefixes an AS announces is Pareto-heavy-tailed
//     (paper: median 2, p95 33, p99 159).
//
// The module also implements the paper's dataset-cleaning rules: drop
// prefixes originated by multiple ASs, and drop prefixes whose parent is
// not originated by the same AS or by a direct/indirect provider.
#pragma once

#include <cstdint>
#include <vector>

#include "prefix/prefix.hpp"
#include "prefix/prefix_forest.hpp"
#include "topology/generator.hpp"
#include "util/rng.hpp"

namespace dragon::addressing {

struct AssignmentParams {
  /// Pareto tail index for per-AS prefix counts; 0.86 reproduces the
  /// paper's median 2 / p95 33 / p99 159.
  double pareto_alpha = 0.86;
  std::uint32_t max_prefixes_per_as = 1000;
  /// Probability that a stub's primary block is PI (from the registry pool)
  /// rather than PA (delegated by a provider).
  double stub_pi_probability = 0.45;
  /// Probability that an extra announcement is a fresh block rather than a
  /// traffic-engineering de-aggregate of an existing one.  0.72 reproduces
  /// the paper's ~50% parentless prefixes with ~83% of children sharing
  /// the parent's origin.
  double extra_block_probability = 0.72;
  /// Probability that a registry lane slot is reserved but never
  /// announced; holes bound how much PI space aggregation prefixes can
  /// cover (tuned so the with-aggregation efficiency ceiling lands near
  /// the paper's 79%).
  double pi_hole_probability = 0.15;
  /// Fraction of announcements that are injected dataset anomalies
  /// (multi-origin prefixes, children delegated outside the provider
  /// chain); 0 generates a clean-by-construction dataset.
  double anomaly_rate = 0.0;
  std::uint64_t seed = 2;
};

struct Assignment {
  /// Announced prefixes; prefixes[i] is originated by origin[i].  The same
  /// prefix may appear twice only when anomalies were injected.
  std::vector<prefix::Prefix> prefixes;
  std::vector<topology::NodeId> origin;
  /// ASs that got no primary block because their registry pool ran dry.
  /// Set by generate_assignment only; 0 at the benches' default scale.
  std::size_t pool_exhausted = 0;

  [[nodiscard]] std::size_t size() const noexcept { return prefixes.size(); }
};

/// Generates an assignment over a generated topology.  Deterministic in
/// params.seed.
[[nodiscard]] Assignment generate_assignment(
    const topology::GeneratedTopology& topo, const AssignmentParams& params);

struct AssignmentCleanReport {
  std::size_t original = 0;
  std::size_t removed_multi_origin = 0;
  std::size_t removed_foreign_parent = 0;
  std::size_t kept = 0;
};

/// Applies the paper's cleaning rules against a topology.  Iterates until
/// stable, since removing a parent can re-parent its children.
[[nodiscard]] Assignment clean_assignment(const topology::Topology& topo,
                                          const Assignment& input,
                                          AssignmentCleanReport* report = nullptr);

/// Per-AS announcement-count distribution summary.
struct AssignmentStats {
  std::size_t total_prefixes = 0;
  std::size_t parentless = 0;
  std::size_t with_parent = 0;
  std::size_t same_origin_as_parent = 0;
  double median_per_as = 0.0;
  double p95_per_as = 0.0;
  double p99_per_as = 0.0;
  std::size_t non_trivial_trees = 0;
  double median_tree_size = 0.0;
};

[[nodiscard]] AssignmentStats compute_stats(const Assignment& assignment,
                                            std::size_t node_count);

}  // namespace dragon::addressing
