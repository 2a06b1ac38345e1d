// Internet-scale filtering efficiency (§5.2, Figure 8).
//
// Filtering efficiency of an AS = (entries before - entries after) /
// entries before, where "after" counts the optimal DRAGON state (footnote
// 3: forgone prefixes minus introduced aggregation prefixes, over the
// original prefix count).
//
// The computation exploits Theorem 4: with isotone policies the optimal
// forgo set for a prefix q with parent p is
//     E = { u != origin(p) : R[u;q] equals or is less preferred than R[u;p] }
// evaluated on the *standard* (unfiltered) stable state, which for GR is a
// pure function of the two origin sets.  Shortcuts:
//   * 83% of child prefixes share their parent's origin (§5.2); the two
//     states are then identical and E is "everyone but the origin";
//   * distinct (child-origin, parent) pairs repeat massively, so each is
//     evaluated once and weighted by its count.
//
// Each distinct pair takes one of two paths.
//   * Sparse (slack_x < 0, i.e. X = infinity, the paper's setting): the
//     premise reads GR classes only, and an origin set's classes differ
//     from "provider" only on its region (routecomp::GrRegionBuilder):
//     the origins' upset (customer) and that upset's peers (peer), tens
//     of nodes.  When every node elects a route for every origin, the
//     premise fails exactly at the nodes of the child's region whose
//     class beats the parent's, so a pair costs O(child's region): it is
//     forgone everywhere except at the parent's originators and those
//     nodes.  No dense sweep is built.
//   * Dense: one n-node sweep per origin and per aggregate, and the
//     premise compared at all n nodes.  It serves X >= 0 (the slack
//     ablation reads AS-path lengths) and every input that fails the
//     reachability check below, and it is the tests' oracle: slack_x =
//     65535 means X = infinity (no AS path is longer) on this path.
// Every node elects a route for every origin when the hierarchy's roots
// peer pairwise (topology::is_policy_connected) and every node descends
// from a root; dragon_efficiency checks both in O(V + E) per call.  The
// second condition matters: is_policy_connected also holds beside a
// rootless customer-provider cycle, whose nodes no outside origin
// reaches, and there the dense path keeps their entries.  Only slack_x
// and the input choose the path; both give identical results wherever
// the sparse path applies.
#pragma once

#include <cstdint>
#include <vector>

#include "addressing/assignment.hpp"
#include "dragon/aggregation.hpp"
#include "topology/graph.hpp"

namespace dragon::core {

struct EfficiencyOptions {
  /// Introduce aggregation prefixes for PI space (§3.7) before filtering.
  bool with_aggregation = false;
  /// AS-path slack X (§3.5): -1 compares GR classes only (X = infinity,
  /// the paper's evaluation setting); X >= 0 additionally requires the
  /// q-route's AS-path not to undercut the p-route's by more than X links.
  int slack_x = -1;
};

struct EfficiencyResult {
  std::size_t original_prefixes = 0;
  std::size_t aggregation_prefixes = 0;
  std::size_t aggregating_ases = 0;
  /// Number of aggregation prefixes each AS originates.
  std::vector<std::uint32_t> agg_per_as;
  /// Forwarding-table entries per AS after DRAGON (aggregates included).
  std::vector<std::uint64_t> fib_entries;
  /// Filtering efficiency per AS, in [0, 1].
  std::vector<double> efficiency;
  /// Upper bound on efficiency: prefixes that have a parent (hence are
  /// forgoable) minus introduced aggregates, over the original count.
  double max_efficiency = 0.0;
};

/// Computes per-AS DRAGON filtering efficiency on a GR topology.  Nodes
/// without a route to a parent keep its children (the premise needs a
/// parent route to fall back on).
[[nodiscard]] EfficiencyResult dragon_efficiency(
    const topology::Topology& topo, const addressing::Assignment& assignment,
    const EfficiencyOptions& options = {});

/// Partial deployment at Internet scale: only `deployed` nodes execute CR
/// (on the standard stable state, per Theorem 4 Claim 4 the premise stays
/// valid); non-deployed nodes keep every prefix but can become oblivious
/// when their only q-announcers filter.  Returns per-AS efficiency.
[[nodiscard]] std::vector<double> partial_deployment_efficiency(
    const topology::Topology& topo, const addressing::Assignment& assignment,
    const std::vector<char>& deployed);

}  // namespace dragon::core
