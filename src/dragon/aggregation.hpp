// Aggregation-prefix origination for the Internet hierarchy (§3.7).
//
// Candidates come from the binary-trie tiling algorithm
// (prefix/aggregation_tree.hpp).  Under GR policies, an AS may originate an
// aggregation prefix only if it elects customer routes for every covered
// prefix — equivalently, if every covered origin lies in its customer cone
// — which makes the origination satisfy rule RA with a customer-attribute
// announcement.  Several ASs may originate the same aggregation prefix
// (anycast, Fig. 5); DRAGON elects the *minimal* ones in the hierarchy so
// covered prefixes are filtered as close to their origins as possible
// (§5.2: "their origin ASs are as close as possible ... to the origin ASs
// of the covered prefixes").
#pragma once

#include <vector>

#include "addressing/assignment.hpp"
#include "prefix/aggregation_tree.hpp"
#include "topology/ancestry.hpp"

namespace dragon::core {

struct AggregationPrefix {
  prefix::Prefix aggregate;
  /// Indices into the assignment of the parentless prefixes it covers.
  std::vector<std::int32_t> covered;
  /// ASs that originate the aggregate (anycast set, no repeats).  Empty
  /// only when each AS electing customer routes for every covered prefix
  /// is a strict provider-ancestor of another, which takes a
  /// customer-provider cycle.
  std::vector<topology::NodeId> originators;
};

/// Finds all aggregation prefixes and their originator sets for the
/// parentless prefixes of `assignment`.  Candidates with no AS electing
/// customer routes for every covered prefix are dropped (the case §5.2
/// notes as the gap to optimized FIB compression).
[[nodiscard]] std::vector<AggregationPrefix> elect_aggregation_prefixes(
    const topology::Topology& topo, const addressing::Assignment& assignment);

}  // namespace dragon::core
