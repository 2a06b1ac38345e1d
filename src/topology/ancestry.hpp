// Cached provider-ancestor ("upset") queries.
//
// upset(u) is u plus every direct or indirect provider of u.  Two facts the
// library leans on (GR algebra):
//   * u elects a customer route for a prefix originated at t  iff
//     u is in upset(t)  (t is in u's customer cone);
//   * a prefix's parent must be originated by a member of upset(origin)
//     for the paper's dataset-cleaning rule (§5.1).
#pragma once

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "topology/graph.hpp"

namespace dragon::topology {

class AncestryCache {
 public:
  explicit AncestryCache(const Topology& topo) : topo_(topo) {}

  /// u itself and all its direct/indirect providers.
  const std::unordered_set<NodeId>& upset(NodeId u) {
    auto it = cache_.find(u);
    if (it != cache_.end()) return it->second;
    std::unordered_set<NodeId> set{u};
    std::vector<NodeId> frontier{u};
    while (!frontier.empty()) {
      const NodeId x = frontier.back();
      frontier.pop_back();
      for (const NodeId p : topo_.providers(x)) {
        if (set.insert(p).second) frontier.push_back(p);
      }
    }
    return cache_.emplace(u, std::move(set)).first->second;
  }

  /// True if `ancestor` is `of` itself or one of its providers' chain.
  bool is_ancestor(NodeId ancestor, NodeId of) {
    return upset(of).contains(ancestor);
  }

 private:
  const Topology& topo_;
  std::unordered_map<NodeId, std::unordered_set<NodeId>> cache_;
};

}  // namespace dragon::topology
