#include "engine/node.hpp"

namespace dragon::engine {

using algebra::Attr;
using algebra::kUnreachable;

Attr NodeState::elect(const algebra::Algebra& alg, prefix::PrefixId id) {
  RouteEntry& entry = route(id);
  Attr best = kUnreachable;
  if (entry.originated && !entry.origin_paused) best = entry.origin_attr;
  for (const auto& [neighbor, attr] : entry.rib_in) {
    (void)neighbor;
    if (alg.prefer(attr, best)) best = attr;
  }
  entry.elected = best;
  return best;
}

bool NodeState::fib_active(prefix::PrefixId id) const {
  const RouteEntry* entry = find(id);
  return entry != nullptr && entry->elected != kUnreachable &&
         !entry->filtered;
}

void NodeState::clear() {
  routes.clear();
  for (NeighborIo& nio : io) nio = NeighborIo{};
}

}  // namespace dragon::engine
