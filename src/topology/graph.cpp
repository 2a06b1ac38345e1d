#include "topology/graph.hpp"

#include <algorithm>
#include <cassert>

namespace dragon::topology {

NodeId Topology::add_node() {
  adj_.emplace_back();
  by_rel_.emplace_back();
  return static_cast<NodeId>(adj_.size() - 1);
}

void Topology::insert_rel(NodeId u, NodeId id, Rel rel) {
  RelList& r = by_rel_[u];
  const std::size_t group_end = rel == Rel::kProvider ? r.peers_at
                                : rel == Rel::kPeer   ? r.customers_at
                                                      : r.ids.size();
  r.ids.insert(r.ids.begin() + static_cast<std::ptrdiff_t>(group_end), id);
  if (rel == Rel::kProvider) ++r.peers_at;
  if (rel != Rel::kCustomer) ++r.customers_at;
}

void Topology::erase_rel(NodeId u, NodeId id) {
  RelList& r = by_rel_[u];
  const auto it = std::find(r.ids.begin(), r.ids.end(), id);
  assert(it != r.ids.end());
  const auto at = static_cast<std::size_t>(it - r.ids.begin());
  r.ids.erase(it);
  // A group boundary after the erased entry moves back by one.
  if (at < r.peers_at) --r.peers_at;
  if (at < r.customers_at) --r.customers_at;
}

void Topology::add_provider_customer(NodeId provider, NodeId customer) {
  assert(provider < adj_.size() && customer < adj_.size());
  assert(provider != customer);
  assert(!linked(provider, customer));
  adj_[provider].push_back({customer, Rel::kCustomer});
  adj_[customer].push_back({provider, Rel::kProvider});
  insert_rel(provider, customer, Rel::kCustomer);
  insert_rel(customer, provider, Rel::kProvider);
  ++links_;
}

void Topology::add_peer_peer(NodeId a, NodeId b) {
  assert(a < adj_.size() && b < adj_.size());
  assert(a != b);
  assert(!linked(a, b));
  adj_[a].push_back({b, Rel::kPeer});
  adj_[b].push_back({a, Rel::kPeer});
  insert_rel(a, b, Rel::kPeer);
  insert_rel(b, a, Rel::kPeer);
  ++links_;
}

bool Topology::remove_link(NodeId a, NodeId b) {
  auto drop = [this](NodeId from, NodeId to) {
    auto& vec = adj_[from];
    auto it = std::find_if(vec.begin(), vec.end(),
                           [to](const Neighbor& n) { return n.id == to; });
    if (it == vec.end()) return false;
    erase_rel(from, to);
    vec.erase(it);
    return true;
  };
  if (!drop(a, b)) return false;
  drop(b, a);
  --links_;
  return true;
}

bool Topology::linked(NodeId a, NodeId b) const {
  const auto& vec = adj_[a];
  return std::any_of(vec.begin(), vec.end(),
                     [b](const Neighbor& n) { return n.id == b; });
}

std::vector<NodeId> Topology::stubs() const {
  std::vector<NodeId> out;
  for (NodeId u = 0; u < adj_.size(); ++u) {
    if (is_stub(u)) out.push_back(u);
  }
  return out;
}

std::vector<NodeId> Topology::roots() const {
  std::vector<NodeId> out;
  for (NodeId u = 0; u < adj_.size(); ++u) {
    if (is_root(u)) out.push_back(u);
  }
  return out;
}

std::vector<Topology::Link> Topology::links() const {
  std::vector<Link> out;
  out.reserve(links_);
  for (NodeId u = 0; u < adj_.size(); ++u) {
    for (const Neighbor& n : adj_[u]) {
      // Report each undirected link once: from the provider side for
      // provider-customer links, from the lower id for peer links.
      if (n.rel == Rel::kCustomer || (n.rel == Rel::kPeer && u < n.id)) {
        out.push_back({u, n.id, n.rel});
      }
    }
  }
  return out;
}

std::size_t Topology::customer_cone_size(NodeId u) const {
  std::vector<char> seen(adj_.size(), 0);
  std::vector<NodeId> frontier{u};
  seen[u] = 1;
  std::size_t count = 0;
  while (!frontier.empty()) {
    const NodeId x = frontier.back();
    frontier.pop_back();
    ++count;
    for (const NodeId c : customers(x)) {
      if (!seen[c]) {
        seen[c] = 1;
        frontier.push_back(c);
      }
    }
  }
  return count;
}

}  // namespace dragon::topology
