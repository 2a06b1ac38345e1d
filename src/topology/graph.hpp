// AS-level topology: nodes joined by provider-customer or peer-peer links
// (the network model of §2, specialised to inter-domain routing).
//
// Adjacency stores, per node, each neighbour together with what that
// neighbour *is to the node* (its provider, customer, or peer).  That is
// exactly the label of the learning relation in the GR algebra, so the
// route-computation layers read labels straight off the adjacency.
//
// Each node keeps two views of the same links:
//   * neighbors(): (id, rel) pairs in link-insertion order.  The engine
//     numbers its per-link labels and orders MRAI flushes by this order,
//     so it is part of every pinned digest and never regrouped;
//   * providers() | peers() | customers(): the neighbour ids grouped by
//     relation, each group in neighbors() order, as spans into one list
//     per node.  Loops that follow one relation (the GR sweep's phases,
//     upsets, customer cones, the cleaner) read only that group, and the
//     relation counts (customer_count, provider_count, is_stub, is_root)
//     are O(1).
// Every edit keeps the two in step.  A span is invalidated by a later
// edit to its node, like an iterator into a vector.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "algebra/gr_algebra.hpp"

namespace dragon::topology {

using NodeId = std::uint32_t;

/// Role of a neighbour relative to a node.
enum class Rel : std::uint8_t { kProvider = 0, kCustomer = 1, kPeer = 2 };

/// The GR label of the learning relation node<-neighbour.
[[nodiscard]] constexpr algebra::LabelId gr_label(Rel rel) noexcept {
  switch (rel) {
    case Rel::kProvider:
      return algebra::label(algebra::GrLabel::kFromProvider);
    case Rel::kCustomer:
      return algebra::label(algebra::GrLabel::kFromCustomer);
    case Rel::kPeer:
      return algebra::label(algebra::GrLabel::kFromPeer);
  }
  return algebra::label(algebra::GrLabel::kFromPeer);
}

struct Neighbor {
  NodeId id;
  Rel rel;
  friend bool operator==(const Neighbor&, const Neighbor&) = default;
};

class Topology {
 public:
  Topology() = default;
  explicit Topology(std::size_t nodes) : adj_(nodes), by_rel_(nodes) {}

  [[nodiscard]] std::size_t node_count() const noexcept { return adj_.size(); }
  [[nodiscard]] std::size_t link_count() const noexcept { return links_; }

  /// Appends a node and returns its id.
  NodeId add_node();

  /// Adds a two-way provider-customer link.
  void add_provider_customer(NodeId provider, NodeId customer);

  /// Adds a two-way peer-peer link.
  void add_peer_peer(NodeId a, NodeId b);

  /// Removes the (unique) link between a and b if present; returns whether
  /// a link was removed.
  bool remove_link(NodeId a, NodeId b);

  /// True if a and b are directly linked (any relationship).
  [[nodiscard]] bool linked(NodeId a, NodeId b) const;

  [[nodiscard]] std::span<const Neighbor> neighbors(NodeId u) const {
    return adj_[u];
  }

  /// u's neighbours of one relation, in neighbors() order.
  [[nodiscard]] std::span<const NodeId> providers(NodeId u) const {
    const RelList& r = by_rel_[u];
    return {r.ids.data(), r.peers_at};
  }
  [[nodiscard]] std::span<const NodeId> peers(NodeId u) const {
    const RelList& r = by_rel_[u];
    return {r.ids.data() + r.peers_at, r.customers_at - r.peers_at};
  }
  [[nodiscard]] std::span<const NodeId> customers(NodeId u) const {
    const RelList& r = by_rel_[u];
    return {r.ids.data() + r.customers_at, r.ids.size() - r.customers_at};
  }

  [[nodiscard]] std::size_t customer_count(NodeId u) const {
    return customers(u).size();
  }
  [[nodiscard]] std::size_t provider_count(NodeId u) const {
    return providers(u).size();
  }

  /// A stub has no customers (§5.1: 84% of ASs are stubs).
  [[nodiscard]] bool is_stub(NodeId u) const { return customer_count(u) == 0; }

  /// A root (tier-1-like node) has no providers.
  [[nodiscard]] bool is_root(NodeId u) const { return provider_count(u) == 0; }

  [[nodiscard]] std::vector<NodeId> stubs() const;
  [[nodiscard]] std::vector<NodeId> roots() const;

  /// All links, each reported once as (u, v, rel-of-v-to-u).
  struct Link {
    NodeId a;
    NodeId b;
    Rel b_is;  // what b is to a
  };
  [[nodiscard]] std::vector<Link> links() const;

  /// Number of nodes in u's customer cone (u itself included): everyone
  /// reachable from u by descending provider->customer links.
  [[nodiscard]] std::size_t customer_cone_size(NodeId u) const;

 private:
  /// One node's neighbour ids grouped providers | peers | customers.
  struct RelList {
    std::vector<NodeId> ids;
    std::uint32_t peers_at = 0;      // == provider count
    std::uint32_t customers_at = 0;  // == provider + peer count
  };

  /// Appends `id` to the `rel` group of u's list.
  void insert_rel(NodeId u, NodeId id, Rel rel);
  /// Removes `id` from u's list, whichever group holds it.
  void erase_rel(NodeId u, NodeId id);

  std::vector<std::vector<Neighbor>> adj_;
  std::vector<RelList> by_rel_;
  std::size_t links_ = 0;
};

}  // namespace dragon::topology
