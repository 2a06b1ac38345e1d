// Binary trie keyed by Prefix.
//
// The trie mirrors the structure the paper reasons about: the root is the
// empty prefix and each node's children extend it by one bit.  It supports
// exact lookup, longest-prefix match of an address (the forwarding rule of
// §2), and parent queries (the most specific strictly-covering prefix
// present, which is how DRAGON determines the parent of a prefix in §3.6).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "prefix/prefix.hpp"

namespace dragon::prefix {

template <typename T>
class PrefixTrie {
 public:
  PrefixTrie() : root_(std::make_unique<Node>()) {}

  PrefixTrie(const PrefixTrie& other) : root_(clone(other.root_.get())) {
    size_ = other.size_;
  }
  PrefixTrie& operator=(const PrefixTrie& other) {
    if (this != &other) {
      root_ = clone(other.root_.get());
      size_ = other.size_;
    }
    return *this;
  }
  PrefixTrie(PrefixTrie&&) noexcept = default;
  PrefixTrie& operator=(PrefixTrie&&) noexcept = default;

  /// Inserts or overwrites the value at `p`.  Returns true if newly inserted.
  bool insert(const Prefix& p, T value) {
    Node* node = descend_create(p);
    const bool fresh = !node->value.has_value();
    node->value = std::move(value);
    if (fresh) ++size_;
    return fresh;
  }

  /// Removes the entry at `p` if present; returns true if removed.  Interior
  /// nodes left childless and valueless are pruned.
  bool erase(const Prefix& p) {
    if (!erase_rec(root_.get(), p, 0)) return false;
    --size_;
    return true;
  }

  /// Exact-match lookup.
  [[nodiscard]] T* find(const Prefix& p) {
    Node* node = descend(p);
    return (node && node->value) ? &*node->value : nullptr;
  }
  [[nodiscard]] const T* find(const Prefix& p) const {
    return const_cast<PrefixTrie*>(this)->find(p);
  }

  [[nodiscard]] bool contains(const Prefix& p) const { return find(p) != nullptr; }

  /// Longest-prefix match for an address: the most specific stored prefix
  /// containing `addr`, or nullopt if none (no default route stored).
  [[nodiscard]] std::optional<std::pair<Prefix, const T*>> lookup(Address addr) const {
    const Node* node = root_.get();
    std::optional<std::pair<Prefix, const T*>> best;
    Prefix walk;
    if (node->value) best = {walk, &*node->value};
    for (int depth = 0; depth < kAddressBits; ++depth) {
      const int bit = static_cast<int>((addr >> (kAddressBits - 1 - depth)) & 1u);
      node = node->child[bit].get();
      if (node == nullptr) break;
      walk = walk.child(bit);
      if (node->value) best = {walk, &*node->value};
    }
    return best;
  }

  /// The most specific stored prefix that strictly covers `p` — DRAGON's
  /// "parent prefix" (§3.6) — or nullopt if `p` is parentless here.
  [[nodiscard]] std::optional<Prefix> parent_of(const Prefix& p) const {
    const Node* node = root_.get();
    std::optional<Prefix> best;
    Prefix walk;
    for (int depth = 0; depth < p.length(); ++depth) {
      if (node->value) best = walk;
      node = node->child[p.bit_at(depth)].get();
      if (node == nullptr) break;
      walk = walk.child(p.bit_at(depth));
    }
    return best;
  }

  /// Visits stored (prefix, value) pairs in trie pre-order.
  void visit(const std::function<void(const Prefix&, const T&)>& fn) const {
    visit_rec(root_.get(), Prefix{}, fn);
  }

  /// Visits stored entries covered by `p` (including `p` itself).
  void visit_subtree(const Prefix& p,
                     const std::function<void(const Prefix&, const T&)>& fn) const {
    const Node* node = root_.get();
    for (int depth = 0; depth < p.length(); ++depth) {
      node = node->child[p.bit_at(depth)].get();
      if (node == nullptr) return;
    }
    visit_rec(node, p, fn);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  void clear() {
    root_ = std::make_unique<Node>();
    size_ = 0;
  }

 private:
  struct Node {
    std::optional<T> value;
    std::unique_ptr<Node> child[2];
  };

  static std::unique_ptr<Node> clone(const Node* node) {
    auto copy = std::make_unique<Node>();
    copy->value = node->value;
    for (int b : {0, 1}) {
      if (node->child[b]) copy->child[b] = clone(node->child[b].get());
    }
    return copy;
  }

  Node* descend(const Prefix& p) const {
    Node* node = root_.get();
    for (int depth = 0; depth < p.length() && node; ++depth) {
      node = node->child[p.bit_at(depth)].get();
    }
    return node;
  }

  Node* descend_create(const Prefix& p) {
    Node* node = root_.get();
    for (int depth = 0; depth < p.length(); ++depth) {
      auto& next = node->child[p.bit_at(depth)];
      if (!next) next = std::make_unique<Node>();
      node = next.get();
    }
    return node;
  }

  // Returns true if the value at `p` existed and was removed.  Prunes empty
  // branches on the way back up via the caller resetting childless children.
  bool erase_rec(Node* node, const Prefix& p, int depth) {
    if (depth == p.length()) {
      if (!node->value) return false;
      node->value.reset();
      return true;
    }
    const int bit = p.bit_at(depth);
    Node* next = node->child[bit].get();
    if (next == nullptr) return false;
    if (!erase_rec(next, p, depth + 1)) return false;
    if (!next->value && !next->child[0] && !next->child[1]) {
      node->child[bit].reset();
    }
    return true;
  }

  static void visit_rec(const Node* node, const Prefix& at,
                        const std::function<void(const Prefix&, const T&)>& fn) {
    if (node->value) fn(at, *node->value);
    for (int b : {0, 1}) {
      if (node->child[b] && at.length() < kAddressBits) {
        visit_rec(node->child[b].get(), at.child(b), fn);
      }
    }
  }

  std::unique_ptr<Node> root_;
  std::size_t size_ = 0;
};

/// A set of prefixes (PrefixTrie with unit payload) with the query mix the
/// DRAGON layer needs.
class PrefixSet {
 public:
  bool insert(const Prefix& p) { return trie_.insert(p, Unit{}); }
  bool erase(const Prefix& p) { return trie_.erase(p); }
  [[nodiscard]] bool contains(const Prefix& p) const { return trie_.contains(p); }
  [[nodiscard]] std::optional<Prefix> parent_of(const Prefix& p) const {
    return trie_.parent_of(p);
  }
  [[nodiscard]] std::optional<Prefix> match(Address addr) const {
    auto hit = trie_.lookup(addr);
    if (!hit) return std::nullopt;
    return hit->first;
  }
  [[nodiscard]] std::size_t size() const noexcept { return trie_.size(); }
  [[nodiscard]] bool empty() const noexcept { return trie_.empty(); }
  void visit(const std::function<void(const Prefix&)>& fn) const {
    trie_.visit([&fn](const Prefix& p, const Unit&) { fn(p); });
  }
  /// Visits members covered by `p` (including `p` itself if present).
  void visit_subtree(const Prefix& p,
                     const std::function<void(const Prefix&)>& fn) const {
    trie_.visit_subtree(p, [&fn](const Prefix& q, const Unit&) { fn(q); });
  }

 private:
  struct Unit {};
  PrefixTrie<Unit> trie_;
};

}  // namespace dragon::prefix
