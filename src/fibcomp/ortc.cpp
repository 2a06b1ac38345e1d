#include "fibcomp/ortc.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <vector>

namespace dragon::fibcomp {

using prefix::Prefix;

namespace {

// ---------------------------------------------------------------------------
// The binary trie both compressors walk: one node per prefix bit on the way
// to each entry, stored in one vector and linked by 32-bit indices.  Node 0
// is the root; no node links to it, so a child index of 0 means "no child".
// ---------------------------------------------------------------------------

struct Node {
  std::uint32_t child[2] = {0, 0};
  NextHop entry = 0;
  bool has_entry = false;
  /// ORTC's candidate next-hop set: the sorted run
  /// [set_begin, set_begin + set_size) of the call's hop pool.
  std::uint32_t set_begin = 0;
  std::uint32_t set_size = 0;
};

/// Node ids and hop-pool offsets are 32-bit; a trie or pool that outgrows
/// them is refused instead of wrapping.
std::uint32_t to_u32(std::size_t index) {
  if (index > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("fibcomp: trie index exceeds 32 bits");
  }
  return static_cast<std::uint32_t>(index);
}

struct Trie {
  std::vector<Node> nodes;
  std::size_t entries = 0;  // nodes holding an entry

  /// Rebuilds the trie of `fib` in place, keeping the vector's capacity.
  /// The one insert routine of both compressors: a later duplicate prefix
  /// overwrites an earlier one.
  void build(const Fib& fib) {
    nodes.clear();
    entries = 0;
    // Routing tables take ~1.7 nodes per entry, ORTC's normalisation
    // included.
    nodes.reserve(2 * fib.size() + 1);
    nodes.emplace_back();
    for (const FibEntry& e : fib) {
      std::uint32_t at = 0;
      for (int depth = 0; depth < e.prefix.length(); ++depth) {
        const int bit = e.prefix.bit_at(depth);
        if (nodes[at].child[bit] == 0) {
          const std::uint32_t fresh = add_node();
          nodes[at].child[bit] = fresh;
        }
        at = nodes[at].child[bit];
      }
      if (!nodes[at].has_entry) ++entries;
      nodes[at].has_entry = true;
      nodes[at].entry = e.next_hop;
    }
  }

  /// Appends an entry-less leaf; invalidates references into `nodes`.
  std::uint32_t add_node() {
    const std::uint32_t id = to_u32(nodes.size());
    nodes.emplace_back();
    return id;
  }
};

// ---------------------------------------------------------------------------
// Conservative (remove-only) compression.
// ---------------------------------------------------------------------------

/// Drops redundant entries (same next hop as the effective covering entry)
/// and shadowed entries (range fully covered by kept more-specifics),
/// clearing them from the trie.  Returns whether the node's range is fully
/// matched by kept entries in the subtree; emits kept entries, children
/// before their node.
bool compact_rec(std::vector<Node>& nodes, std::uint32_t id,
                 NextHop inherited, const Prefix& at, Fib& out) {
  Node& node = nodes[id];  // the pass adds no node, so this stays valid
  const NextHop effective = node.has_entry ? node.entry : inherited;
  const bool left = node.child[0] != 0 &&
                    compact_rec(nodes, node.child[0], effective,
                                at.child(0), out);
  const bool right = node.child[1] != 0 &&
                     compact_rec(nodes, node.child[1], effective,
                                 at.child(1), out);
  const bool covered_by_children = left && right;
  if (!node.has_entry) return covered_by_children;
  // Locally originated space is never compressed away: the router needs
  // the specific entries to deliver its own customers' traffic (DRAGON's
  // origin-of-p exclusion has the same role).  Otherwise a shadowed entry
  // (covered by its children) or a redundant one (same hop as inherited,
  // and then not covered) is dropped.
  if (node.entry != kLocal &&
      (covered_by_children || node.entry == inherited)) {
    node.has_entry = false;
    return covered_by_children;
  }
  out.push_back({at, node.entry});
  return true;
}

// ---------------------------------------------------------------------------
// The shared workspace, and ORTC's passes on it.
// ---------------------------------------------------------------------------

/// The working memory of both compressors: the trie, and for ORTC one pool
/// holding every node's candidate set as a sorted run plus the scratch run
/// a merge is built in (children's runs stay in the pool, which may
/// reallocate on append).  ORTC's passes are its member functions.
struct Workspace {
  Trie trie;
  std::vector<NextHop> pool;
  std::vector<NextHop> scratch;

  /// Builds the trie of `fib` and empties the pool.
  void build(const Fib& fib) {
    trie.build(fib);
    pool.clear();
    pool.reserve(trie.nodes.capacity());  // one run per node, mostly 1 hop
  }

  /// Appends [first, last) to the pool as node `id`'s candidate set.
  void store_set(std::uint32_t id, const NextHop* first,
                 const NextHop* last) {
    Node& node = trie.nodes[id];
    node.set_begin = to_u32(pool.size());
    node.set_size = to_u32(static_cast<std::size_t>(last - first));
    pool.insert(pool.end(), first, last);
  }

  const NextHop* set_of(const Node& node) const {
    return pool.data() + node.set_begin;
  }

  /// Passes 1+2 fused: complete the trie (every node 0 or 2 children,
  /// missing children become leaves inheriting the nearest entry) and
  /// compute candidate sets bottom-up: the intersection of the children's
  /// sets if non-empty, else their union.
  void normalize_and_merge(std::uint32_t id, NextHop inherited) {
    std::vector<Node>& nodes = trie.nodes;
    const NextHop effective =
        nodes[id].has_entry ? nodes[id].entry : inherited;
    if (nodes[id].child[0] == 0 && nodes[id].child[1] == 0) {
      store_set(id, &effective, &effective + 1);
      return;
    }
    for (int b : {0, 1}) {
      if (nodes[id].child[b] == 0) {
        const std::uint32_t fresh = trie.add_node();
        nodes[id].child[b] = fresh;
      }
      normalize_and_merge(nodes[id].child[b], effective);
    }
    const Node& l = nodes[nodes[id].child[0]];
    const Node& r = nodes[nodes[id].child[1]];
    const NextHop* a = set_of(l);
    const NextHop* b = set_of(r);
    scratch.clear();
    std::set_intersection(a, a + l.set_size, b, b + r.set_size,
                          std::back_inserter(scratch));
    if (scratch.empty()) {
      std::set_union(a, a + l.set_size, b, b + r.set_size,
                     std::back_inserter(scratch));
    }
    store_set(id, scratch.data(), scratch.data() + scratch.size());
  }

  /// Pass 3: top-down selection; emits an entry when the parent's choice is
  /// not in the node's candidate set.  kDrop is the implicit root default,
  /// so a chosen kDrop only materialises as a discard entry below a real
  /// hop.
  void select(std::uint32_t id, NextHop parent_choice, const Prefix& at,
              Fib& out) const {
    const Node& node = trie.nodes[id];
    const NextHop* set = set_of(node);
    NextHop choice = parent_choice;
    if (!std::binary_search(set, set + node.set_size, parent_choice)) {
      choice = set[0];  // deterministic: smallest id
      out.push_back({at, choice});
    }
    if (node.child[0] != 0) {
      select(node.child[0], choice, at.child(0), out);
      select(node.child[1], choice, at.child(1), out);
    }
  }
};

/// One workspace per thread, reused by every call of either compressor, so
/// a call allocates only its output.  The buffers keep the capacity of the
/// largest FIB the thread has compressed; freeing them after every call
/// would leave multi-megabyte holes in the heap between the outputs
/// callers keep.
Workspace& workspace() {
  thread_local Workspace w;
  return w;
}

}  // namespace

Fib compress_conservative(const Fib& input) {
  // Dropping a shadowed entry can expose fresh redundancy underneath it
  // (children now inherit from a higher entry with their own next hop), so
  // iterate the pass to a fixpoint.  Each pass clears what it drops; an
  // entry-less subtree answers "not covered" and emits nothing, as an
  // absent child does, so the next pass over the same trie sees what a
  // trie rebuilt from the pass's output would hold.
  Trie& trie = workspace().trie;
  trie.build(input);
  Fib out;
  out.reserve(trie.entries);
  for (std::size_t entries = trie.entries;; entries = out.size()) {
    out.clear();
    compact_rec(trie.nodes, 0, kDrop, Prefix{}, out);
    if (out.size() == entries) return out;
  }
}

Fib compress_ortc(const Fib& input) {
  Workspace& ortc = workspace();
  ortc.build(input);
  ortc.normalize_and_merge(0, kDrop);
  Fib out;
  out.reserve(input.size());
  ortc.select(0, kDrop, Prefix{}, out);
  return out;
}

}  // namespace dragon::fibcomp
