// Per-simulation prefix interning: dense ids plus memoized covering links.
//
// The engine's hot path touches the same small universe of prefixes over
// and over (originated roots, de-aggregation fragments, watched
// aggregates), yet the seed data structures re-keyed every map on the full
// 64-bit Prefix value and re-derived ancestry per event by walking a
// per-node trie.  The interner assigns each distinct Prefix a dense
// `PrefixId` (u32) once, append-only, and memoizes the structural links
// DRAGON's §3.6 parent lookup needs:
//
//   * `parent_of(id)`: the most specific *interned* strict ancestor — the
//     covering chain `id, parent_of(id), parent_of(parent_of(id)), ...`
//     enumerates every interned ancestor in decreasing specificity, so a
//     per-node "parent in known set" query is this chain filtered by the
//     node's route-table membership (see engine/rib.hpp);
//   * `visit_subtree(id)`: pre-order over the interned prefixes covered by
//     `prefix_of(id)`, in the global (bits, length) prefix order — the
//     same order a sorted container or the seed PrefixTrie produced.
//
// Ids are stable for the lifetime of the interner (nothing is ever
// erased), which is what lets engine snapshots skip it (they record only
// its size and fingerprint()): a restored trial may observe a *larger*
// intern table than the captured one, but every query the engine makes is
// filtered by per-node membership, so behaviour is bit-identical
// (DESIGN.md §10).
//
// Not thread-safe; each Simulator owns one (parallel trials run one
// single-threaded Simulator per worker, DESIGN.md §8).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "prefix/prefix.hpp"
#include "util/small_vector.hpp"

namespace dragon::prefix {

using PrefixId = std::uint32_t;

/// Sentinel for "no such prefix" / "no interned ancestor".
inline constexpr PrefixId kNoPrefixId = 0xFFFFFFFFu;

class PrefixInterner {
 public:
  /// Returns the id of `p`, interning it first if new.  Amortised O(1)
  /// plus, on first sight, an O(length) ancestor probe and an O(degree)
  /// re-parenting of any existing ids `p` now covers.
  PrefixId intern(const Prefix& p);

  /// The id of `p`, or kNoPrefixId when `p` was never interned.
  [[nodiscard]] PrefixId find(const Prefix& p) const {
    const auto it = index_.find(p);
    return it == index_.end() ? kNoPrefixId : it->second;
  }

  [[nodiscard]] const Prefix& prefix_of(PrefixId id) const {
    return prefixes_[id];
  }

  /// Most specific interned strict ancestor of `id` (kNoPrefixId if none).
  [[nodiscard]] PrefixId parent_of(PrefixId id) const { return parent_[id]; }

  /// Direct children of `id` in the covering forest, sorted in prefix
  /// order.  (Children of kNoPrefixId are the forest roots.)
  [[nodiscard]] const util::SmallVector<PrefixId, 2>& children(
      PrefixId id) const {
    return id == kNoPrefixId ? roots_ : children_[id];
  }

  /// Visits `id` and every interned prefix covered by it, in global
  /// prefix (bits, length) order — equivalently, in trie pre-order.
  template <typename F>
  void visit_subtree(PrefixId id, F&& fn) const {
    fn(id);
    for (const PrefixId c : children_[id]) visit_subtree(c, fn);
  }

  /// Comparator on ids by the underlying prefix order, for sorting id
  /// collections into the deterministic iteration order the engine uses.
  [[nodiscard]] bool id_less(PrefixId a, PrefixId b) const {
    return prefixes_[a] < prefixes_[b];
  }

  [[nodiscard]] std::size_t size() const noexcept { return prefixes_.size(); }

  /// Fingerprint of the first `count` ids' prefixes, in id order
  /// (count <= size()).  Two interners that agree on it hold the same
  /// prefixes at those ids, up to 64-bit hash collisions.  O(1): the
  /// interner keeps one cumulative value per id.
  [[nodiscard]] std::uint64_t fingerprint(std::size_t count) const {
    return fingerprints_[count];
  }

 private:
  std::vector<Prefix> prefixes_;   // id -> prefix
  /// fingerprints_[k] = fingerprint(k); fingerprints_[0] is the seed.
  std::vector<std::uint64_t> fingerprints_{0x9e3779b97f4a7c15ull};
  std::vector<PrefixId> parent_;   // id -> most specific interned ancestor
  std::vector<util::SmallVector<PrefixId, 2>> children_;  // sorted
  util::SmallVector<PrefixId, 2> roots_;                  // sorted
  std::unordered_map<Prefix, PrefixId> index_;
};

}  // namespace dragon::prefix
