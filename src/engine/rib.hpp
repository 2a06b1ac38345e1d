// Flat, PrefixId-keyed route-table containers for the engine hot path.
//
// The seed engine kept per-node state in node-based trees: a
// `std::map<Prefix, RouteEntry>` RIB whose every entry held a
// `std::map<NodeId, Attr>` Adj-RIB-In, plus three more per-prefix maps in
// every NeighborIo.  That is a pointer-chasing heap allocation per prefix
// per neighbour for 4-byte attributes, and — worse for the trial-driven
// benches — a full RB-tree rebuild per node on every snapshot/restore.
// This header replaces them with cache-friendly flat tables keyed by the
// dense `prefix::PrefixId` of the simulation's interner:
//
//   * `FlatTable<Entry>`: an append-only slot map (dense id -> slot
//     vector, parallel id/entry arrays) with a lazily sorted iteration
//     index in global *prefix* order — the engine iterates routes only
//     through `for_each_sorted`, so event sequences stay bit-identical to
//     the seed's `std::map<Prefix, ...>` order and never depend on hash
//     or insertion order;
//   * `PrefixIdMap<T>` / `PrefixIdSet`: open-addressing tables over u32
//     ids (linear probing, backward-shift deletion) for the
//     per-neighbour `sent` / `rx_seq` / `pending` / `stale` state.  Their
//     raw iteration order is the probe layout, so call sites that need
//     deterministic order collect ids and sort by prefix first (see
//     DESIGN.md §10 for the iteration rules);
//   * `RibIn`: the Adj-RIB-In candidate list as an inline small-vector of
//     (NodeId, Attr), sorted by neighbour id — degree is small for most
//     ASs, and ordered iteration replaces the seed's `std::map` walk.
//
// Everything here deep-copies as a few vector copies (memcpy-like
// instead of per-node tree clones).  Simulator::snapshot() copies every
// node's tables that way; restore() copies back only the nodes the trial
// since the last restore touched (DESIGN.md §10).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "algebra/algebra.hpp"
#include "prefix/intern.hpp"
#include "topology/graph.hpp"
#include "util/small_vector.hpp"

namespace dragon::engine {

/// Open-addressing map from PrefixId to T.  Linear probing, power-of-two
/// capacity, backward-shift deletion.  Iteration (`for_each`) is in probe
/// order — never feed it anywhere order matters without sorting.
template <typename T>
class PrefixIdMap {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  [[nodiscard]] const T* find(prefix::PrefixId key) const {
    if (count_ == 0) return nullptr;
    for (std::size_t i = home(key);; i = next(i)) {
      if (keys_[i] == key) return &vals_[i];
      if (keys_[i] == kEmpty) return nullptr;
    }
  }
  [[nodiscard]] T* find(prefix::PrefixId key) {
    return const_cast<T*>(static_cast<const PrefixIdMap*>(this)->find(key));
  }
  [[nodiscard]] bool contains(prefix::PrefixId key) const {
    return find(key) != nullptr;
  }

  /// Inserts or overwrites; returns the stored value.
  T& put(prefix::PrefixId key, const T& value) {
    T& slot = get_or_insert(key, value);
    slot = value;
    return slot;
  }

  /// Returns the value for `key`, inserting `fallback` first if absent.
  /// The reference is valid until the next insertion.
  T& get_or_insert(prefix::PrefixId key, const T& fallback) {
    if (keys_.empty() || (count_ + 1) * 4 > keys_.size() * 3) grow();
    for (std::size_t i = home(key);; i = next(i)) {
      if (keys_[i] == key) return vals_[i];
      if (keys_[i] == kEmpty) {
        keys_[i] = key;
        vals_[i] = fallback;
        ++count_;
        return vals_[i];
      }
    }
  }

  bool erase(prefix::PrefixId key) {
    if (count_ == 0) return false;
    std::size_t i = home(key);
    for (;; i = next(i)) {
      if (keys_[i] == kEmpty) return false;
      if (keys_[i] == key) break;
    }
    // Backward-shift deletion: close the probe chain behind the hole.
    std::size_t hole = i;
    for (std::size_t j = next(i);; j = next(j)) {
      if (keys_[j] == kEmpty) break;
      const std::size_t h = home(keys_[j]);
      if (probe_reaches(h, hole, j)) {
        keys_[hole] = keys_[j];
        vals_[hole] = vals_[j];
        hole = j;
      }
    }
    keys_[hole] = kEmpty;
    --count_;
    return true;
  }

  void clear() {
    std::fill(keys_.begin(), keys_.end(), kEmpty);
    count_ = 0;
  }

  /// Probe-order iteration: fn(PrefixId, const T&).  Collect-and-sort at
  /// the call site before any order-sensitive use.
  template <typename F>
  void for_each(F&& fn) const {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != kEmpty) fn(keys_[i], vals_[i]);
    }
  }

 private:
  static constexpr prefix::PrefixId kEmpty = 0xFFFFFFFFu;

  [[nodiscard]] std::size_t home(prefix::PrefixId key) const noexcept {
    return (static_cast<std::size_t>(key) * 2654435761u) & (keys_.size() - 1);
  }
  [[nodiscard]] std::size_t next(std::size_t i) const noexcept {
    return (i + 1) & (keys_.size() - 1);
  }
  /// True when a key homed at `h` must probe through `hole` to reach `j`
  /// (all indices on the circular table).
  [[nodiscard]] static bool probe_reaches(std::size_t h, std::size_t hole,
                                          std::size_t j) noexcept {
    if (h <= j) return h <= hole && hole <= j;
    return hole >= h || hole <= j;  // probe wraps around the table end
  }

  void grow() {
    const std::size_t cap = keys_.empty() ? 8 : keys_.size() * 2;
    std::vector<prefix::PrefixId> old_keys = std::move(keys_);
    std::vector<T> old_vals = std::move(vals_);
    keys_.assign(cap, kEmpty);
    vals_.assign(cap, T{});
    count_ = 0;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] != kEmpty) get_or_insert(old_keys[i], old_vals[i]);
    }
  }

  std::vector<prefix::PrefixId> keys_;
  std::vector<T> vals_;
  std::size_t count_ = 0;
};

/// Open-addressing set of PrefixIds (same layout rules as PrefixIdMap).
class PrefixIdSet {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return map_.size(); }
  [[nodiscard]] bool empty() const noexcept { return map_.empty(); }
  [[nodiscard]] bool contains(prefix::PrefixId key) const {
    return map_.contains(key);
  }
  /// Returns true when newly inserted.
  bool insert(prefix::PrefixId key);
  bool erase(prefix::PrefixId key) { return map_.erase(key); }
  void clear() { map_.clear(); }
  /// Probe-order; sort before any order-sensitive use.
  template <typename F>
  void for_each(F&& fn) const {
    map_.for_each([&fn](prefix::PrefixId key, const Empty&) { fn(key); });
  }
  /// The members sorted into global prefix order — the engine's
  /// deterministic iteration order for pending/stale sweeps.
  [[nodiscard]] std::vector<prefix::PrefixId> sorted_ids(
      const prefix::PrefixInterner& interner) const;

 private:
  struct Empty {};
  PrefixIdMap<Empty> map_;
};

/// Adj-RIB-In: per-neighbour candidate attributes, sorted by neighbour id.
/// Iteration yields `Cand{node, attr}` (structured-bindings friendly, like
/// the seed's map pairs), lowest neighbour id first.
class RibIn {
 public:
  struct Cand {
    topology::NodeId node;
    algebra::Attr attr;
  };
  using const_iterator = const Cand*;

  [[nodiscard]] const_iterator begin() const noexcept { return v_.begin(); }
  [[nodiscard]] const_iterator end() const noexcept { return v_.end(); }
  [[nodiscard]] std::size_t size() const noexcept { return v_.size(); }
  [[nodiscard]] bool empty() const noexcept { return v_.empty(); }

  [[nodiscard]] bool contains(topology::NodeId node) const {
    return find(node) != nullptr;
  }
  [[nodiscard]] const algebra::Attr* find(topology::NodeId node) const;

  /// Insert-or-assign, keeping the list sorted by neighbour id.
  void set(topology::NodeId node, algebra::Attr attr);
  /// Returns true when a candidate was removed.
  bool erase(topology::NodeId node);

 private:
  /// First index with node id >= `node`.
  [[nodiscard]] std::size_t lower_bound(topology::NodeId node) const;
  util::SmallVector<Cand, 4> v_;
};

/// Append-only slot map from PrefixId to Entry with lazily sorted
/// iteration in global prefix order.  Entries are never individually
/// erased (the engine only ever clears whole node states), which keeps
/// slots stable and the sorted index incrementally maintainable.
template <typename Entry>
class FlatTable {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return ids_.size(); }
  [[nodiscard]] bool empty() const noexcept { return ids_.empty(); }

  [[nodiscard]] const Entry* find(prefix::PrefixId id) const {
    if (id >= slot_.size() || slot_[id] == kNpos) return nullptr;
    return &entries_[slot_[id]];
  }
  [[nodiscard]] Entry* find(prefix::PrefixId id) {
    return const_cast<Entry*>(
        static_cast<const FlatTable*>(this)->find(id));
  }

  /// The entry for `id`, created default-constructed if absent.  `fresh`
  /// (when non-null) reports whether the entry was just created.  Must
  /// not be called while a for_each_sorted over this table is running.
  Entry& get_or_create(prefix::PrefixId id, bool* fresh = nullptr) {
    if (id >= slot_.size()) slot_.resize(id + 1, kNpos);
    if (slot_[id] != kNpos) {
      if (fresh != nullptr) *fresh = false;
      return entries_[slot_[id]];
    }
    slot_[id] = static_cast<std::uint32_t>(ids_.size());
    ids_.push_back(id);
    entries_.emplace_back();
    order_dirty_ = true;
    if (fresh != nullptr) *fresh = true;
    return entries_.back();
  }

  void clear() {
    slot_.clear();
    ids_.clear();
    entries_.clear();
    order_.clear();
    order_dirty_ = false;
  }

  /// Visits every (id, entry) in global prefix order — the engine's only
  /// route-iteration primitive anywhere order feeds behaviour.  The
  /// callback may mutate entries but must not create new ones; collect
  /// ids first when the reaction path can grow the table.
  template <typename F>
  void for_each_sorted(const prefix::PrefixInterner& interner, F&& fn) {
    ensure_order(interner);
    for (const std::uint32_t s : order_) fn(ids_[s], entries_[s]);
  }
  template <typename F>
  void for_each_sorted(const prefix::PrefixInterner& interner, F&& fn) const {
    ensure_order(interner);
    for (const std::uint32_t s : order_) {
      fn(ids_[s], const_cast<const Entry&>(entries_[s]));
    }
  }

 private:
  static constexpr std::uint32_t kNpos = 0xFFFFFFFFu;

  void ensure_order(const prefix::PrefixInterner& interner) const {
    if (!order_dirty_ && order_.size() == ids_.size()) return;
    order_.resize(ids_.size());
    for (std::uint32_t i = 0; i < order_.size(); ++i) order_[i] = i;
    std::sort(order_.begin(), order_.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return interner.id_less(ids_[a], ids_[b]);
              });
    order_dirty_ = false;
  }

  std::vector<std::uint32_t> slot_;   // id -> slot (kNpos: absent)
  std::vector<prefix::PrefixId> ids_;  // slot -> id
  std::vector<Entry> entries_;         // slot -> entry
  mutable std::vector<std::uint32_t> order_;  // slots in prefix order
  mutable bool order_dirty_ = false;
};

}  // namespace dragon::engine
