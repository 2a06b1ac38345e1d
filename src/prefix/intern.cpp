#include "prefix/intern.hpp"

namespace dragon::prefix {

PrefixId PrefixInterner::intern(const Prefix& p) {
  const auto [it, fresh] =
      index_.try_emplace(p, static_cast<PrefixId>(prefixes_.size()));
  if (!fresh) return it->second;
  const PrefixId id = it->second;
  prefixes_.push_back(p);
  children_.emplace_back();
  // splitmix64 finaliser over the previous value and (bits, length); the
  // length fits six bits, so the pair maps to the key injectively.
  std::uint64_t h = fingerprints_.back() ^
                    ((static_cast<std::uint64_t>(p.bits()) << 6) |
                     static_cast<std::uint64_t>(p.length()));
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  fingerprints_.push_back(h ^ (h >> 31));

  // Most specific interned strict ancestor.  The strict ancestors of p are
  // exactly its shorter-length truncations, so probe the index from the
  // longest candidate down — at most 32 hash lookups, and only on first
  // sight of a prefix.
  PrefixId parent = kNoPrefixId;
  for (int len = p.length() - 1; len >= 0; --len) {
    const auto a = index_.find(Prefix(p.bits(), len));
    if (a != index_.end()) {
      parent = a->second;
      break;
    }
  }
  parent_.push_back(parent);

  // Splice p into the covering forest.  Among its new siblings (sorted in
  // prefix order), the ids p covers form a contiguous run starting at p's
  // own sort position: covered ids have bits in [p.bits, p.bits + size),
  // everything past that range sorts after them.  Steal the run as p's
  // children and put p in its place.
  auto& siblings = (parent == kNoPrefixId) ? roots_ : children_[parent];
  std::size_t lo = 0;
  while (lo < siblings.size() && prefixes_[siblings[lo]] < p) ++lo;
  std::size_t hi = lo;
  while (hi < siblings.size() && p.covers(prefixes_[siblings[hi]])) ++hi;

  auto& mine = children_[id];
  for (std::size_t i = lo; i < hi; ++i) {
    mine.push_back(siblings[i]);
    parent_[siblings[i]] = id;
  }
  for (std::size_t i = hi; i > lo; --i) siblings.erase_at(i - 1);
  siblings.insert_at(lo, id);
  return id;
}

}  // namespace dragon::prefix
