// Compiled LPM lookup table — the data-plane serving structure.
//
// A generalised DIR-24-8 layout: a dense root array indexed by the top
// `top_bits` address bits, then chained 256-entry overflow buckets, one
// 8-bit stride per level, for prefixes longer than the root covers.  With
// top_bits = 24 this is the classic DIR-24-8 scheme (64 MiB root, buckets
// only for /25../32); smaller roots trade root bytes for bucket chains and
// make table size track FIB content, so the pre- vs post-DRAGON table
// bytes show what aggregation saves.
//
// Entry encoding (u32, shared by root and buckets):
//   0                      — no match at or below this slot (lookup → kDrop)
//   bit 31 set             — pointer: low 31 bits index a bucket (times 256)
//   otherwise              — 1 + index into the next-hop palette
//
// The palette dedupes next hops: FIBs here have few distinct next hops
// (an AS's neighbour count), so entries stay small u32s while next hops
// keep the full fibcomp::NextHop space including kDrop/kLocal sentinels.
//
// Tables are immutable after compile() — lookup() is const, data-race-free
// by construction, and safe to share across any number of reader threads.
// Mutation is replacement: compile a new table and publish it through
// dataplane::EpochPublished (epoch.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "fibcomp/fib.hpp"
#include "prefix/prefix.hpp"

namespace dragon::dataplane {

struct LpmConfig {
  /// Width of the dense root index; must be 8, 16 or 24 so every level
  /// consumes a whole 8-bit stride and a /32 fits in at most 3 chained
  /// buckets below the root.
  int top_bits = 16;
};

/// Compile-time facts about a table.
struct LpmStats {
  std::size_t entries = 0;       ///< FIB entries compiled in
  std::size_t palette_size = 0;  ///< distinct next hops
  std::size_t bucket_count = 0;  ///< 256-entry overflow buckets allocated
  std::size_t table_bytes = 0;   ///< root + buckets + palette, in bytes
};

class LpmTable {
 public:
  /// Compiles a FIB into a flat table.  Throws std::invalid_argument when
  /// the config is unsupported or the FIB trips check_fib_next_hops; when
  /// the same prefix appears twice the later entry wins (matching
  /// PrefixTrie::insert overwrite semantics).
  [[nodiscard]] static LpmTable compile(const fibcomp::Fib& fib,
                                        const LpmConfig& config = {});

  /// Longest-prefix-match lookup; kDrop when nothing matches.  Wait-free,
  /// no allocation, safe from any thread for the table's whole lifetime.
  [[nodiscard]] fibcomp::NextHop lookup(prefix::Address addr) const noexcept {
    std::uint32_t e = top_[addr >> root_shift_];
    int shift = root_shift_;
    while (e & kBucketBit) {
      shift -= 8;
      e = buckets_[((e & ~kBucketBit) << 8) |
                   ((addr >> shift) & 0xFFu)];
    }
    return e == 0 ? fibcomp::kDrop : palette_[e - 1];
  }

  [[nodiscard]] const LpmStats& stats() const noexcept { return stats_; }
  [[nodiscard]] int top_bits() const noexcept { return top_bits_; }

 private:
  static constexpr std::uint32_t kBucketBit = 0x80000000u;

  LpmTable() = default;

  int top_bits_ = 0;
  int root_shift_ = 0;  ///< kAddressBits - top_bits_
  std::vector<std::uint32_t> top_;
  std::vector<std::uint32_t> buckets_;  ///< flat; bucket b = [256*b, 256*b+256)
  std::vector<fibcomp::NextHop> palette_;
  LpmStats stats_;
};

}  // namespace dragon::dataplane
