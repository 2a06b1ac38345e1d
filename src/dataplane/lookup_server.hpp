// Multi-threaded LPM query serving over hot-swappable compiled tables.
//
// A LookupServer holds one serving node's live table as a
// std::shared_ptr<const LpmTable> behind a mutex: the control plane
// publishes freshly compiled LpmTables through it while reader threads
// answer batched queries against a copy of whichever table was live when
// their batch began.  Query streams come from a QueryGen (uniform or
// Zipf-skewed mixes over the FIB's prefixes); a caller that splits a
// stream over readers forks one RNG stream per reader, so the combined
// result does not depend on the thread count while the table is static.
//
// Threading contract:
//   * One *owner* thread calls publish/reclaim; only it frees tables.
//   * serve() and current() are safe from any thread concurrently with
//     the owner's publishes (they take the lock only to copy the
//     shared_ptr); the TSan preset drives exactly that: pool workers
//     serving while the owner hot-swaps.
//   * Workers return plain BatchResults; the caller combines them after
//     the join.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "dataplane/lpm_table.hpp"
#include "fibcomp/fib.hpp"
#include "util/rng.hpp"

namespace dragon::dataplane {

/// What addresses a synthetic query stream draws.
struct QueryMix {
  enum class Kind {
    kUniform,  ///< every FIB prefix equally likely
    kZipf,     ///< prefix i (FIB order) weighted 1/(i+1)^s — skewed traffic
  };
  Kind kind = Kind::kUniform;
  double zipf_s = 1.0;
  /// Fraction of queries drawn uniformly over the whole 32-bit address
  /// space instead of inside a FIB prefix (mostly misses).
  double miss_fraction = 0.0;
};

/// Precompiled sampler: draw(rng) returns one query address.  Immutable
/// after construction — shareable across reader threads.
class QueryGen {
 public:
  QueryGen(const fibcomp::Fib& fib, QueryMix mix);

  [[nodiscard]] prefix::Address draw(util::Rng& rng) const noexcept;

  /// The Zipf prefix index a draw picks for u in [0, 1): the first i with
  /// cdf()[i] >= u, clamped to the last prefix — std::lower_bound over
  /// cdf(), in expected O(1) through the guide table (DESIGN.md §12).
  /// Zipf mixes over a non-empty FIB only.
  [[nodiscard]] std::size_t index_of(double u) const noexcept;

  /// The Zipf CDF over FIB order; empty for uniform mixes.
  [[nodiscard]] const std::vector<double>& cdf() const noexcept {
    return cdf_;
  }

 private:
  QueryMix mix_;
  // Parallel arrays (hot loop: no Prefix methods, just adds).
  std::vector<prefix::Address> first_;
  std::vector<std::uint64_t> size_;
  std::vector<double> cdf_;  ///< Zipf CDF over prefixes; empty for uniform
  /// Chen–Asau guide table: K cells, K the smallest power of two
  /// >= cdf_.size(), with guide_[k] = lower_bound(cdf_, k / K) clamped
  /// to the last prefix.  K < 2n cells of 32-bit indices keep it at most
  /// the size of cdf_.
  std::vector<std::uint32_t> guide_;
};

inline std::size_t QueryGen::index_of(double u) const noexcept {
  // K is a power of two, so u * K is exact and cell k = floor(u * K) has
  // k / K <= u; lower_bound being monotone, guide_[k] <= lower_bound(cdf_,
  // u).  Every index below that has cdf_ < u, so the scan stops exactly
  // there, or at the last prefix (the clamp).  The K cells split [0, 1)
  // evenly and hold the n CDF values between them, so for uniform u a
  // draw makes at most 1 + n / K <= 2 comparisons on average, whatever
  // zipf_s.  The casts go through int64 because signed conversions are
  // one instruction each.
  const auto cells = static_cast<double>(
      static_cast<std::int64_t>(guide_.size()));
  std::size_t i = guide_[static_cast<std::size_t>(
      static_cast<std::int64_t>(u * cells))];
  const std::size_t last = cdf_.size() - 1;
  while (i < last && cdf_[i] < u) ++i;
  return i;
}

/// One reader's tally over a batch of queries.  checksum is an
/// order-independent sum of per-query hashes, so chunk results combine
/// associatively and a parallel serve can be compared bit-for-bit
/// against a serial one.
struct BatchResult {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;  ///< results != kDrop
  std::uint64_t checksum = 0;

  BatchResult& operator+=(const BatchResult& o) noexcept {
    lookups += o.lookups;
    hits += o.hits;
    checksum += o.checksum;
    return *this;
  }
};

struct LookupServerConfig {
  /// Inert: nothing reads it.  It stays only because
  /// pipebench/pipebench.cpp builds this config positionally
  /// ({max_readers, pin_batch}) and pipebench/ changes only with the
  /// benchmark; delete it together with that call site.
  std::size_t max_readers = 64;
  /// Queries served per copy of the live table; smaller values let
  /// retired tables go sooner during hot-swap at the cost of more lock
  /// round trips.
  std::size_t pin_batch = 1024;
};

class LookupServer {
 public:
  explicit LookupServer(LookupServerConfig config = {});

  // --- Control plane (owner thread) ----------------------------------------

  /// Hot-swaps in a new table, retires the old one, and frees every
  /// retired table no reader still holds.  Safe while readers serve.
  void publish(std::unique_ptr<const LpmTable> table);

  /// Frees retired tables no reader still holds.  Returns how many are
  /// still outstanding.
  std::size_t reclaim();

  // --- Data plane (any thread) ---------------------------------------------

  /// Serves `count` queries drawn from gen with `rng`, taking a copy of
  /// current() every pin_batch queries so concurrent publishes can retire
  /// tables underneath.  Queries before the first publish count as drops.
  [[nodiscard]] BatchResult serve(const QueryGen& gen, util::Rng rng,
                                  std::uint64_t count) const;

  [[nodiscard]] std::size_t publish_count() const;
  /// The live table, or null before the first publish.  The copy keeps
  /// its table alive for as long as the caller holds it, across any
  /// number of publishes.
  [[nodiscard]] std::shared_ptr<const LpmTable> current() const;

 private:
  /// Frees the retired tables whose only owner is retired_ itself and
  /// returns how many remain.  A retired table's count can only fall:
  /// readers copy only current_, under mu_.  So use_count() == 1 is
  /// exact, and while a table is current or retired a reader's copy is
  /// never its last owner: frees stay on the owner thread.
  std::size_t free_unheld();

  LookupServerConfig config_;
  mutable std::mutex mu_;  ///< guards current_ and publish_count_
  std::shared_ptr<const LpmTable> current_;
  std::size_t publish_count_ = 0;
  std::vector<std::shared_ptr<const LpmTable>> retired_;  ///< owner only
};

}  // namespace dragon::dataplane
