// Multi-threaded LPM query serving over hot-swappable compiled tables.
//
// A LookupServer owns the EpochDomain + EpochPublished pair for one
// serving node: the control plane publishes freshly compiled LpmTables
// through it while reader threads answer batched queries against
// whichever table their pinned epoch sees.  Query streams come from a
// QueryGen (uniform or Zipf-skewed mixes over the FIB's prefixes); a
// caller that splits a stream over readers forks one RNG stream per
// reader, so the combined result does not depend on the thread count
// while the table is static.
//
// Threading contract:
//   * One *owner* thread calls publish/reclaim.
//   * serve() is safe from any thread concurrently with the owner's
//     publishes (it is const and touches only its own reader slot); the
//     TSan preset drives exactly that: pool workers serving while the
//     owner hot-swaps.
//   * Workers return plain BatchResults; the caller combines them after
//     the join.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dataplane/epoch.hpp"
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

 private:
  QueryMix mix_;
  // Parallel arrays (hot loop: no Prefix methods, just adds).
  std::vector<prefix::Address> first_;
  std::vector<std::uint64_t> size_;
  std::vector<double> cdf_;  ///< Zipf CDF over prefixes; empty for uniform
};

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
  /// EpochDomain slot capacity: the most readers ever concurrently
  /// registered (pool threads, not chunks — slots are per in-flight
  /// serve call).
  std::size_t max_readers = 64;
  /// Queries served per epoch pin; smaller values drain retired tables
  /// faster during hot-swap at the cost of more pin stores.
  std::size_t pin_batch = 1024;
};

class LookupServer {
 public:
  explicit LookupServer(LookupServerConfig config = {});

  // --- Control plane (owner thread) ----------------------------------------

  /// Hot-swaps in a new table; retires and (when drained) reclaims the
  /// old one.  Safe while readers serve.
  void publish(std::unique_ptr<const LpmTable> table);

  /// Frees retired tables whose readers have drained.  Returns how many
  /// are still outstanding.
  std::size_t reclaim();

  // --- Data plane (any thread) ---------------------------------------------

  /// Serves `count` queries drawn from gen with `rng`, pinning the epoch
  /// every pin_batch queries so concurrent publishes can retire tables
  /// underneath.  Queries before the first publish count as drops.
  [[nodiscard]] BatchResult serve(const QueryGen& gen, util::Rng rng,
                                  std::uint64_t count) const;

  [[nodiscard]] EpochDomain& domain() noexcept { return domain_; }
  [[nodiscard]] std::size_t publish_count() const {
    return published_.publish_count();
  }
  /// The live table.  Valid for the owner thread (the only reclaimer, so
  /// the pointer cannot be freed underneath it) and for readers between a
  /// pin on their slot in domain() and the matching unpin/re-pin.
  [[nodiscard]] const LpmTable* current() const noexcept {
    return published_.read();
  }

 private:
  LookupServerConfig config_;
  /// mutable: serve() is const (callable concurrently from readers) but
  /// must pin/unpin its reader slot — slot traffic is the readers' own
  /// lock-free state, not logical mutation of the server.
  mutable EpochDomain domain_;
  EpochPublished<LpmTable> published_;
};

}  // namespace dragon::dataplane
