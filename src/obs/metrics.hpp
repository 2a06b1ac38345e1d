// Observability substrate: a low-overhead metrics registry.
//
// The registry owns named counters, gauges, and log-scale histograms.
// Callers resolve a handle once (`registry.counter("dragon.engine.x")`)
// and increment through the pointer afterwards, so the hot path is a
// plain integer add — no map lookups, no locks (the engine is
// single-threaded per simulator instance).
//
// Naming convention: `dragon.<subsystem>.<name>`, with dimension values
// appended as further dot segments (e.g. the per-node-class update
// counters `dragon.engine.updates.class.stub`).  See DESIGN.md
// ("Observability").
//
// Histograms use base-2 log-scale buckets with 4 sub-buckets per octave
// (values 0..3 get exact buckets), which keeps bucket mapping a couple
// of bit operations while bounding the relative width of any bucket to
// 25%.  Quantile queries interpolate linearly inside the hit bucket.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace dragon::obs {

class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  void set(std::uint64_t v) noexcept { value_ = v; }
  void reset() noexcept { value_ = 0; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Gauges carry a *write epoch* alongside the value: every mutation
/// stamps the owning registry's current epoch (see
/// MetricsRegistry::set_write_epoch).  Outside the parallel runtime the
/// epoch stays 0 and gauges behave exactly as before; inside
/// exec::parallel_for the epoch is the chunk index, which is what makes
/// out-of-order shard merges reproduce the chunk-ordered result
/// (merge_ordered_from keeps the highest-epoch write).  add() starting a
/// new epoch resets the accumulation first, reproducing the
/// fresh-shard-per-chunk semantics the runtime used to get from
/// allocating a registry per chunk.
class Gauge {
 public:
  void set(double v) noexcept {
    value_ = v;
    epoch_ = current_epoch();
  }
  void add(double d) noexcept {
    const std::uint64_t e = current_epoch();
    if (e != epoch_) {
      value_ = 0.0;
      epoch_ = e;
    }
    value_ += d;
  }
  void reset() noexcept {
    value_ = 0.0;
    epoch_ = 0;
  }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  friend class MetricsRegistry;

  [[nodiscard]] std::uint64_t current_epoch() const noexcept {
    return epoch_src_ == nullptr ? 0 : *epoch_src_;
  }

  double value_ = 0.0;
  /// Epoch of the last write; 0 = never written under a nonzero epoch.
  std::uint64_t epoch_ = 0;
  /// The owning registry's epoch cell (heap-stable across registry
  /// moves); nullptr only for a moved-from registry's new gauges.
  const std::uint64_t* epoch_src_ = nullptr;
};

class Histogram {
 public:
  /// Sub-buckets per octave (as a power of two).
  static constexpr int kSubBits = 2;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  /// Bucket 0 holds the value 0; values 1..3 get exact buckets; octaves
  /// [2^e, 2^(e+1)) for e in [2, 63] get kSub buckets each.
  static constexpr std::size_t kBucketCount = kSub + (64 - kSubBits) * kSub;

  void observe(std::uint64_t v) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t min() const noexcept { return count_ ? min_ : 0; }
  [[nodiscard]] std::uint64_t max() const noexcept { return count_ ? max_ : 0; }
  [[nodiscard]] double mean() const noexcept {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }

  /// Value below which a fraction `q` in [0, 1] of the samples fall,
  /// linearly interpolated within the hit bucket and clamped to the
  /// observed [min, max] range.  Returns 0 on an empty histogram.
  [[nodiscard]] double quantile(double q) const noexcept;

  /// Mapping from value to bucket index and back.  `bucket_lower` is
  /// inclusive, `bucket_upper` exclusive.
  [[nodiscard]] static std::size_t bucket_index(std::uint64_t v) noexcept;
  [[nodiscard]] static std::uint64_t bucket_lower(std::size_t i) noexcept;
  [[nodiscard]] static std::uint64_t bucket_upper(std::size_t i) noexcept;

  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const noexcept {
    return buckets_[i];
  }

  void reset() noexcept;
  /// Adds every sample of `other` into this histogram.
  void merge_from(const Histogram& other) noexcept;

 private:
  std::vector<std::uint64_t> buckets_ =
      std::vector<std::uint64_t>(kBucketCount, 0);
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// Named metrics, created on first use; handles stay valid for the
/// registry's lifetime.
///
/// Threading contract (the sharded-registry contract, DESIGN.md §8): a
/// registry has at most ONE writer thread at a time; the hot path stays a
/// plain integer add with no locks.  Parallel code gives every task its
/// own shard registry and merges shards on the joining thread
/// (exec::parallel_for).  Debug builds enforce the contract: every
/// mutating entry point asserts the calling thread matches the thread
/// that first mutated the registry since the last bind/release.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  /// Moves transfer the metric maps only; the debug writer claim does not
  /// follow (the new owner's first mutation re-binds it).
  MetricsRegistry(MetricsRegistry&& other) noexcept;
  MetricsRegistry& operator=(MetricsRegistry&& other) noexcept;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  Histogram* histogram(std::string_view name);

  /// Claims the current thread as the registry's single writer (debug
  /// builds; release no-op).  parallel_for calls this when handing a
  /// shard to a worker so a stray second writer asserts immediately.
  void bind_writer() noexcept;
  /// Releases the writer claim so another thread may take over (e.g. the
  /// joining thread merging a shard a worker filled).
  void release_writer() noexcept;

  /// Read-only lookup; nullptr when the metric does not exist.
  [[nodiscard]] const Counter* find_counter(std::string_view name) const;
  [[nodiscard]] const Gauge* find_gauge(std::string_view name) const;
  [[nodiscard]] const Histogram* find_histogram(std::string_view name) const;

  /// Zeroes counters and histograms.  Gauges are left alone: they track
  /// current state (e.g. installed FIB entries), not accumulation, so a
  /// stats reset must not desynchronise them from the simulator.
  void reset_accumulators();

  /// Sums `other`'s counters and histograms into this registry and
  /// overwrites gauges with `other`'s values.  Used by benches to
  /// aggregate per-trial registries.
  void merge_from(const MetricsRegistry& other);

  /// Epoch-ordered variant for the parallel runtime's per-worker shards:
  /// counters and histograms sum as in merge_from, but a gauge is only
  /// overwritten when `other`'s write epoch is >= this registry's — so
  /// merging worker shards in *any* order yields the value written by the
  /// highest-epoch (i.e. highest chunk index) writer, bit-identical to
  /// the sequential chunk-ordered merge.  Gauges never written under a
  /// nonzero epoch (epoch 0) lose to any real write.
  void merge_ordered_from(const MetricsRegistry& other);

  /// Sets the epoch stamped onto subsequent gauge writes (see Gauge).
  /// exec::parallel_for sets `chunk + 1` before running each chunk body
  /// on a reusable worker shard; 0 (the default) restores plain
  /// last-writer-wins behaviour.
  void set_write_epoch(std::uint64_t epoch) noexcept;

  /// Full value state (names + values) for simulator snapshot/restore.
  struct Snapshot {
    std::map<std::string, std::uint64_t, std::less<>> counters;
    std::map<std::string, double, std::less<>> gauges;
    std::map<std::string, Histogram, std::less<>> histograms;
  };
  [[nodiscard]] Snapshot snapshot_state() const;
  /// Restores the values captured in `snap`; metrics created after the
  /// snapshot are reset to zero.
  void restore_state(const Snapshot& snap);

  /// The registry as one JSON object:
  ///   {"counters":{name:value,...},
  ///    "gauges":{name:value,...},
  ///    "histograms":{name:{count,sum,min,max,mean,p50,p90,p99,
  ///                        buckets:[{"lo":..,"hi":..,"n":..},...]},...}}
  [[nodiscard]] std::string to_json() const;
  /// Writes to_json() to `path`; returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  /// Debug-build single-writer check (the first mutator binds).
  void assert_writer() noexcept;

  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  /// Heap cell so gauge handles stay valid across registry moves (the
  /// unique_ptr moves, the pointee address does not).
  std::unique_ptr<std::uint64_t> write_epoch_ =
      std::make_unique<std::uint64_t>(0);
  /// The single writer's token, 0 when unclaimed.  Declared in every
  /// build so the object layout does not depend on NDEBUG (translation
  /// units compiled with and without it share registries); only debug
  /// builds check it.
  std::atomic<std::uint64_t> writer_{0};
};

}  // namespace dragon::obs
