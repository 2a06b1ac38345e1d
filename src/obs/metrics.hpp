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

class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  void add(double d) noexcept { value_ += d; }
  void reset() noexcept { value_ = 0.0; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
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
/// Threading contract (DESIGN.md §6): a registry has ONE writer thread,
/// the first thread that mutates it; the hot path stays a plain integer
/// add with no locks.  Parallel work never shares a registry: each task
/// fills its own and returns it in its result, and the calling thread
/// merges the results in index order with merge_from.  Debug builds
/// enforce the contract: every mutating entry point asserts the calling
/// thread is the writer.
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

 private:
  /// Debug-build single-writer check (the first mutator binds).
  void assert_writer() noexcept;

  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  /// The single writer's token, 0 when unclaimed.  Declared in every
  /// build so the object layout does not depend on NDEBUG (translation
  /// units compiled with and without it share registries); only debug
  /// builds check it.
  std::atomic<std::uint64_t> writer_{0};
};

}  // namespace dragon::obs
