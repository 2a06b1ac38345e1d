#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#ifndef NDEBUG
#include <functional>
#include <thread>
#endif

namespace dragon::obs {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

std::size_t Histogram::bucket_index(std::uint64_t v) noexcept {
  if (v < kSub) return static_cast<std::size_t>(v);  // exact small buckets
  const int e = 63 - std::countl_zero(v);            // floor(log2 v), >= kSubBits
  const std::uint64_t sub = (v >> (e - kSubBits)) & (kSub - 1);
  return kSub + static_cast<std::size_t>(e - kSubBits) * kSub +
         static_cast<std::size_t>(sub);
}

std::uint64_t Histogram::bucket_lower(std::size_t i) noexcept {
  if (i < kSub) return i;
  const std::size_t k = i - kSub;
  const int e = kSubBits + static_cast<int>(k / kSub);
  const std::uint64_t sub = k % kSub;
  return (kSub + sub) << (e - kSubBits);
}

std::uint64_t Histogram::bucket_upper(std::size_t i) noexcept {
  if (i < kSub) return i + 1;
  const std::size_t k = i - kSub;
  const int e = kSubBits + static_cast<int>(k / kSub);
  return bucket_lower(i) + (std::uint64_t{1} << (e - kSubBits));
}

void Histogram::observe(std::uint64_t v) noexcept {
  ++buckets_[bucket_index(v)];
  if (count_ == 0 || v < min_) min_ = v;
  if (count_ == 0 || v > max_) max_ = v;
  ++count_;
  sum_ += static_cast<double>(v);
}

double Histogram::quantile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  double cum = 0.0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    if (buckets_[i] == 0) continue;
    const double next = cum + static_cast<double>(buckets_[i]);
    if (next >= target) {
      const auto lo = static_cast<double>(bucket_lower(i));
      const auto hi = static_cast<double>(bucket_upper(i));
      const double frac =
          std::clamp((target - cum) / static_cast<double>(buckets_[i]), 0.0, 1.0);
      const double v = lo + frac * (hi - lo);
      return std::clamp(v, static_cast<double>(min_), static_cast<double>(max_));
    }
    cum = next;
  }
  return static_cast<double>(max_);
}

void Histogram::reset() noexcept {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
  min_ = 0;
  max_ = 0;
}

void Histogram::merge_from(const Histogram& other) noexcept {
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < kBucketCount; ++i) buckets_[i] += other.buckets_[i];
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (count_ == 0 || other.max_ > max_) max_ = other.max_;
  count_ += other.count_;
  sum_ += other.sum_;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

namespace {

template <typename Map>
auto* get_or_create(Map& map, std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) {
    using Ptr = typename Map::mapped_type;
    it = map.emplace(std::string(name), Ptr(new typename Ptr::element_type()))
             .first;
  }
  return it->second.get();
}

template <typename Map>
auto* find_in(const Map& map, std::string_view name) {
  auto it = map.find(name);
  using Elem = typename Map::mapped_type::element_type;
  return it == map.end() ? static_cast<const Elem*>(nullptr) : it->second.get();
}

/// Escapes a metric name for use as a JSON string (names are plain
/// dotted identifiers, but stay safe anyway).
void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_number(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

}  // namespace

MetricsRegistry::MetricsRegistry(MetricsRegistry&& other) noexcept
    : counters_(std::move(other.counters_)),
      gauges_(std::move(other.gauges_)),
      histograms_(std::move(other.histograms_)) {}

MetricsRegistry& MetricsRegistry::operator=(MetricsRegistry&& other) noexcept {
  if (this != &other) {
    counters_ = std::move(other.counters_);
    gauges_ = std::move(other.gauges_);
    histograms_ = std::move(other.histograms_);
    writer_.store(0, std::memory_order_relaxed);
  }
  return *this;
}

namespace {

#ifndef NDEBUG
/// Non-zero token identifying the calling thread for the single-writer
/// check (hash values are stable per thread for its lifetime).
std::uint64_t writer_token() noexcept {
  const auto h = std::hash<std::thread::id>{}(std::this_thread::get_id());
  return static_cast<std::uint64_t>(h) | 1;
}
#endif

}  // namespace

void MetricsRegistry::assert_writer() noexcept {
#ifndef NDEBUG
  // First mutator claims the registry; later mutations must come from the
  // same thread (a move hands the maps to a new, unclaimed registry).
  std::uint64_t expected = 0;
  const std::uint64_t self = writer_token();
  if (!writer_.compare_exchange_strong(expected, self,
                                       std::memory_order_relaxed)) {
    assert(expected == self &&
           "MetricsRegistry: second writer thread on an unshared registry "
           "(threading contract, DESIGN.md §6)");
  }
#endif
}

Counter* MetricsRegistry::counter(std::string_view name) {
  assert_writer();
  return get_or_create(counters_, name);
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  assert_writer();
  return get_or_create(gauges_, name);
}

Histogram* MetricsRegistry::histogram(std::string_view name) {
  assert_writer();
  return get_or_create(histograms_, name);
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  return find_in(counters_, name);
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  return find_in(gauges_, name);
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name) const {
  return find_in(histograms_, name);
}

void MetricsRegistry::reset_accumulators() {
  assert_writer();
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  assert_writer();
  for (const auto& [name, c] : other.counters_) {
    counter(name)->inc(c->value());
  }
  for (const auto& [name, g] : other.gauges_) {
    gauge(name)->set(g->value());
  }
  for (const auto& [name, h] : other.histograms_) {
    histogram(name)->merge_from(*h);
  }
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot_state() const {
  Snapshot snap;
  for (const auto& [name, c] : counters_) snap.counters.emplace(name, c->value());
  for (const auto& [name, g] : gauges_) snap.gauges.emplace(name, g->value());
  for (const auto& [name, h] : histograms_) snap.histograms.emplace(name, *h);
  return snap;
}

void MetricsRegistry::restore_state(const Snapshot& snap) {
  assert_writer();
  for (auto& [name, c] : counters_) {
    auto it = snap.counters.find(name);
    c->set(it == snap.counters.end() ? 0 : it->second);
  }
  for (auto& [name, g] : gauges_) {
    auto it = snap.gauges.find(name);
    g->set(it == snap.gauges.end() ? 0.0 : it->second);
  }
  for (auto& [name, h] : histograms_) {
    auto it = snap.histograms.find(name);
    if (it == snap.histograms.end()) {
      h->reset();
    } else {
      *h = it->second;
    }
  }
}

std::string MetricsRegistry::to_json() const {
  std::string out = "{";
  out += "\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    append_number(out, c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    append_number(out, g->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ":{\"count\":";
    append_number(out, h->count());
    out += ",\"sum\":";
    append_number(out, h->sum());
    out += ",\"min\":";
    append_number(out, h->min());
    out += ",\"max\":";
    append_number(out, h->max());
    out += ",\"mean\":";
    append_number(out, h->mean());
    out += ",\"p50\":";
    append_number(out, h->quantile(0.5));
    out += ",\"p90\":";
    append_number(out, h->quantile(0.9));
    out += ",\"p99\":";
    append_number(out, h->quantile(0.99));
    out += ",\"buckets\":[";
    bool first_bucket = true;
    for (std::size_t i = 0; i < Histogram::kBucketCount; ++i) {
      if (h->bucket_count(i) == 0) continue;
      if (!first_bucket) out += ',';
      first_bucket = false;
      out += "{\"lo\":";
      append_number(out, Histogram::bucket_lower(i));
      out += ",\"hi\":";
      append_number(out, Histogram::bucket_upper(i));
      out += ",\"n\":";
      append_number(out, h->bucket_count(i));
      out += '}';
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

}  // namespace dragon::obs
