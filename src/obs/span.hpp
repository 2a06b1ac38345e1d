// Execution-span profiler: where wall-clock goes inside the runtime.
//
// The protocol tracer (obs/trace.hpp) records *what the protocol did*;
// this layer records *where the threads spent their time* — chunk
// execution vs. idle vs. ordered-commit wait — so a scaling regression
// decomposes into attributable seconds instead of a single speedup ratio.
//
// Design (one writer per buffer, like a metrics registry, DESIGN.md §6):
//   * Per-thread fixed-capacity ring buffers.  Every thread writes spans
//     only into its own buffer — no locks, no CAS on the hot path; the
//     single cross-thread handoff is a release store of the push count.
//     A full ring wraps, overwriting the oldest record and counting the
//     loss, so an always-on profiler stays bounded.
//   * Static span sites.  DRAGON_SPAN declares a function-local static
//     SpanSite carrying the category/name/arg-key string literals plus
//     atomic {calls, total_ns} accumulators, registered on a global
//     intrusive list at first pass.  Site totals are exact even after
//     rings wrap, which is what the benches stamp into their metrics
//     artifacts.
//   * Steady-clock timestamps relative to one process-wide epoch, so
//     spans from different threads merge onto a single timeline.
//   * Disabled cost: one relaxed atomic load and a branch per scope
//     (span_enable(false), the default).
//
// Reader contract: span_collect(), span_reset(), and the export layer
// (obs/trace_export.hpp) read ring contents non-atomically and must only
// run while no instrumented thread is pushing — in practice, after
// ThreadPool workers were joined (thread join gives the happens-before
// edge) or from the only thread that recorded.  The benches export after
// destroying their pools; tests follow the same discipline, which keeps
// the tsan preset clean without hot-path locks.
//
// See DESIGN.md §11 ("Execution tracing").
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dragon::obs {

/// Arms/disarms span recording process-wide.  Enable before spawning
/// instrumented threads: worker threads name their buffers at startup
/// only when recording is already on.
void span_enable(bool on);
[[nodiscard]] bool span_enabled() noexcept;

/// Nanoseconds since the process-wide span epoch (steady clock; the
/// epoch is captured on first use, so all values are small positives).
[[nodiscard]] std::uint64_t span_now_ns() noexcept;

/// Nanoseconds of CPU time consumed by the *calling thread*
/// (CLOCK_THREAD_CPUTIME_ID; 0 where unavailable).  The wall/cpu gap of
/// a span is time the thread sat descheduled — the signature of an
/// oversubscribed pool, invisible to wall clocks alone.
[[nodiscard]] std::uint64_t span_thread_cpu_ns() noexcept;

/// One instrumented source location.  The string pointers must have
/// static storage duration (the DRAGON_SPAN macros pass literals);
/// `arg_keys` name the per-record argument slots, nullptr when unused.
struct SpanSite {
  explicit SpanSite(const char* site_category, const char* site_name,
                    const char* arg_key0 = nullptr,
                    const char* arg_key1 = nullptr,
                    const char* arg_key2 = nullptr);

  const char* category;
  const char* name;
  const char* arg_keys[3];
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> total_ns{0};
  /// Thread CPU time inside the span (wall minus cpu = descheduled).
  std::atomic<std::uint64_t> total_cpu_ns{0};
  SpanSite* next = nullptr;  // global registration list
};

/// One completed span as stored in a ring buffer (72 bytes).
struct SpanRecord {
  const SpanSite* site = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  /// Thread CPU clock at span start and CPU time consumed inside the
  /// span (see span_thread_cpu_ns); exported as Chrome "tts"/"tdur".
  std::uint64_t cpu_start_ns = 0;
  std::uint64_t cpu_dur_ns = 0;
  std::uint64_t args[3] = {0, 0, 0};
};

/// Fixed-capacity single-writer ring of completed spans.  push() is the
/// owning thread's hot path; everything else is reader-side and falls
/// under the quiescence contract above.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t capacity);

  SpanBuffer(const SpanBuffer&) = delete;
  SpanBuffer& operator=(const SpanBuffer&) = delete;

  /// Appends `rec`, overwriting the oldest record when full (owning
  /// thread only).
  void push(const SpanRecord& rec) noexcept {
    const std::uint64_t n = pushed_.load(std::memory_order_relaxed);
    ring_[static_cast<std::size_t>(n % ring_.size())] = rec;
    pushed_.store(n + 1, std::memory_order_release);
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  /// Total records ever pushed.
  [[nodiscard]] std::uint64_t pushed() const noexcept {
    return pushed_.load(std::memory_order_acquire);
  }
  /// Records lost to ring wrap (pushed minus what snapshot() can return).
  [[nodiscard]] std::uint64_t dropped() const noexcept;
  /// Records currently held (min(pushed, capacity)).
  [[nodiscard]] std::size_t size() const noexcept;

  /// Copies the buffered records oldest-first into `out` (appended).
  void snapshot(std::vector<SpanRecord>& out) const;
  /// Drops all buffered records and the drop count.
  void clear() noexcept;

  [[nodiscard]] std::uint32_t tid() const noexcept { return tid_; }
  [[nodiscard]] const std::string& thread_name() const noexcept {
    return thread_name_;
  }
  void set_thread_name(std::string name) { thread_name_ = std::move(name); }

 private:
  friend SpanBuffer& span_local_buffer();

  std::vector<SpanRecord> ring_;
  std::atomic<std::uint64_t> pushed_{0};
  std::uint32_t tid_ = 0;  // registration index, stable for the process
  std::string thread_name_;
};

/// The calling thread's buffer, registered (and default-named
/// "thread-<tid>") on first use.  Buffers persist for the process
/// lifetime — a worker's spans stay exportable after the pool joined.
[[nodiscard]] SpanBuffer& span_local_buffer();

/// Names the calling thread's buffer for the trace export ("main",
/// "pool.worker-3", ...).  No-op while recording is disabled, so idle
/// programs never allocate ring memory.
void span_set_thread_name(const std::string& name);

/// Ring capacity (records) for buffers registered *after* this call;
/// existing buffers keep theirs.  Default 8192 (~384 KiB per thread).
void span_set_default_capacity(std::size_t records);

/// A consistent copy of one thread's buffer, as returned by
/// span_collect().
struct ThreadSpans {
  std::uint32_t tid = 0;
  std::string thread_name;
  std::uint64_t pushed = 0;
  std::uint64_t dropped = 0;
  std::vector<SpanRecord> records;  // oldest-first
};

/// Snapshots every registered buffer, ordered by tid (reader contract:
/// instrumented threads must be quiescent or joined).
[[nodiscard]] std::vector<ThreadSpans> span_collect();

/// Clears every buffer and zeroes every site accumulator; registrations
/// and thread names survive (tests, and per-phase deltas that want a
/// clean origin).  Same reader contract as span_collect().
void span_reset();

/// Aggregated per-site totals, merged by (category, name) across
/// duplicate sites and sorted by category then name.  Totals accumulate
/// independently of ring wrap, so phase deltas (totals_after minus
/// totals_before) are exact even on long runs.
struct SpanSiteTotals {
  const char* category = nullptr;
  const char* name = nullptr;
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  /// Thread CPU time across all calls; total_ns - cpu_ns is time spent
  /// descheduled (or blocked) inside the span.
  std::uint64_t cpu_ns = 0;
};
[[nodiscard]] std::vector<SpanSiteTotals> span_site_totals();

/// RAII guard: measures construction-to-destruction and pushes one
/// record into the calling thread's buffer (plus the site accumulators).
/// Arguments not supplied at construction can be filled in before the
/// scope closes via set_arg (e.g. a drain span recording how many events
/// it processed).
class SpanScope {
 public:
  explicit SpanScope(SpanSite& site, std::uint64_t a0 = 0, std::uint64_t a1 = 0,
                     std::uint64_t a2 = 0) noexcept {
    if (span_enabled()) {
      site_ = &site;
      args_[0] = a0;
      args_[1] = a1;
      args_[2] = a2;
      start_ = span_now_ns();
      cpu_start_ = span_thread_cpu_ns();
    }
  }

  ~SpanScope() {
    if (site_ == nullptr) return;
    SpanRecord rec;
    rec.site = site_;
    rec.start_ns = start_;
    rec.dur_ns = span_now_ns() - start_;
    rec.cpu_start_ns = cpu_start_;
    rec.cpu_dur_ns = span_thread_cpu_ns() - cpu_start_;
    rec.args[0] = args_[0];
    rec.args[1] = args_[1];
    rec.args[2] = args_[2];
    site_->calls.fetch_add(1, std::memory_order_relaxed);
    site_->total_ns.fetch_add(rec.dur_ns, std::memory_order_relaxed);
    site_->total_cpu_ns.fetch_add(rec.cpu_dur_ns, std::memory_order_relaxed);
    span_local_buffer().push(rec);
  }

  /// Overwrites argument slot `i` (0..2); value appears in the record.
  void set_arg(std::size_t i, std::uint64_t v) noexcept {
    if (site_ != nullptr && i < 3) args_[i] = v;
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanSite* site_ = nullptr;
  std::uint64_t start_ = 0;
  std::uint64_t cpu_start_ = 0;
  std::uint64_t args_[3] = {0, 0, 0};
};

}  // namespace dragon::obs

#define DRAGON_SPAN_CONCAT_INNER(a, b) a##b
#define DRAGON_SPAN_CONCAT(a, b) DRAGON_SPAN_CONCAT_INNER(a, b)

/// Declares a static span site and an RAII guard for the enclosing
/// scope.  `category` and `name` must be string literals, conventionally
/// category = subsystem ("pool", "exec", "engine", "chaos", "bench").
#define DRAGON_SPAN(category, name)                                      \
  static ::dragon::obs::SpanSite DRAGON_SPAN_CONCAT(dragon_span_site_,   \
                                                    __LINE__){category,  \
                                                              name};     \
  ::dragon::obs::SpanScope DRAGON_SPAN_CONCAT(dragon_span_scope_,        \
                                              __LINE__)(                 \
      DRAGON_SPAN_CONCAT(dragon_span_site_, __LINE__))

/// Like DRAGON_SPAN with one named u64 argument attached to every record
/// from this site (`key` must be a string literal).
#define DRAGON_SPAN_ARG(category, name, key, value)                      \
  static ::dragon::obs::SpanSite DRAGON_SPAN_CONCAT(dragon_span_site_,   \
                                                    __LINE__){category,  \
                                                              name, key}; \
  ::dragon::obs::SpanScope DRAGON_SPAN_CONCAT(dragon_span_scope_,        \
                                              __LINE__)(                 \
      DRAGON_SPAN_CONCAT(dragon_span_site_, __LINE__),                   \
      static_cast<std::uint64_t>(value))

/// Three named u64 arguments (e.g. chunk index + item range).
#define DRAGON_SPAN_ARG3(category, name, key0, value0, key1, value1,     \
                         key2, value2)                                   \
  static ::dragon::obs::SpanSite DRAGON_SPAN_CONCAT(dragon_span_site_,   \
                                                    __LINE__){           \
      category, name, key0, key1, key2};                                 \
  ::dragon::obs::SpanScope DRAGON_SPAN_CONCAT(dragon_span_scope_,        \
                                              __LINE__)(                 \
      DRAGON_SPAN_CONCAT(dragon_span_site_, __LINE__),                   \
      static_cast<std::uint64_t>(value0),                                \
      static_cast<std::uint64_t>(value1),                                \
      static_cast<std::uint64_t>(value2))

/// Named-guard variant for scopes that fill arguments in later
/// (`var.set_arg(0, ...)`).
#define DRAGON_SPAN_NAMED(var, category, name, key0)                      \
  static ::dragon::obs::SpanSite DRAGON_SPAN_CONCAT(dragon_span_site_,    \
                                                    __LINE__){category,   \
                                                              name, key0}; \
  ::dragon::obs::SpanScope var(                                           \
      DRAGON_SPAN_CONCAT(dragon_span_site_, __LINE__))
