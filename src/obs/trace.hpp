// Structured event tracing for the protocol engine.
//
// The engine emits typed records {sim_time, node, prefix, event_kind,
// attr} into an EventTracer's ring buffer at every externally relevant
// transition (message send/receive, election change, filter flip, FIB
// delta, MRAI flush, RA action, link event).  Records are flushed to a
// JSONL sink — one JSON object per line — either on demand or
// automatically whenever the ring fills while a sink is attached.  With
// no sink attached the ring wraps, overwriting the oldest records and
// counting the drops, so an always-on tracer stays bounded.
//
// EventKind is also the engine's counting vocabulary: counter_name() maps
// each kind to the registry counter that counts its events (or to none),
// and the engine counts and traces an event in one call, so a run without
// a tracer pays one null check per event for the trace.
//
// JSONL schema (DESIGN.md "Observability"):
//   {"t":<sim seconds>,"kind":"<event>","node":<id>
//    [,"peer":<id>][,"prefix":"<bit string>"][,"attr":<u32>]}
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "prefix/prefix.hpp"

namespace dragon::obs {

class MetricsRegistry;

enum class EventKind : std::uint8_t {
  kAnnounce,      // update put on the wire
  kWithdraw,      // withdrawal put on the wire
  kRecvAnnounce,  // update delivered (post import policy)
  kRecvWithdraw,  // withdrawal delivered
  kElect,         // elected attribute changed
  kFilter,        // DRAGON code CR started filtering the prefix
  kUnfilter,      // ... stopped filtering
  kFibInstall,    // forwarding entry installed
  kFibRemove,     // forwarding entry removed
  kMraiFlush,     // an MRAI batch left for a peer
  kRaViolation,   // rule RA found a violating more-specific
  kDeaggregate,   // origin de-aggregated its block (§3.8)
  kReaggregate,   // origin restored the aggregate
  kDowngrade,     // origin downgraded the root announcement (§3.9)
  kAggOriginate,  // §3.7 self-organised aggregate origination
  kAggStop,       // ... withdrawn again
  kLinkFail,
  kLinkRestore,
  kMsgLost,       // chaos: update dropped on the wire (retransmitted later)
  kMsgDup,        // chaos: update delivered twice
  kMsgStale,      // reordered delivery discarded by the sequence guard
  kNodeCrash,     // node lost its volatile control-plane state
  kNodeRestart,   // crashed node came back; re-sync begins
  kSessionUp,     // peering session (re-)established (peer in `peer`)
  kSessionDown,   // peering session torn down
  kHoldExpire,    // hold timer expired (node's view of `peer`)
  kStaleRetain,   // graceful restart: routes from `peer` marked stale
  kStaleSweep,    // stale retention cycle closed (EoR or window expiry)
  kEorSend,       // End-of-RIB marker sent to `peer`
  kEorRecv,       // End-of-RIB marker received from `peer`
};

/// Number of kinds (kEorRecv stays the last enumerator).
inline constexpr std::size_t kEventKindCount =
    static_cast<std::size_t>(EventKind::kEorRecv) + 1;

/// The kind's JSONL name ("announce", "fib_install", ...).
[[nodiscard]] const char* to_string(EventKind kind) noexcept;

/// The registry counter that counts the kind's events
/// (`dragon.<subsystem>.<name>`), or "" for a kind that is only traced.
[[nodiscard]] std::string counter_name(EventKind kind);

/// The kind's event count in a registry the engine filled: a simulator's
/// own, a copy of it, or a merge of several (0 when the counter was never
/// created there).  Throws std::invalid_argument for a kind no counter
/// counts.
[[nodiscard]] std::uint64_t count(const MetricsRegistry& registry,
                                  EventKind kind);

/// Network-wide updates (announcements + withdrawals): the paper's Fig. 9
/// convergence metric.
[[nodiscard]] std::uint64_t updates(const MetricsRegistry& registry);

struct TraceRecord {
  double sim_time = 0.0;
  std::uint32_t node = 0;
  /// Peer node for message/link events; -1 when not applicable.
  std::int64_t peer = -1;
  prefix::Prefix prefix;
  bool has_prefix = false;
  EventKind kind = EventKind::kAnnounce;
  std::uint32_t attr = 0;
  bool has_attr = false;

  /// The record as a single JSON object (no trailing newline).
  [[nodiscard]] std::string to_json() const;
};

class EventTracer {
 public:
  explicit EventTracer(std::size_t capacity = 1 << 16);
  ~EventTracer();

  EventTracer(const EventTracer&) = delete;
  EventTracer& operator=(const EventTracer&) = delete;

  /// Opens `path` as the JSONL sink (truncates).  Returns false on I/O
  /// failure.  The file is closed on destruction or re-open.
  bool open_sink(const std::string& path);

  void record(double sim_time, EventKind kind, std::uint32_t node);
  void record(double sim_time, EventKind kind, std::uint32_t node,
              std::int64_t peer);
  void record(double sim_time, EventKind kind, std::uint32_t node,
              const prefix::Prefix& p);
  void record(double sim_time, EventKind kind, std::uint32_t node,
              const prefix::Prefix& p, std::uint32_t attr);
  void record(double sim_time, EventKind kind, std::uint32_t node,
              std::int64_t peer, const prefix::Prefix& p, std::uint32_t attr);
  void push(const TraceRecord& rec);

  /// Writes a bench-authored annotation line to the sink (e.g.
  /// {"kind":"trial_end",...}) after draining the ring, so annotations
  /// interleave in order with traced events.  No-op without a sink.
  void note(const std::string& json_line);

  /// Drains buffered records to the sink.  No-op without a sink.
  void flush();

  /// Drops all buffered records without writing them.
  void clear() noexcept;

  /// Records currently buffered (not yet flushed / overwritten).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  /// Records overwritten because the ring wrapped with no sink attached.
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  /// Total records ever recorded.
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
  /// Ring drains that wrote at least one record to the sink (explicit
  /// flush() calls and the automatic full-ring flushes alike).
  [[nodiscard]] std::uint64_t flushes() const noexcept { return flushes_; }

  /// Publishes the tracer's loss accounting as registry counters —
  /// dragon.obs.trace.{recorded,dropped,flushes} — so silent ring-wrap
  /// loss shows up in --metrics-json artifacts next to the protocol
  /// counters instead of only on stderr.
  void export_metrics(MetricsRegistry& registry) const;

  /// Visits buffered records oldest-first.
  void for_each(const std::function<void(const TraceRecord&)>& fn) const;

 private:
  void close_sink() noexcept;

  std::vector<TraceRecord> ring_;
  std::size_t head_ = 0;  // index of the oldest record
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t flushes_ = 0;
  std::FILE* sink_ = nullptr;
};

}  // namespace dragon::obs
