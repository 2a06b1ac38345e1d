#include "obs/trace.hpp"

#include <cstdio>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace dragon::obs {

namespace {

/// One row per kind, in EventKind order: the JSONL name, then the
/// registry counter that counts the kind's events as its
/// `dragon.<subsystem>.<name>` parts (none for the kinds the engine only
/// traces).
struct KindNames {
  EventKind kind;
  const char* trace;
  const char* subsystem;
  const char* counter;
};

constexpr KindNames kKindNames[kEventKindCount] = {
    {EventKind::kAnnounce, "announce", "engine", "announcements"},
    {EventKind::kWithdraw, "withdraw", "engine", "withdrawals"},
    {EventKind::kRecvAnnounce, "recv_announce", nullptr, nullptr},
    {EventKind::kRecvWithdraw, "recv_withdraw", nullptr, nullptr},
    {EventKind::kElect, "elect", nullptr, nullptr},
    {EventKind::kFilter, "filter", "dragon", "filter_transitions"},
    {EventKind::kUnfilter, "unfilter", "dragon", "unfilter_transitions"},
    {EventKind::kFibInstall, "fib_install", "engine", "fib_installs"},
    {EventKind::kFibRemove, "fib_remove", "engine", "fib_removals"},
    {EventKind::kMraiFlush, "mrai_flush", "engine", "mrai_flushes"},
    {EventKind::kRaViolation, "ra_violation", "dragon", "ra_violations"},
    {EventKind::kDeaggregate, "deaggregate", "dragon", "deaggregations"},
    {EventKind::kReaggregate, "reaggregate", "dragon", "reaggregations"},
    {EventKind::kDowngrade, "downgrade", "dragon", "downgrades"},
    {EventKind::kAggOriginate, "agg_originate", "dragon", "agg_originations"},
    {EventKind::kAggStop, "agg_stop", nullptr, nullptr},
    {EventKind::kLinkFail, "link_fail", nullptr, nullptr},
    {EventKind::kLinkRestore, "link_restore", nullptr, nullptr},
    {EventKind::kMsgLost, "msg_lost", "engine", "msgs_lost"},
    {EventKind::kMsgDup, "msg_dup", "engine", "msgs_dup"},
    {EventKind::kMsgStale, "msg_stale", "engine", "msgs_stale"},
    {EventKind::kNodeCrash, "node_crash", "session", "node_crashes"},
    {EventKind::kNodeRestart, "node_restart", "session", "node_restarts"},
    {EventKind::kSessionUp, "session_up", "session", "established"},
    {EventKind::kSessionDown, "session_down", "session", "torn_down"},
    {EventKind::kHoldExpire, "hold_expire", "session", "hold_expiries"},
    {EventKind::kStaleRetain, "stale_retain", nullptr, nullptr},
    {EventKind::kStaleSweep, "stale_sweep", nullptr, nullptr},
    {EventKind::kEorSend, "eor_send", "session", "eor_sent"},
    {EventKind::kEorRecv, "eor_recv", "session", "eor_received"},
};

constexpr bool rows_follow_enum_order() {
  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    if (static_cast<std::size_t>(kKindNames[k].kind) != k) return false;
  }
  return true;
}
static_assert(rows_follow_enum_order());

}  // namespace

const char* to_string(EventKind kind) noexcept {
  const auto k = static_cast<std::size_t>(kind);
  return k < kEventKindCount ? kKindNames[k].trace : "unknown";
}

std::string counter_name(EventKind kind) {
  const KindNames& row = kKindNames[static_cast<std::size_t>(kind)];
  if (row.counter == nullptr) return {};
  return std::string("dragon.") + row.subsystem + "." + row.counter;
}

std::uint64_t count(const MetricsRegistry& registry, EventKind kind) {
  const std::string name = counter_name(kind);
  if (name.empty()) {
    throw std::invalid_argument(std::string("no registry counter counts \"") +
                                to_string(kind) + "\" events");
  }
  const Counter* c = registry.find_counter(name);
  return c != nullptr ? c->value() : 0;
}

std::uint64_t updates(const MetricsRegistry& registry) {
  return count(registry, EventKind::kAnnounce) +
         count(registry, EventKind::kWithdraw);
}

std::string TraceRecord::to_json() const {
  char buf[96];
  std::string out;
  out.reserve(96);
  std::snprintf(buf, sizeof(buf), "{\"t\":%.9g,\"kind\":\"%s\",\"node\":%u",
                sim_time, to_string(kind), node);
  out += buf;
  if (peer >= 0) {
    std::snprintf(buf, sizeof(buf), ",\"peer\":%lld",
                  static_cast<long long>(peer));
    out += buf;
  }
  if (has_prefix) {
    out += ",\"prefix\":\"";
    out += prefix.to_bit_string();
    out += '"';
  }
  if (has_attr) {
    std::snprintf(buf, sizeof(buf), ",\"attr\":%u", attr);
    out += buf;
  }
  out += '}';
  return out;
}

EventTracer::EventTracer(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity) {}

EventTracer::~EventTracer() {
  flush();
  close_sink();
}

void EventTracer::close_sink() noexcept {
  if (sink_ != nullptr) {
    std::fclose(sink_);
    sink_ = nullptr;
  }
}

bool EventTracer::open_sink(const std::string& path) {
  flush();
  close_sink();
  sink_ = std::fopen(path.c_str(), "w");
  return sink_ != nullptr;
}

void EventTracer::push(const TraceRecord& rec) {
  ++recorded_;
  if (size_ == ring_.size()) {
    if (sink_ != nullptr) {
      flush();
    } else {
      // Wrap: overwrite the oldest record.
      ring_[head_] = rec;
      head_ = (head_ + 1) % ring_.size();
      ++dropped_;
      return;
    }
  }
  ring_[(head_ + size_) % ring_.size()] = rec;
  ++size_;
}

void EventTracer::record(double sim_time, EventKind kind, std::uint32_t node) {
  TraceRecord rec;
  rec.sim_time = sim_time;
  rec.kind = kind;
  rec.node = node;
  push(rec);
}

void EventTracer::record(double sim_time, EventKind kind, std::uint32_t node,
                         std::int64_t peer) {
  TraceRecord rec;
  rec.sim_time = sim_time;
  rec.kind = kind;
  rec.node = node;
  rec.peer = peer;
  push(rec);
}

void EventTracer::record(double sim_time, EventKind kind, std::uint32_t node,
                         const prefix::Prefix& p) {
  TraceRecord rec;
  rec.sim_time = sim_time;
  rec.kind = kind;
  rec.node = node;
  rec.prefix = p;
  rec.has_prefix = true;
  push(rec);
}

void EventTracer::record(double sim_time, EventKind kind, std::uint32_t node,
                         const prefix::Prefix& p, std::uint32_t attr) {
  TraceRecord rec;
  rec.sim_time = sim_time;
  rec.kind = kind;
  rec.node = node;
  rec.prefix = p;
  rec.has_prefix = true;
  rec.attr = attr;
  rec.has_attr = true;
  push(rec);
}

void EventTracer::record(double sim_time, EventKind kind, std::uint32_t node,
                         std::int64_t peer, const prefix::Prefix& p,
                         std::uint32_t attr) {
  TraceRecord rec;
  rec.sim_time = sim_time;
  rec.kind = kind;
  rec.node = node;
  rec.peer = peer;
  rec.prefix = p;
  rec.has_prefix = true;
  rec.attr = attr;
  rec.has_attr = true;
  push(rec);
}

void EventTracer::note(const std::string& json_line) {
  if (sink_ == nullptr) return;
  flush();
  std::fwrite(json_line.data(), 1, json_line.size(), sink_);
  std::fputc('\n', sink_);
}

void EventTracer::export_metrics(MetricsRegistry& registry) const {
  registry.counter("dragon.obs.trace.recorded")->set(recorded_);
  registry.counter("dragon.obs.trace.dropped")->set(dropped_);
  registry.counter("dragon.obs.trace.flushes")->set(flushes_);
}

void EventTracer::flush() {
  if (sink_ == nullptr) return;
  if (size_ > 0) ++flushes_;
  for_each([this](const TraceRecord& rec) {
    const std::string line = rec.to_json();
    std::fwrite(line.data(), 1, line.size(), sink_);
    std::fputc('\n', sink_);
  });
  size_ = 0;
  head_ = 0;
  std::fflush(sink_);
}

void EventTracer::clear() noexcept {
  size_ = 0;
  head_ = 0;
}

void EventTracer::for_each(
    const std::function<void(const TraceRecord&)>& fn) const {
  for (std::size_t i = 0; i < size_; ++i) {
    fn(ring_[(head_ + i) % ring_.size()]);
  }
}

}  // namespace dragon::obs
