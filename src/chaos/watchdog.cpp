#include "chaos/watchdog.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <set>
#include <vector>

namespace dragon::chaos {

namespace {

using topology::NodeId;

constexpr std::size_t kMaxHistory = 1024;  // the transient start falls off
constexpr std::size_t kMinCycles = 3;

/// One splitmix64-style mixing step; order-sensitive, which is fine — the
/// per-node route iteration order is stable within a run (FlatTable is
/// append-only), and digests are only ever compared between samples of
/// the same run or between runs with identical histories.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) noexcept {
  h += 0x9e3779b97f4a7c15ull + v;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

struct Sample {
  std::uint64_t digest = 0;
  /// Nodes whose per-node digest differs from the previous sample.
  std::vector<NodeId> changed;
};

/// Per-node digest of everything the control plane decides: elected
/// attribute, DRAGON filter flag, and live origination, per prefix.
std::vector<std::uint64_t> node_digests(const engine::Simulator& sim) {
  std::vector<std::uint64_t> out(sim.topology_used().node_count(),
                                 0x51ed270b0a1c6575ull);
  sim.for_each_route([&out](NodeId n, const prefix::Prefix& p,
                            const engine::RouteEntry& e) {
    std::uint64_t h = out[n];
    h = mix(h, (std::uint64_t{p.bits()} << 6) ^
                   static_cast<std::uint64_t>(p.length()));
    h = mix(h, e.elected);
    h = mix(h, static_cast<std::uint64_t>(e.filtered ? 1 : 0) |
                   ((e.originated && !e.origin_paused) ? 2u : 0u));
    out[n] = h;
  });
  return out;
}

std::uint64_t global_digest(const std::vector<std::uint64_t>& nodes) {
  std::uint64_t h = 0x2545f4914f6cdd1dull;
  for (const std::uint64_t d : nodes) h = mix(h, d);
  return h;
}

/// Smallest period p whose trailing window of comparisons all satisfy
/// h[j] == h[j-p]; 0 when no period fits the history.  The window spans
/// at least kMinCycles-1 full cycles AND at least kMinPeriodWindow
/// comparisons: a small p checked over (kMinCycles-1)*p samples alone
/// would accept coincidental short repeats inside a longer true cycle
/// (the RIB projection of the full protocol state revisits digests
/// within one oscillation).
std::size_t detect_period(const std::vector<Sample>& hist) {
  constexpr std::size_t kMinPeriodWindow = 32;
  const std::size_t len = hist.size();
  for (std::size_t p = 1; kMinCycles * p <= len; ++p) {
    const std::size_t window =
        std::min(len - p, std::max((kMinCycles - 1) * p, kMinPeriodWindow));
    bool ok = true;
    for (std::size_t j = len - window; j < len; ++j) {
      if (hist[j].digest != hist[j - p].digest) {
        ok = false;
        break;
      }
    }
    if (ok) return p;
  }
  return 0;
}

std::string describe_stall(const engine::Simulator& sim,
                           const WatchdogLimits& limits,
                           const WatchdogResult& result,
                           const obs::EventTracer* tracer) {
  char buf[256];
  std::string out = "convergence watchdog fired: simulator not quiescent\n";
  std::snprintf(buf, sizeof(buf),
                "  t=%.6f  events_processed=%zu  queue_depth=%zu\n"
                "  budgets: horizon=%.6g events=%zu\n",
                sim.now(), result.events, sim.queue_depth(),
                limits.max_sim_horizon, limits.max_events);
  out += buf;
  if (limits.classify) {
    std::snprintf(buf, sizeof(buf),
                  "  classification=%s period=%zu participants=%zu "
                  "samples=%zu digest=%016" PRIx64 "\n",
                  to_string(result.classification), result.period,
                  result.participants.size(), result.samples,
                  result.state_digest);
    out += buf;
    if (!result.participants.empty()) {
      out += "  oscillating nodes:";
      for (const NodeId n : result.participants) {
        std::snprintf(buf, sizeof(buf), " %u", n);
        out += buf;
      }
      out += '\n';
    }
  }
  const auto count = [&sim](obs::EventKind kind) {
    return static_cast<unsigned long long>(obs::count(sim.metrics(), kind));
  };
  std::snprintf(buf, sizeof(buf),
                "  updates: %llu announcements, %llu withdrawals; "
                "deagg=%llu reagg=%llu downgrades=%llu agg_orig=%llu\n",
                count(obs::EventKind::kAnnounce),
                count(obs::EventKind::kWithdraw),
                count(obs::EventKind::kDeaggregate),
                count(obs::EventKind::kReaggregate),
                count(obs::EventKind::kDowngrade),
                count(obs::EventKind::kAggOriginate));
  out += buf;
  const obs::Gauge* fib = sim.metrics().find_gauge("dragon.engine.fib_entries");
  std::snprintf(buf, sizeof(buf), "  fib_entries=%.0f msgs_lost=%llu\n",
                fib != nullptr ? fib->value() : 0.0,
                count(obs::EventKind::kMsgLost));
  out += buf;
  if (tracer != nullptr && tracer->size() > 0) {
    // Tail of the trace ring: the protocol's last moves before the stall.
    constexpr std::size_t kTail = 40;
    std::vector<std::string> lines;
    tracer->for_each([&](const obs::TraceRecord& rec) {
      lines.push_back(rec.to_json());
    });
    const std::size_t from = lines.size() > kTail ? lines.size() - kTail : 0;
    std::snprintf(buf, sizeof(buf), "  trace tail (%zu of %zu buffered):\n",
                  lines.size() - from, lines.size());
    out += buf;
    for (std::size_t i = from; i < lines.size(); ++i) {
      out += "    ";
      out += lines[i];
      out += '\n';
    }
  }
  return out;
}

}  // namespace

const char* to_string(Quiescence q) noexcept {
  switch (q) {
    case Quiescence::kConverged: return "converged";
    case Quiescence::kOscillating: return "oscillating";
    case Quiescence::kLivelock: return "livelock";
  }
  return "unknown";
}

WatchdogResult run_to_quiescence(engine::Simulator& sim,
                                 const WatchdogLimits& limits,
                                 const obs::EventTracer* tracer) {
  WatchdogResult result;

  if (!limits.classify) {
    // Legacy path: one bounded run, no sampling overhead.
    const auto run =
        sim.run_bounded(sim.now() + limits.max_sim_horizon, limits.max_events);
    result.quiescent = run.quiescent;
    result.events = run.events;
    result.end_time = sim.now();
    if (!run.quiescent) {
      result.classification = Quiescence::kLivelock;
      result.diagnostics = describe_stall(sim, limits, result, tracer);
    }
    return result;
  }

  const double deadline = sim.now() + limits.max_sim_horizon;
  const std::size_t batch =
      limits.sample_every_events > 0 ? limits.sample_every_events : 1;
  std::vector<Sample> history;
  std::vector<std::uint64_t> prev;
  while (true) {
    const std::size_t room = limits.max_events - result.events;
    const std::size_t want = std::min(batch, room);
    const auto run = sim.run_bounded(deadline, want);
    result.events += run.events;
    if (run.quiescent) {
      result.quiescent = true;
      break;
    }
    if (run.events == batch) {
      // Sample the RIB state at this batch boundary.  Only full batches
      // are sampled: every sample then sits on a fixed event-count grid,
      // which the period detector requires — a short tail batch (event
      // budget not a multiple of the cadence, or horizon hit mid-batch)
      // would append one phase-misaligned sample, and a single misphased
      // entry at the end of the history defeats every candidate period.
      std::vector<std::uint64_t> cur = node_digests(sim);
      Sample s;
      s.digest = global_digest(cur);
      if (prev.size() == cur.size()) {
        for (NodeId n = 0; n < cur.size(); ++n) {
          if (cur[n] != prev[n]) s.changed.push_back(n);
        }
      }
      prev = std::move(cur);
      history.push_back(std::move(s));
      if (history.size() > kMaxHistory) history.erase(history.begin());
      ++result.samples;
    }
    // Budget exhaustion: the event budget is spent, or the run stopped
    // short of its batch (sim-time horizon reached, possibly mid-batch).
    if (result.events >= limits.max_events || run.events < want) break;
  }

  result.end_time = sim.now();
  result.state_digest = global_digest(node_digests(sim));
  if (result.quiescent) {
    result.classification = Quiescence::kConverged;
    return result;
  }

  const std::size_t period = detect_period(history);
  std::set<NodeId> members;
  if (period > 0) {
    for (std::size_t j = history.size() - period; j < history.size(); ++j) {
      members.insert(history[j].changed.begin(), history[j].changed.end());
    }
  }
  if (period > 0 && !members.empty()) {
    result.classification = Quiescence::kOscillating;
    result.period = period;
    result.participants.assign(members.begin(), members.end());
  } else {
    // No periodic signature (or a constant digest with a busy queue):
    // aperiodic divergence or state-invisible event churn.
    result.classification = Quiescence::kLivelock;
  }
  result.diagnostics = describe_stall(sim, limits, result, tracer);
  return result;
}

}  // namespace dragon::chaos
