// Tests for the observability substrate (src/obs/): histogram bucket
// boundaries and quantile interpolation, registry semantics
// (reset/merge/snapshot), tracer JSONL well-formedness and ring
// wraparound, and timeline sampling.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "prefix/prefix.hpp"

namespace dragon::obs {

namespace layout_probe {
// Defined in metrics_layout_ndebug.cpp and metrics_layout_debug.cpp.
std::size_t registry_size_with_ndebug();
std::size_t registry_size_without_ndebug();
}  // namespace layout_probe

namespace {

// --- Histogram bucket geometry --------------------------------------------

TEST(Histogram, SmallValuesGetExactBuckets) {
  // Values 0..3 each map to their own bucket with width 1.
  for (std::uint64_t v = 0; v < Histogram::kSub; ++v) {
    const std::size_t i = Histogram::bucket_index(v);
    EXPECT_EQ(i, v);
    EXPECT_EQ(Histogram::bucket_lower(i), v);
    EXPECT_EQ(Histogram::bucket_upper(i), v + 1);
  }
}

TEST(Histogram, BucketBoundariesAreConsistent) {
  // Every probed value must land in a bucket whose [lower, upper) range
  // contains it, and buckets must tile: upper(i) == lower(i+1).
  std::vector<std::uint64_t> probes;
  for (std::uint64_t v = 0; v < 300; ++v) probes.push_back(v);
  for (int e = 8; e < 63; ++e) {
    const std::uint64_t p = std::uint64_t{1} << e;
    probes.insert(probes.end(), {p - 1, p, p + 1, p + p / 3});
  }
  probes.push_back(~std::uint64_t{0});
  for (std::uint64_t v : probes) {
    const std::size_t i = Histogram::bucket_index(v);
    ASSERT_LT(i, Histogram::kBucketCount) << "value " << v;
    EXPECT_GE(v, Histogram::bucket_lower(i)) << "value " << v;
    if (Histogram::bucket_upper(i) != 0) {  // 0 marks the open top bucket
      EXPECT_LT(v, Histogram::bucket_upper(i)) << "value " << v;
    }
  }
  for (std::size_t i = 0; i + 1 < Histogram::kBucketCount; ++i) {
    EXPECT_EQ(Histogram::bucket_upper(i), Histogram::bucket_lower(i + 1))
        << "bucket " << i;
  }
}

TEST(Histogram, BucketIndexIsMonotone) {
  std::size_t prev = 0;
  for (std::uint64_t v = 0; v < 100000; v = v < 256 ? v + 1 : v + v / 7) {
    const std::size_t i = Histogram::bucket_index(v);
    EXPECT_GE(i, prev) << "value " << v;
    prev = i;
  }
}

TEST(Histogram, RelativeBucketWidthIsBounded) {
  // Four sub-buckets per octave: width / lower <= 1/4 for values >= 4.
  for (std::uint64_t v = Histogram::kSub; v < (std::uint64_t{1} << 40);
       v += 1 + v / 3) {
    const std::size_t i = Histogram::bucket_index(v);
    const double lo = static_cast<double>(Histogram::bucket_lower(i));
    const double hi = static_cast<double>(Histogram::bucket_upper(i));
    EXPECT_LE((hi - lo) / lo, 0.25 + 1e-12) << "value " << v;
  }
}

// --- Histogram summary statistics and quantiles ---------------------------

TEST(Histogram, CountSumMinMaxMean) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  for (std::uint64_t v : {5u, 10u, 15u}) h.observe(v);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 30.0);
  EXPECT_EQ(h.min(), 5u);
  EXPECT_EQ(h.max(), 15u);
  EXPECT_DOUBLE_EQ(h.mean(), 10.0);
}

TEST(Histogram, QuantileOnEmptyIsZero) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, QuantileOfConstantIsExact) {
  // All mass in one small (width-1) bucket: every quantile is the value.
  Histogram h;
  for (int i = 0; i < 100; ++i) h.observe(3);
  for (double q : {0.0, 0.25, 0.5, 0.9, 1.0}) {
    EXPECT_DOUBLE_EQ(h.quantile(q), 3.0) << "q=" << q;
  }
}

TEST(Histogram, QuantileIsClampedToObservedRange) {
  Histogram h;
  h.observe(1000);  // one sample in a wide bucket
  EXPECT_GE(h.quantile(0.01), 1000.0);
  EXPECT_LE(h.quantile(0.99), 1000.0);
}

TEST(Histogram, QuantileInterpolatesAndOrders) {
  Histogram h;
  // Uniform 0..999: quantiles should approximate q*1000 within one
  // bucket's width (<= 25% relative error).
  for (std::uint64_t v = 0; v < 1000; ++v) h.observe(v);
  double prev = -1.0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double est = h.quantile(q);
    EXPECT_GE(est, prev) << "q=" << q;  // monotone in q
    const double exact = q * 1000.0;
    EXPECT_NEAR(est, exact, 0.25 * exact + 1.0) << "q=" << q;
    prev = est;
  }
}

TEST(Histogram, MergeFromEqualsObservingBoth) {
  Histogram a, b, both;
  for (std::uint64_t v = 0; v < 50; ++v) {
    a.observe(v * 3);
    both.observe(v * 3);
  }
  for (std::uint64_t v = 0; v < 70; ++v) {
    b.observe(v * 7 + 1);
    both.observe(v * 7 + 1);
  }
  a.merge_from(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_DOUBLE_EQ(a.sum(), both.sum());
  EXPECT_EQ(a.min(), both.min());
  EXPECT_EQ(a.max(), both.max());
  EXPECT_DOUBLE_EQ(a.quantile(0.5), both.quantile(0.5));
}

// --- Registry --------------------------------------------------------------

TEST(MetricsRegistry, HandlesAreStableAndNamed) {
  MetricsRegistry reg;
  Counter* c = reg.counter("dragon.test.counter");
  c->inc(41);
  c->inc();
  EXPECT_EQ(reg.counter("dragon.test.counter"), c);  // same handle
  EXPECT_EQ(reg.find_counter("dragon.test.counter")->value(), 42u);
  EXPECT_EQ(reg.find_counter("missing"), nullptr);
}

TEST(MetricsRegistry, ResetAccumulatorsSparesGauges) {
  MetricsRegistry reg;
  reg.counter("c")->inc(7);
  reg.gauge("g")->set(3.5);
  reg.histogram("h")->observe(9);
  reg.reset_accumulators();
  EXPECT_EQ(reg.find_counter("c")->value(), 0u);
  EXPECT_EQ(reg.find_histogram("h")->count(), 0u);
  EXPECT_DOUBLE_EQ(reg.find_gauge("g")->value(), 3.5);  // state survives
}

TEST(MetricsRegistry, MergeSumsCountersOverwritesGauges) {
  MetricsRegistry a, b;
  a.counter("c")->inc(10);
  a.gauge("g")->set(1.0);
  b.counter("c")->inc(5);
  b.counter("only_b")->inc(2);
  b.gauge("g")->set(8.0);
  b.histogram("h")->observe(4);
  a.merge_from(b);
  EXPECT_EQ(a.find_counter("c")->value(), 15u);
  EXPECT_EQ(a.find_counter("only_b")->value(), 2u);
  EXPECT_DOUBLE_EQ(a.find_gauge("g")->value(), 8.0);
  EXPECT_EQ(a.find_histogram("h")->count(), 1u);
}

TEST(MetricsRegistry, GaugeAddAccumulatesAndMergeOverwrites) {
  // add() accumulates across calls, and merge_from is last-writer-wins
  // for gauges.
  MetricsRegistry a, b;
  a.gauge("g")->add(1.0);
  a.gauge("g")->add(2.0);
  EXPECT_DOUBLE_EQ(a.find_gauge("g")->value(), 3.0);  // accumulates
  b.gauge("g")->set(9.0);
  a.merge_from(b);
  EXPECT_DOUBLE_EQ(a.find_gauge("g")->value(), 9.0);  // overwrite
}

TEST(MetricsRegistry, SnapshotRestoreRoundTrips) {
  MetricsRegistry reg;
  reg.counter("c")->inc(3);
  reg.gauge("g")->set(2.0);
  reg.histogram("h")->observe(100);
  const auto snap = reg.snapshot_state();
  reg.counter("c")->inc(10);
  reg.gauge("g")->set(-1.0);
  reg.histogram("h")->observe(200);
  reg.counter("late")->inc(9);  // created after the snapshot
  reg.restore_state(snap);
  EXPECT_EQ(reg.find_counter("c")->value(), 3u);
  EXPECT_DOUBLE_EQ(reg.find_gauge("g")->value(), 2.0);
  EXPECT_EQ(reg.find_histogram("h")->count(), 1u);
  EXPECT_EQ(reg.find_histogram("h")->max(), 100u);
  EXPECT_EQ(reg.find_counter("late")->value(), 0u);  // reset to zero
}

TEST(MetricsRegistry, LayoutDoesNotDependOnNdebug) {
  // The library and a translation unit built with another NDEBUG setting
  // must agree on where every member lives.
  EXPECT_EQ(layout_probe::registry_size_with_ndebug(),
            layout_probe::registry_size_without_ndebug());
}

TEST(MetricsRegistry, JsonDumpContainsEveryMetric) {
  MetricsRegistry reg;
  reg.counter("dragon.test.c")->inc(5);
  reg.gauge("dragon.test.g")->set(0.5);
  reg.histogram("dragon.test.h")->observe(16);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"dragon.test.c\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dragon.test.g\""), std::string::npos);
  EXPECT_NE(json.find("\"dragon.test.h\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

// --- Tracer ----------------------------------------------------------------

// Minimal structural JSON check: balanced braces/quotes on one line and
// the expected keys present.  (No JSON parser in the test deps.)
bool looks_like_json_object(const std::string& line) {
  if (line.empty() || line.front() != '{' || line.back() != '}') return false;
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::FILE* f = std::fopen(path.c_str(), "r");
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return lines;
  std::string cur;
  int c;
  while ((c = std::fgetc(f)) != EOF) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(static_cast<char>(c));
    }
  }
  std::fclose(f);
  EXPECT_TRUE(cur.empty()) << "trailing partial line: " << cur;
  return lines;
}

TEST(EventTracer, RecordFieldsRoundTrip) {
  EventTracer tracer(8);
  const auto p = prefix::Prefix::from_bit_string("1010");
  ASSERT_TRUE(p.has_value());
  tracer.record(1.5, EventKind::kAnnounce, 7, std::int64_t{9}, *p, 3u);
  tracer.record(2.0, EventKind::kLinkFail, 4);
  ASSERT_EQ(tracer.size(), 2u);
  std::vector<TraceRecord> seen;
  tracer.for_each([&](const TraceRecord& r) { seen.push_back(r); });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_DOUBLE_EQ(seen[0].sim_time, 1.5);
  EXPECT_EQ(seen[0].node, 7u);
  EXPECT_EQ(seen[0].peer, 9);
  EXPECT_TRUE(seen[0].has_prefix);
  EXPECT_TRUE(seen[0].has_attr);
  EXPECT_EQ(seen[0].attr, 3u);
  EXPECT_EQ(seen[1].kind, EventKind::kLinkFail);
  EXPECT_EQ(seen[1].peer, -1);
  EXPECT_FALSE(seen[1].has_prefix);

  const std::string json = seen[0].to_json();
  EXPECT_TRUE(looks_like_json_object(json)) << json;
  EXPECT_NE(json.find("\"kind\":\"announce\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"node\":7"), std::string::npos);
  EXPECT_NE(json.find("\"peer\":9"), std::string::npos);
  EXPECT_NE(json.find("\"prefix\":\"1010\""), std::string::npos);
  EXPECT_NE(json.find("\"attr\":3"), std::string::npos);
}

TEST(EventTracer, RingWrapsAndCountsDropsWithoutSink) {
  EventTracer tracer(4);
  for (std::uint32_t i = 0; i < 10; ++i) {
    tracer.record(static_cast<double>(i), EventKind::kElect, i);
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.capacity(), 4u);
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  // The survivors are the newest four, oldest-first.
  std::vector<std::uint32_t> nodes;
  tracer.for_each([&](const TraceRecord& r) { nodes.push_back(r.node); });
  EXPECT_EQ(nodes, (std::vector<std::uint32_t>{6, 7, 8, 9}));
}

TEST(EventTracer, SinkAutoFlushPreventsDrops) {
  const std::string path = ::testing::TempDir() + "obs_trace_test.jsonl";
  {
    EventTracer tracer(4);
    ASSERT_TRUE(tracer.open_sink(path));
    for (std::uint32_t i = 0; i < 10; ++i) {
      tracer.record(static_cast<double>(i), EventKind::kAnnounce, i % 3);
    }
    tracer.note("{\"kind\":\"marker\"}");
    tracer.record(10.0, EventKind::kWithdraw, 0);
    tracer.flush();
    EXPECT_EQ(tracer.dropped(), 0u);
  }
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 12u);  // 11 events + 1 note
  // Every line is a well-formed JSON object; event sim_times are
  // monotone per node; the note sits between the events around it.
  std::map<std::uint32_t, double> last_t;
  std::size_t marker_at = lines.size();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_TRUE(looks_like_json_object(lines[i])) << lines[i];
    if (lines[i].find("\"kind\":\"marker\"") != std::string::npos) {
      marker_at = i;
      continue;
    }
    // Crude field pulls (schema has fixed key order: t first, node later).
    const double t = std::strtod(lines[i].c_str() + 5, nullptr);
    const auto npos = lines[i].find("\"node\":");
    ASSERT_NE(npos, std::string::npos) << lines[i];
    const auto node = static_cast<std::uint32_t>(
        std::strtoul(lines[i].c_str() + npos + 7, nullptr, 10));
    auto it = last_t.find(node);
    if (it != last_t.end()) {
      EXPECT_GE(t, it->second) << lines[i];
    }
    last_t[node] = t;
  }
  EXPECT_EQ(marker_at, 10u);  // after the first 10 events, before the 11th
  std::remove(path.c_str());
}

TEST(EventTracer, ClearEmptiesTheRing) {
  EventTracer tracer(8);
  tracer.record(1.0, EventKind::kElect, 1);
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  tracer.record(2.0, EventKind::kElect, 2);
  EXPECT_EQ(tracer.size(), 1u);
}

// --- Timeline --------------------------------------------------------------

TEST(Timeline, GridAndRateDerivation) {
  Timeline tl(10.0);
  tl.begin(100.0);
  EXPECT_DOUBLE_EQ(tl.next_due(), 110.0);
  EXPECT_FALSE(tl.due(109.9));
  EXPECT_TRUE(tl.due(110.0));

  Timeline::Sample s;
  s.t = 110.0;
  s.updates = 50;
  tl.push(s);
  EXPECT_DOUBLE_EQ(tl.next_due(), 120.0);

  s.t = 120.0;
  s.updates = 80;
  tl.push(s);
  ASSERT_EQ(tl.samples().size(), 2u);
  EXPECT_DOUBLE_EQ(tl.samples()[0].updates_per_sec, 5.0);   // 50 / 10s
  EXPECT_DOUBLE_EQ(tl.samples()[1].updates_per_sec, 3.0);   // 30 / 10s
}

TEST(Timeline, BeginResetsSamplesAndGrid) {
  Timeline tl(5.0);
  tl.begin(0.0);
  Timeline::Sample s;
  s.t = 5.0;
  s.updates = 10;
  tl.push(s);
  tl.begin(200.0);
  EXPECT_TRUE(tl.samples().empty());
  EXPECT_DOUBLE_EQ(tl.next_due(), 205.0);
  s.t = 205.0;
  s.updates = 4;
  tl.push(s);
  // Rate window restarts at begin(): 4 updates over 5 seconds.
  EXPECT_DOUBLE_EQ(tl.samples()[0].updates_per_sec, 0.8);
}

TEST(Timeline, WriteJsonlSplicesExtraFields) {
  Timeline tl(1.0);
  tl.begin(0.0);
  Timeline::Sample s;
  s.t = 1.0;
  s.updates = 2;
  s.fib_entries = 7;
  tl.push(s);
  const std::string path = ::testing::TempDir() + "obs_timeline_test.jsonl";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  tl.write_jsonl(f, "\"mode\":\"dragon\",\"trial\":3");
  std::fclose(f);
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(looks_like_json_object(lines[0])) << lines[0];
  EXPECT_NE(lines[0].find("\"mode\":\"dragon\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"trial\":3"), std::string::npos);
  EXPECT_NE(lines[0].find("\"fib_entries\":7"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dragon::obs
