// Execution-span profiler + Chrome-trace export tests (DESIGN.md §11):
// ring wrap and drop accounting, nested-span containment, the exact
// site accumulators, export document shape and string escaping, and the
// cross-thread-count invariance of span counts.  The ExecSmoke-named
// tests ride the `exec_smoke` ctest entry, so the tsan-exec-smoke
// preset also proves the single-writer ring + join-then-collect
// protocol race-free.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "obs/span.hpp"
#include "obs/trace_export.hpp"

namespace dragon::obs {
namespace {

/// Arms recording for the test body and leaves the process-wide state
/// clean afterwards (other suites expect spans off).
class SpanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    span_enable(true);
    span_reset();
  }
  void TearDown() override {
    span_enable(false);
    span_reset();
  }
};

std::uint64_t records_of(const char* category, const char* name) {
  std::uint64_t count = 0;
  for (const ThreadSpans& thread : span_collect()) {
    for (const SpanRecord& rec : thread.records) {
      if (std::strcmp(rec.site->category, category) == 0 &&
          std::strcmp(rec.site->name, name) == 0) {
        ++count;
      }
    }
  }
  return count;
}

std::uint64_t calls_of(const char* category, const char* name) {
  for (const SpanSiteTotals& site : span_site_totals()) {
    if (std::strcmp(site.category, category) == 0 &&
        std::strcmp(site.name, name) == 0) {
      return site.calls;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Ring buffer semantics (no macros involved)
// ---------------------------------------------------------------------------

TEST_F(SpanTest, RingWrapKeepsNewestAndCountsDrops) {
  SpanBuffer buffer(4);
  EXPECT_EQ(buffer.capacity(), 4u);
  for (std::uint64_t i = 0; i < 6; ++i) {
    SpanRecord rec;
    rec.start_ns = i;
    buffer.push(rec);
  }
  EXPECT_EQ(buffer.pushed(), 6u);
  EXPECT_EQ(buffer.dropped(), 2u);
  EXPECT_EQ(buffer.size(), 4u);

  std::vector<SpanRecord> records;
  buffer.snapshot(records);
  ASSERT_EQ(records.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(records[i].start_ns, i + 2) << "oldest-first order";
  }

  buffer.clear();
  EXPECT_EQ(buffer.pushed(), 0u);
  EXPECT_EQ(buffer.dropped(), 0u);
  EXPECT_EQ(buffer.size(), 0u);
}

// ---------------------------------------------------------------------------
// Recording semantics
// ---------------------------------------------------------------------------

TEST_F(SpanTest, NestedSpansRecordContainmentAndArgs) {
  {
    DRAGON_SPAN("span_test", "outer");
    {
      DRAGON_SPAN_ARG("span_test", "inner", "value", 7);
    }
  }
  const auto threads = span_collect();
  const SpanRecord* outer = nullptr;
  const SpanRecord* inner = nullptr;
  for (const ThreadSpans& thread : threads) {
    for (const SpanRecord& rec : thread.records) {
      if (std::strcmp(rec.site->category, "span_test") != 0) continue;
      if (std::strcmp(rec.site->name, "outer") == 0) outer = &rec;
      if (std::strcmp(rec.site->name, "inner") == 0) inner = &rec;
    }
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // RAII closes inner first, so it is pushed before outer and nests
  // inside it on the timeline.
  EXPECT_GE(inner->start_ns, outer->start_ns);
  EXPECT_LE(inner->start_ns + inner->dur_ns, outer->start_ns + outer->dur_ns);
  EXPECT_EQ(inner->args[0], 7u);
  ASSERT_NE(inner->site->arg_keys[0], nullptr);
  EXPECT_STREQ(inner->site->arg_keys[0], "value");
}

TEST_F(SpanTest, DeferredArgsLandInTheRecord) {
  {
    DRAGON_SPAN_NAMED(span, "span_test", "deferred", "count");
    span.set_arg(0, 41);
    span.set_arg(0, 42);  // last write wins
  }
  const auto threads = span_collect();
  for (const ThreadSpans& thread : threads) {
    for (const SpanRecord& rec : thread.records) {
      if (std::strcmp(rec.site->name, "deferred") == 0) {
        EXPECT_EQ(rec.args[0], 42u);
        return;
      }
    }
  }
  FAIL() << "deferred span not recorded";
}

TEST_F(SpanTest, DisabledScopesRecordNothing) {
  span_enable(false);
  const std::uint64_t before = span_local_buffer().pushed();
  {
    DRAGON_SPAN("span_test", "disabled");
  }
  EXPECT_EQ(span_local_buffer().pushed(), before);
  EXPECT_EQ(calls_of("span_test", "disabled"), 0u);
}

TEST_F(SpanTest, SiteTotalsStayExactAfterRingWrap) {
  const std::uint64_t spins = span_local_buffer().capacity() + 100;
  for (std::uint64_t i = 0; i < spins; ++i) {
    DRAGON_SPAN("span_test", "wrap");
  }
  // The ring wrapped (and says so), but the accumulators kept counting.
  EXPECT_EQ(calls_of("span_test", "wrap"), spins);
  bool saw_drop = false;
  for (const ThreadSpans& thread : span_collect()) {
    if (thread.dropped > 0) saw_drop = true;
  }
  EXPECT_TRUE(saw_drop);
  EXPECT_LT(records_of("span_test", "wrap"), spins);
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

TEST_F(SpanTest, ExportEmitsMetadataEventsAndArgs) {
  span_set_thread_name("span-test-main");
  {
    DRAGON_SPAN_ARG("span_test", "export", "items", 9);
  }
  TraceExportOptions options;
  options.process_name = "span_test_proc";
  options.other_data = {{"seed", "17"}};
  const std::string json = chrome_trace_json(options);

  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"span_test_proc\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"span-test-main\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"span_test\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"export\""), std::string::npos);
  EXPECT_NE(json.find("\"items\":9"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped.total\":\"0\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\":\"17\""), std::string::npos);
}

TEST_F(SpanTest, ExportEscapesStrings) {
  TraceExportOptions options;
  options.process_name = "quote\"back\\slash\nnewline";
  const std::string json = chrome_trace_json(options);
  EXPECT_NE(json.find("quote\\\"back\\\\slash\\nnewline"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Cross-thread-count invariance + TSan coverage (ExecSmoke entry)
// ---------------------------------------------------------------------------

TEST(ExecSmoke, SpanCountsInvariantAcrossThreadCounts) {
  span_enable(true);
  constexpr std::size_t kItems = 64;
  const auto run = [](exec::ThreadPool* pool) {
    span_reset();
    exec::parallel_for(
        pool, kItems,
        [](std::size_t i, exec::TaskContext&) {
          DRAGON_SPAN_ARG("span_test", "work", "item", i);
        },
        {});
  };

  // Workers are joined (pool destroyed) before every collect, which is
  // exactly the reader contract the export layer documents — under the
  // tsan preset this test proves the protocol race-free.
  run(nullptr);
  const std::uint64_t sequential = records_of("span_test", "work");
  EXPECT_EQ(sequential, kItems);
  EXPECT_EQ(calls_of("span_test", "work"), kItems);

  for (const std::size_t threads : {2u, 4u}) {
    auto pool = std::make_unique<exec::ThreadPool>(threads);
    run(pool.get());
    pool.reset();
    EXPECT_EQ(records_of("span_test", "work"), sequential)
        << "at " << threads << " threads";
    EXPECT_EQ(calls_of("span_test", "work"), kItems);
  }
  span_enable(false);
  span_reset();
}

}  // namespace
}  // namespace dragon::obs
