// Parallel execution runtime tests (DESIGN.md §8): thread-pool lifecycle,
// the determinism contract of parallel_for / fork_stream across thread
// counts, and parallel-vs-sequential equality for the wired subsystems
// (GR sweeps, the generic solver, chaos schedule sweeps, whose
// per-schedule metrics registries travel back in the results).  The
// ExecSmoke suite is the `exec_smoke` ctest entry and the tsan-exec-smoke
// preset filter.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "algebra/gr_path_algebra.hpp"
#include "chaos/sweep.hpp"
#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "paper_networks.hpp"
#include "routecomp/generic_solver.hpp"
#include "routecomp/gr_sweep.hpp"
#include "topology/generator.hpp"
#include "util/rng.hpp"

namespace dragon::exec {
namespace {

using algebra::GrClass;
using algebra::GrPathAlgebra;
using prefix::Prefix;
using topology::NodeId;
using F1 = dragon::testing::Figure1;
using F2 = dragon::testing::Figure2;

Prefix bp(const char* s) { return *Prefix::from_bit_string(s); }

constexpr algebra::Attr kCust = GrPathAlgebra::make(GrClass::kCustomer, 0);

// ---------------------------------------------------------------------------
// ThreadPool lifecycle
// ---------------------------------------------------------------------------

TEST(ExecSmoke, ShutdownDrainsQueuedWork) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    EXPECT_EQ(pool.size(), 2u);
    // The first tasks sleep so later submissions pile up in the queue;
    // graceful shutdown must still run every one of them.
    for (int i = 0; i < 64; ++i) {
      (void)pool.submit([&done] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        done.fetch_add(1, std::memory_order_relaxed);
      });
    }
    pool.shutdown();
    EXPECT_EQ(done.load(), 64);
    pool.shutdown();  // idempotent
  }  // destructor after explicit shutdown is a no-op
  EXPECT_EQ(done.load(), 64);
}

TEST(ExecSmoke, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  pool.shutdown();
  EXPECT_THROW((void)pool.submit([] {}), std::logic_error);
}

TEST(ExecSmoke, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto bad = pool.submit([] { throw std::runtime_error("task failed"); });
  auto good = pool.submit([] {});
  EXPECT_THROW(bad.get(), std::runtime_error);
  good.get();  // the worker survives a throwing task
  auto after = pool.submit([] {});
  after.get();
}

TEST(ExecSmoke, DefaultThreadCountIsAtLeastOne) {
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
}

TEST(ExecSmoke, PoolCapRespectsHardware) {
  // cap_to_hardware clamps the spawned workers but keeps the asked-for
  // count for reporting; without the option the pool spawns exactly what
  // was requested (tests rely on real oversubscription for interleaving).
  ThreadPool capped(4096, PoolOptions{.cap_to_hardware = true});
  EXPECT_EQ(capped.requested(), 4096u);
  EXPECT_EQ(capped.size(),
            std::min<std::size_t>(4096, ThreadPool::default_thread_count()));

  ThreadPool uncapped(2);
  EXPECT_EQ(uncapped.requested(), 2u);
  EXPECT_EQ(uncapped.size(), 2u);
}

// ---------------------------------------------------------------------------
// static_chunks
// ---------------------------------------------------------------------------

TEST(ExecSmoke, StaticChunksPartitionTheRange) {
  for (const std::size_t n : {0u, 1u, 7u, 64u, 65u, 1000u}) {
    for (const std::size_t chunks : {1u, 3u, 64u, 2000u}) {
      const auto ranges = static_chunks(n, chunks);
      std::size_t covered = 0, expect_begin = 0;
      for (const auto& [begin, end] : ranges) {
        EXPECT_EQ(begin, expect_begin);
        EXPECT_LT(begin, end);
        covered += end - begin;
        expect_begin = end;
      }
      EXPECT_EQ(covered, n);
      if (n > 0) {
        EXPECT_EQ(ranges.size(), std::min(n, std::max<std::size_t>(1, chunks)));
        // Near-equal sizes: max - min <= 1.
        std::size_t lo = n, hi = 0;
        for (const auto& [begin, end] : ranges) {
          lo = std::min(lo, end - begin);
          hi = std::max(hi, end - begin);
        }
        EXPECT_LE(hi - lo, 1u);
      }
    }
  }
}

TEST(ExecSmoke, StaticChunksDegenerateCases) {
  // n == 0: always empty, whatever the chunk request (including 0).
  EXPECT_TRUE(static_chunks(0, 0).empty());
  EXPECT_TRUE(static_chunks(0, 1).empty());
  EXPECT_TRUE(static_chunks(0, 16).empty());

  // chunks == 0 clamps up to one chunk covering the whole range.
  const auto whole = static_chunks(5, 0);
  ASSERT_EQ(whole.size(), 1u);
  EXPECT_EQ(whole[0].first, 0u);
  EXPECT_EQ(whole[0].second, 5u);

  // n < chunks: n unit chunks, never an empty chunk.
  const auto unit = static_chunks(3, 16);
  ASSERT_EQ(unit.size(), 3u);
  for (std::size_t i = 0; i < unit.size(); ++i) {
    EXPECT_EQ(unit[i].first, i);
    EXPECT_EQ(unit[i].second, i + 1);
  }
}

// ---------------------------------------------------------------------------
// Rng fork_stream
// ---------------------------------------------------------------------------

TEST(ExecSmoke, ForkStreamIsPureAndPerStream) {
  const util::Rng base(5);
  util::Rng f1 = base.fork_stream(3);
  util::Rng f2 = base.fork_stream(3);
  util::Rng other = base.fork_stream(4);
  bool differs = false;
  for (int i = 0; i < 50; ++i) {
    const auto v = f1();
    EXPECT_EQ(v, f2());
    differs |= v != other();
  }
  EXPECT_TRUE(differs);

  // fork_stream must not advance the parent: a fresh Rng with the same
  // seed draws the identical sequence afterwards.
  util::Rng used(5);
  (void)used.fork_stream(0);
  (void)used.fork_stream(77);
  util::Rng fresh(5);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(used(), fresh());
}

// ---------------------------------------------------------------------------
// parallel_for determinism (RNG streams + chunk identity)
// ---------------------------------------------------------------------------

struct ParallelRun {
  std::vector<std::uint64_t> values;
  std::vector<std::size_t> chunk_of;
};

ParallelRun run_stochastic_loop(ThreadPool* pool, std::size_t n) {
  ParallelRun run;
  run.values.assign(n, 0);
  run.chunk_of.assign(n, 0);
  ParallelOptions opts;
  opts.chunks = 16;  // fixed: must not depend on the thread count
  opts.seed = 99;
  parallel_for(
      pool, n,
      [&run](std::size_t i, TaskContext& ctx) {
        run.values[i] = ctx.rng() ^ (i * 0x9E3779B97F4A7C15ULL);
        run.chunk_of[i] = ctx.chunk;
      },
      opts);
  return run;
}

TEST(ExecSmoke, ParallelForIsThreadCountInvariant) {
  constexpr std::size_t kN = 500;
  const ParallelRun inline_run = run_stochastic_loop(nullptr, kN);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    const ParallelRun run = run_stochastic_loop(&pool, kN);
    EXPECT_EQ(run.values, inline_run.values) << threads << " threads";
    EXPECT_EQ(run.chunk_of, inline_run.chunk_of) << threads << " threads";
  }
  // Every index ran in the chunk static_chunks assigns it.
  const auto ranges = static_chunks(kN, 16);
  for (std::size_t c = 0; c < ranges.size(); ++c) {
    for (std::size_t i = ranges[c].first; i < ranges[c].second; ++i) {
      EXPECT_EQ(inline_run.chunk_of[i], c) << "index " << i;
    }
  }
}

TEST(ExecSmoke, TicketSchedulerDeterministicAcrossThreadsAndRepeats) {
  // The ticket scheduler assigns chunks to lanes by claim order, which
  // varies run to run — results must not.  Every thread count and every
  // repeat must reproduce the inline run bit-for-bit.
  constexpr std::size_t kN = 300;
  const ParallelRun reference = run_stochastic_loop(nullptr, kN);
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    for (int repeat = 0; repeat < 2; ++repeat) {
      ThreadPool pool(threads);
      const ParallelRun run = run_stochastic_loop(&pool, kN);
      EXPECT_EQ(run.values, reference.values)
          << threads << " threads, repeat " << repeat;
      EXPECT_EQ(run.chunk_of, reference.chunk_of)
          << threads << " threads, repeat " << repeat;
    }
  }
}

TEST(ExecSmoke, AdaptiveDefaultRunsEveryItemOnce) {
  // opts.chunks == 0 adapts the chunk count to the pool; whatever it
  // picks, every index must run exactly once and chunk indices must stay
  // within the derived chunk list.
  constexpr std::size_t kN = 1000;
  for (const std::size_t threads : {0u, 1u, 3u, 8u}) {  // 0 = inline
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    std::vector<int> seen(kN, 0);
    std::atomic<std::size_t> total{0};
    std::atomic<std::size_t> max_chunk{0};
    parallel_for(pool.get(), kN,
                 [&](std::size_t i, TaskContext& ctx) {
                   ++seen[i];  // each index is owned by exactly one chunk
                   total.fetch_add(1, std::memory_order_relaxed);
                   std::size_t prev =
                       max_chunk.load(std::memory_order_relaxed);
                   while (prev < ctx.chunk &&
                          !max_chunk.compare_exchange_weak(
                              prev, ctx.chunk, std::memory_order_relaxed)) {
                   }
                 });
    EXPECT_EQ(total.load(), kN) << threads << " threads";
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                            [](int c) { return c == 1; }))
        << threads << " threads";
    const std::size_t workers = pool ? pool->size() : 1;
    const std::size_t expect_chunks =
        workers <= 1 ? 1 : std::min(kN, workers * kChunksPerWorker);
    EXPECT_LT(max_chunk.load(), expect_chunks) << threads << " threads";
  }
}

TEST(ExecSmoke, LowestChunkExceptionWins) {
  // Two chunks throw; whichever lane hits its failure first, the caller
  // must always see the lowest-indexed chunk's exception.
  const auto failing_run = [](ThreadPool* pool) -> std::string {
    ParallelOptions opts;
    opts.chunks = 8;
    try {
      parallel_for(
          pool, 100,
          [](std::size_t, TaskContext& ctx) {
            if (ctx.chunk == 2) throw std::runtime_error("chunk2");
            if (ctx.chunk == 5) throw std::runtime_error("chunk5");
          },
          opts);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "no exception";
  };
  EXPECT_EQ(failing_run(nullptr), "chunk2");
  ThreadPool pool(4);
  for (int repeat = 0; repeat < 4; ++repeat) {
    EXPECT_EQ(failing_run(&pool), "chunk2") << "repeat " << repeat;
  }
}

// ---------------------------------------------------------------------------
// Parallel == sequential: routecomp
// ---------------------------------------------------------------------------

TEST(ExecSmoke, GrSweepBatchMatchesSequential) {
  topology::GeneratorParams params;
  params.tier1_count = 4;
  params.transit_count = 20;
  params.stub_count = 120;
  params.seed = 7;
  const auto generated = topology::generate_internet(params);
  const auto& topo = generated.graph;

  std::vector<NodeId> origins;
  for (NodeId u = 0; u < std::min<std::size_t>(topo.node_count(), 40); ++u) {
    origins.push_back(u);
  }
  ThreadPool pool(8);
  const auto batch = routecomp::gr_sweep_batch(topo, origins, &pool);
  ASSERT_EQ(batch.size(), origins.size());
  for (std::size_t i = 0; i < origins.size(); ++i) {
    const auto solo = routecomp::gr_sweep(topo, origins[i]);
    EXPECT_EQ(batch[i].origins, solo.origins) << "origin " << origins[i];
    EXPECT_EQ(batch[i].cls, solo.cls) << "origin " << origins[i];
    EXPECT_EQ(batch[i].dist, solo.dist) << "origin " << origins[i];
  }
}

TEST(ExecSmoke, SolveBatchMatchesSequential) {
  const auto topo = F1::topology();
  const auto net = routecomp::LabeledNetwork::from_topology(topo);
  GrPathAlgebra alg;
  std::vector<routecomp::Origination> origins;
  for (NodeId u = 0; u < topo.node_count(); ++u) origins.push_back({u, kCust});

  ThreadPool pool(8);
  const auto batch = routecomp::solve_batch(alg, net, origins, nullptr, 1000,
                                            &pool);
  ASSERT_EQ(batch.size(), origins.size());
  for (std::size_t i = 0; i < origins.size(); ++i) {
    const auto solo =
        routecomp::solve(alg, net, origins[i].origin, origins[i].attr);
    EXPECT_EQ(batch[i].attr, solo.attr) << "origin " << origins[i].origin;
    EXPECT_EQ(batch[i].converged, solo.converged);
    EXPECT_EQ(batch[i].rounds, solo.rounds);
  }
}

// ---------------------------------------------------------------------------
// Parallel == sequential: chaos schedule sweep (32 schedules)
// ---------------------------------------------------------------------------

std::string outcome_digest(const chaos::ScheduleOutcome& out) {
  std::string d;
  d += std::to_string(out.seed) + "|";
  d += std::to_string(out.skipped) + std::to_string(out.quiescent) +
       std::to_string(out.invariants_ok) + std::to_string(out.oracle_ok) + "|";
  d += std::to_string(out.first_action) + "," +
       std::to_string(out.last_action) + "," + std::to_string(out.end_time) +
       "|";
  d += out.plan_json + "|" + out.metrics.to_json();
  return d;
}

TEST(ExecSmoke, ChaosSweepMatchesSequentialAcrossThreadCounts) {
  const auto topo = F2::topology();
  GrPathAlgebra alg;
  chaos::SweepSpec spec;
  spec.topo = &topo;
  spec.alg = &alg;
  spec.config.mrai = 0.5;
  spec.config.link_delay = 0.01;
  spec.config.enable_dragon = true;
  spec.config.faults.loss = 0.1;
  spec.config.faults.duplicate = 0.05;
  spec.config.faults.delay_prob = 0.2;
  spec.origins = {{bp("1"), F2::origin_q, kCust},
                  {bp("10"), F2::origin_p, kCust}};
  spec.params.events = 4;
  spec.params.horizon = 20.0;
  spec.params.restore_prob = 0.6;
  spec.params.origin_flap_prob = 0.25;
  spec.invariants.max_sources = 64;

  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 32; ++i) seeds.push_back(7000 + i);

  const auto sequential = chaos::run_schedule_sweep(spec, seeds, nullptr);
  ASSERT_EQ(sequential.size(), seeds.size());
  std::size_t ran = 0;
  for (const auto& out : sequential) {
    EXPECT_TRUE(out.ok()) << "seed=" << out.seed << "\n"
                          << out.diagnostics << out.plan_json;
    if (!out.skipped) ++ran;
  }
  EXPECT_GT(ran, 0u);

  for (const std::size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    const auto parallel = chaos::run_schedule_sweep(spec, seeds, &pool);
    ASSERT_EQ(parallel.size(), sequential.size()) << threads << " threads";
    for (std::size_t i = 0; i < sequential.size(); ++i) {
      EXPECT_EQ(outcome_digest(parallel[i]), outcome_digest(sequential[i]))
          << "schedule " << i << " at " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace dragon::exec
