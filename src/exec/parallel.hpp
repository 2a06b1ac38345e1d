// Deterministic data-parallel primitives over a ThreadPool.
//
// The contract that everything in this header upholds: **for a fixed
// chunk count, results are bit-identical for any thread count, including
// 1** (and for pool == nullptr, which runs inline).  Two rules make that
// hold:
//
//   1. Static chunking.  [0, n) is split into a chunk list that is a pure
//      function of (n, chunks) — never of runtime timing.  Chunks are the
//      unit of scheduling; which worker runs a chunk is irrelevant
//      because chunks never share mutable state.
//   2. Per-chunk RNG forking.  Each chunk's TaskContext carries an Rng
//      forked as Rng(opts.seed).fork_stream(chunk) — a pure function of
//      (seed, chunk index), not of dispatch order — so stochastic bodies
//      draw identical streams no matter how chunks interleave.
//
// Bodies that record metrics return a registry in their result (one per
// index, see parallel_map) and the caller merges the results on its own
// thread in index order with MetricsRegistry::merge_from; no registry is
// ever shared between workers.
//
// Scheduling is an atomic chunk ticket: parallel_for submits one task per
// worker lane (not per chunk), and each lane claims chunks with
// fetch_add until the ticket runs dry.  Load balancing is automatic — a
// lane stuck on a heavy chunk simply claims fewer.  Compared to one
// queued task per chunk this removes the per-chunk
// packaged_task/future/queue-mutex round trip from the hot path.
//
// Default granularity: when opts.chunks == 0 the chunk count adapts to
// the pool — 1 chunk inline or on a 1-worker pool, else
// min(n, workers * kChunksPerWorker).  The adaptive default therefore
// DEPENDS on the pool size: bodies that consume ctx.rng or ctx.chunk and
// need cross-thread-count bit-identity must pin opts.chunks explicitly
// (every stochastic caller in-tree does).
//
// Exception propagation: if any chunk body throws, every chunk still
// runs, then parallel_for rethrows the lowest-indexed failing chunk's
// exception (stable error reporting across thread counts).
// See DESIGN.md §8 ("Parallel execution runtime").
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "exec/thread_pool.hpp"
#include "util/rng.hpp"

namespace dragon::exec {

/// Per-chunk execution context handed to every body invocation.
struct TaskContext {
  /// Chunk index in [0, chunk_count) — stable across thread counts.
  std::size_t chunk = 0;
  /// The chunk's private RNG stream: Rng(seed).fork_stream(chunk).
  util::Rng rng{0};
};

struct ParallelOptions {
  /// Fixed chunk count; 0 picks the adaptive default (1 when inline or on
  /// a 1-worker pool, else min(n, workers * kChunksPerWorker), which
  /// varies with the pool size).  Pin this to a constant when the body
  /// consumes ctx.rng or per-chunk identity and results must be
  /// bit-identical across thread counts.
  std::size_t chunks = 0;
  /// Base seed for the per-chunk RNG streams.
  std::uint64_t seed = 0;
};

/// Chunks per worker under the adaptive default: enough slack for the
/// ticket scheduler to balance uneven chunks without shrinking chunks to
/// per-item dispatch.
inline constexpr std::size_t kChunksPerWorker = 8;

/// Splits [0, n) into at most `chunks` contiguous [begin, end) ranges of
/// near-equal size (earlier chunks get the remainder).  Pure function of
/// its arguments; empty when n == 0.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> static_chunks(
    std::size_t n, std::size_t chunks);

/// Runs body(i, ctx) for every i in [0, n), chunked over `pool` (nullptr
/// runs inline on the calling thread with identical semantics).  Blocks
/// until every chunk finished.
void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t, TaskContext&)>& body,
                  const ParallelOptions& opts = {});

/// Like parallel_for, but collects one result per index (R must be
/// default-constructible; each slot is written exactly once, by the chunk
/// owning its index).
template <typename R, typename Fn>
[[nodiscard]] std::vector<R> parallel_map(ThreadPool* pool, std::size_t n,
                                          Fn&& fn,
                                          const ParallelOptions& opts = {}) {
  std::vector<R> out(n);
  parallel_for(
      pool, n,
      [&out, &fn](std::size_t i, TaskContext& ctx) { out[i] = fn(i, ctx); },
      opts);
  return out;
}

}  // namespace dragon::exec
