#include "exec/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>

#include "obs/span.hpp"

namespace dragon::exec {

std::vector<std::pair<std::size_t, std::size_t>> static_chunks(
    std::size_t n, std::size_t chunks) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  if (n == 0) return out;
  chunks = std::max<std::size_t>(1, std::min(chunks, n));
  out.reserve(chunks);
  const std::size_t base = n / chunks;
  const std::size_t extra = n % chunks;
  std::size_t begin = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t len = base + (c < extra ? 1 : 0);
    out.emplace_back(begin, begin + len);
    begin += len;
  }
  return out;
}

void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t, TaskContext&)>& body,
                  const ParallelOptions& opts) {
  if (n == 0) return;
  const std::size_t workers = pool == nullptr ? 1 : pool->size();
  const std::size_t chunk_count =
      opts.chunks != 0  ? opts.chunks
      : workers <= 1    ? 1
                        : std::min(n, workers * kChunksPerWorker);
  const auto ranges = static_chunks(n, chunk_count);
  const util::Rng base(opts.seed);

  const auto run_chunk = [&](std::size_t c) {
    DRAGON_SPAN_ARG3("exec", "chunk", "chunk", c, "begin", ranges[c].first,
                     "items", ranges[c].second - ranges[c].first);
    TaskContext ctx;
    ctx.chunk = c;
    ctx.rng = base.fork_stream(c);
    for (std::size_t i = ranges[c].first; i < ranges[c].second; ++i) {
      body(i, ctx);
    }
  };

  // Error policy (both paths): run every chunk even after a failure, then
  // rethrow the lowest-indexed failing chunk's exception.  A failure at
  // chunk c says nothing about chunks < c on another lane, so stable
  // error reporting requires finishing the sweep.
  std::exception_ptr first_error;
  std::size_t first_error_chunk = ranges.size();

  if (pool == nullptr) {
    for (std::size_t c = 0; c < ranges.size(); ++c) {
      try {
        run_chunk(c);
      } catch (...) {
        if (c < first_error_chunk) {
          first_error_chunk = c;
          first_error = std::current_exception();
        }
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return;
  }

  // One task per worker lane; lanes claim chunks off an atomic ticket, so
  // there is no per-chunk queue round trip.
  const std::size_t lanes = std::min(workers, ranges.size());
  std::atomic<std::size_t> ticket{0};
  std::mutex error_mu;  // cold path: taken only when a chunk throws

  std::vector<std::future<void>> futures;
  futures.reserve(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    futures.push_back(pool->submit([&] {
      for (;;) {
        const std::size_t c = ticket.fetch_add(1, std::memory_order_relaxed);
        if (c >= ranges.size()) break;
        try {
          run_chunk(c);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (c < first_error_chunk) {
            first_error_chunk = c;
            first_error = std::current_exception();
          }
        }
      }
    }));
  }

  {
    // The commit_wait span is the calling thread blocked on the lane
    // join — the serial tail any load imbalance shows up in.  Lane tasks
    // trap body exceptions above, so get() only surfaces runtime faults.
    DRAGON_SPAN_ARG("exec", "commit_wait", "chunks", ranges.size());
    for (auto& future : futures) future.get();
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace dragon::exec
