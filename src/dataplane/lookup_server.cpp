#include "dataplane/lookup_server.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/span.hpp"

namespace dragon::dataplane {

using prefix::Address;

QueryGen::QueryGen(const fibcomp::Fib& fib, QueryMix mix) : mix_(mix) {
  first_.reserve(fib.size());
  size_.reserve(fib.size());
  for (const fibcomp::FibEntry& e : fib) {
    first_.push_back(e.prefix.first_address());
    size_.push_back(e.prefix.size());
  }
  if (mix_.kind == QueryMix::Kind::kZipf && !first_.empty()) {
    cdf_.resize(first_.size());
    double total = 0.0;
    for (std::size_t i = 0; i < first_.size(); ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), mix_.zipf_s);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }
}

Address QueryGen::draw(util::Rng& rng) const noexcept {
  if (first_.empty() ||
      (mix_.miss_fraction > 0.0 && rng.uniform() < mix_.miss_fraction)) {
    return static_cast<Address>(rng());
  }
  std::size_t i;
  if (cdf_.empty()) {
    i = static_cast<std::size_t>(rng.below(first_.size()));
  } else {
    const double u = rng.uniform();
    i = static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    if (i >= cdf_.size()) i = cdf_.size() - 1;
  }
  return first_[i] + static_cast<Address>(rng.below(size_[i]));
}

LookupServer::LookupServer(LookupServerConfig config)
    : config_(config), domain_(config.max_readers), published_(domain_) {}

void LookupServer::publish(std::unique_ptr<const LpmTable> table) {
  DRAGON_SPAN_ARG("dataplane", "table_swap", "bytes",
                  table != nullptr ? table->stats().table_bytes : 0);
  reclaimed_ += published_.publish(std::move(table)).freed;
}

std::size_t LookupServer::reclaim() {
  DRAGON_SPAN("dataplane", "table_reclaim");
  const ReclaimStats stats = published_.reclaim();
  reclaimed_ += stats.freed;
  return stats.outstanding;
}

BatchResult LookupServer::serve(const QueryGen& gen, util::Rng rng,
                                std::uint64_t count) const {
  DRAGON_SPAN_ARG("dataplane", "serve_batch", "queries", count);
  BatchResult r;
  EpochReader reader(domain_);
  const std::uint64_t pin_batch =
      config_.pin_batch == 0 ? 1 : config_.pin_batch;
  std::uint64_t served = 0;
  while (served < count) {
    reader.pin();
    const LpmTable* table = published_.read();  // after the pin
    const std::uint64_t batch = std::min<std::uint64_t>(pin_batch,
                                                        count - served);
    for (std::uint64_t q = 0; q < batch; ++q) {
      const Address addr = gen.draw(rng);
      const fibcomp::NextHop nh =
          table != nullptr ? table->lookup(addr) : fibcomp::kDrop;
      if (nh != fibcomp::kDrop) ++r.hits;
      std::uint64_t h =
          (static_cast<std::uint64_t>(addr) << 32) | nh;
      r.checksum += util::splitmix64(h);
    }
    served += batch;
  }
  r.lookups = count;
  return r;
}

BatchResult LookupServer::serve_parallel(exec::ThreadPool* pool,
                                         const QueryGen& gen,
                                         std::uint64_t seed,
                                         std::uint64_t count,
                                         std::size_t chunks) {
  DRAGON_SPAN_ARG("dataplane", "serve_parallel", "queries", count);
  if (chunks == 0) chunks = exec::kDefaultChunks;
  // Queries per chunk are a pure function of (count, chunks) — the
  // static_chunks split — and each chunk's RNG is forked by chunk index,
  // so the combined result is thread-count-invariant.
  const auto ranges = exec::static_chunks(count, chunks);
  std::vector<BatchResult> results(ranges.size());
  exec::ParallelOptions opts;
  opts.chunks = ranges.size();
  opts.seed = seed;
  exec::parallel_for(
      pool, ranges.size(),
      [&](std::size_t i, exec::TaskContext& ctx) {
        results[i] = serve(gen, std::move(ctx.rng),
                           ranges[i].second - ranges[i].first);
      },
      opts);
  BatchResult combined;
  for (const BatchResult& r : results) combined += r;
  note_served(combined);
  return combined;
}

void LookupServer::export_metrics(obs::MetricsRegistry& reg) const {
  if (const LpmTable* t = current(); t != nullptr) {
    const LpmStats& s = t->stats();
    reg.gauge("dragon.dataplane.table_bytes")
        ->set(static_cast<double>(s.table_bytes));
    reg.gauge("dragon.dataplane.entries")->set(static_cast<double>(s.entries));
    reg.gauge("dragon.dataplane.palette_size")
        ->set(static_cast<double>(s.palette_size));
    reg.gauge("dragon.dataplane.bucket_count")
        ->set(static_cast<double>(s.bucket_count));
    auto* depth = reg.histogram("dragon.dataplane.bucket_depth");
    for (std::size_t d = 0; d < s.bucket_depth_hist.size(); ++d) {
      for (std::size_t n = 0; n < s.bucket_depth_hist[d]; ++n) {
        depth->observe(d + 1);
      }
    }
  }
  reg.counter("dragon.dataplane.swaps")->set(published_.publish_count());
  reg.counter("dragon.dataplane.reclaimed")->set(reclaimed_);
  reg.gauge("dragon.dataplane.retired_outstanding")
      ->set(static_cast<double>(published_.retired_count()));
  reg.counter("dragon.dataplane.lookups")->set(totals_.lookups);
  reg.counter("dragon.dataplane.hits")->set(totals_.hits);
}

}  // namespace dragon::dataplane
