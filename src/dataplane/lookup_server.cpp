#include "dataplane/lookup_server.hpp"

#include <algorithm>
#include <bit>
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
    // One merge walk over cells and CDF.  K is a power of two, so every
    // cell edge k / K is exact.
    const std::size_t cells = std::bit_ceil(cdf_.size());
    const std::size_t last = cdf_.size() - 1;
    guide_.resize(cells);
    std::size_t i = 0;
    for (std::size_t k = 0; k < cells; ++k) {
      const double edge = static_cast<double>(k) / static_cast<double>(cells);
      while (i < last && cdf_[i] < edge) ++i;
      guide_[k] = static_cast<std::uint32_t>(i);
    }
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
    i = index_of(rng.uniform());
  }
  return first_[i] + static_cast<Address>(rng.below(size_[i]));
}

LookupServer::LookupServer(LookupServerConfig config) : config_(config) {}

void LookupServer::publish(std::unique_ptr<const LpmTable> table) {
  DRAGON_SPAN_ARG("dataplane", "table_swap", "bytes",
                  table != nullptr ? table->stats().table_bytes : 0);
  // Allocates the control block here, outside the lock.
  std::shared_ptr<const LpmTable> next(std::move(table));
  std::shared_ptr<const LpmTable> old;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    old = std::exchange(current_, std::move(next));
    ++publish_count_;
  }
  if (old != nullptr) retired_.push_back(std::move(old));
  free_unheld();
}

std::size_t LookupServer::reclaim() {
  DRAGON_SPAN("dataplane", "table_reclaim");
  return free_unheld();
}

std::size_t LookupServer::free_unheld() {
  std::erase_if(retired_, [](const std::shared_ptr<const LpmTable>& t) {
    return t.use_count() == 1;
  });
  return retired_.size();
}

std::size_t LookupServer::publish_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return publish_count_;
}

std::shared_ptr<const LpmTable> LookupServer::current() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

BatchResult LookupServer::serve(const QueryGen& gen, util::Rng rng,
                                std::uint64_t count) const {
  DRAGON_SPAN_ARG("dataplane", "serve_batch", "queries", count);
  BatchResult r;
  const std::uint64_t pin_batch =
      config_.pin_batch == 0 ? 1 : config_.pin_batch;
  std::uint64_t served = 0;
  while (served < count) {
    const std::shared_ptr<const LpmTable> table = current();
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

}  // namespace dragon::dataplane
