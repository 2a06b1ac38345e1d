#include "dataplane/lpm_table.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

#include "obs/span.hpp"

namespace dragon::dataplane {

using fibcomp::NextHop;
using prefix::Address;

LpmTable LpmTable::compile(const fibcomp::Fib& fib, const LpmConfig& config) {
  DRAGON_SPAN_ARG("dataplane", "lpm_compile", "entries", fib.size());

  if (config.top_bits != 8 && config.top_bits != 16 && config.top_bits != 24) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "LpmConfig::top_bits must be 8/16/24, got %d",
                  config.top_bits);
    throw std::invalid_argument(buf);
  }
  fibcomp::check_fib_next_hops(fib);

  LpmTable t;
  t.top_bits_ = config.top_bits;
  t.root_shift_ = prefix::kAddressBits - config.top_bits;
  t.top_.assign(std::size_t{1} << config.top_bits, 0);

  // Palette: dedupe next hops into small codes.  Code 0 is "no match", so
  // palette index i is stored as i + 1.
  std::unordered_map<NextHop, std::uint32_t> palette_code;
  const auto code_of = [&](NextHop nh) -> std::uint32_t {
    const auto [it, inserted] =
        palette_code.try_emplace(nh, static_cast<std::uint32_t>(
                                         t.palette_.size() + 1));
    if (inserted) t.palette_.push_back(nh);
    return it->second;
  };

  // Process entries in ascending prefix-length order.  Filling a /L range
  // then only sees slots written by prefixes of length <= L — plain
  // palette codes, never bucket pointers, because buckets are created
  // exclusively while descending for *longer* prefixes, which all come
  // later.  The stable sort keeps duplicate prefixes in FIB order, so the
  // later entry overwrites the earlier one (PrefixTrie::insert semantics).
  std::vector<std::size_t> order(fib.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&fib](std::size_t a, std::size_t b) {
                     return fib[a].prefix.length() < fib[b].prefix.length();
                   });

  // Allocates a fresh bucket whose 256 slots inherit `fill` (the shorter
  // match covering the whole stride), returning its index.
  const auto new_bucket = [&t](std::uint32_t fill) -> std::uint32_t {
    const auto b = static_cast<std::uint32_t>(t.buckets_.size() / 256);
    t.buckets_.insert(t.buckets_.end(), 256, fill);
    return b;
  };

  for (const std::size_t i : order) {
    const prefix::Prefix& p = fib[i].prefix;
    const Address first = p.first_address();
    const std::uint32_t code = code_of(fib[i].next_hop);
    const int len = p.length();

    if (len <= t.top_bits_) {
      const std::size_t lo = first >> t.root_shift_;
      const std::size_t count = std::size_t{1} << (t.top_bits_ - len);
      std::fill_n(t.top_.begin() + static_cast<std::ptrdiff_t>(lo), count,
                  code);
      continue;
    }

    // Descend 8-bit strides, materialising buckets on the way, until the
    // level whose stride contains the prefix's last bits; fill the
    // 2^(8 - rem) aligned slots it covers there.
    bool in_root = true;
    std::size_t slot = first >> t.root_shift_;
    int shift = t.root_shift_;
    int rem = len - t.top_bits_;
    for (;;) {
      const std::uint32_t e = in_root ? t.top_[slot] : t.buckets_[slot];
      std::uint32_t bucket;
      if (e & kBucketBit) {
        bucket = e & ~kBucketBit;
      } else {
        bucket = new_bucket(e);
        const std::uint32_t ptr = kBucketBit | bucket;
        if (in_root) {
          t.top_[slot] = ptr;
        } else {
          t.buckets_[slot] = ptr;
        }
      }
      shift -= 8;
      const std::size_t idx = (first >> shift) & 0xFFu;
      if (rem <= 8) {
        const std::size_t lo = std::size_t{256} * bucket + idx;
        const std::size_t count = std::size_t{1} << (8 - rem);
        std::fill_n(t.buckets_.begin() + static_cast<std::ptrdiff_t>(lo),
                    count, code);
        break;
      }
      in_root = false;
      slot = std::size_t{256} * bucket + idx;
      rem -= 8;
    }
  }

  t.stats_.entries = fib.size();
  t.stats_.palette_size = t.palette_.size();
  t.stats_.bucket_count = t.buckets_.size() / 256;
  t.stats_.table_bytes =
      (t.top_.size() + t.buckets_.size()) * sizeof(std::uint32_t) +
      t.palette_.size() * sizeof(NextHop);
  return t;
}

}  // namespace dragon::dataplane
