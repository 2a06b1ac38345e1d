// Data-plane serving layer tests (the `dataplane_smoke` ctest target):
// compiled-table-vs-trie differential oracle across compile/swap cycles,
// the hot-swap retire/reclaim contract, concurrent readers during
// hot-swap (what the tsan-dataplane-smoke preset builds), parallel-serve
// determinism, first-hop equivalence against Simulator::trace(), and
// pre- vs post-DRAGON tables of a converged generated Internet served
// under hot swap.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <future>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "addressing/assignment.hpp"
#include "algebra/gr_path_algebra.hpp"
#include "dataplane/compiler.hpp"
#include "dataplane/lookup_server.hpp"
#include "dataplane/lpm_table.hpp"
#include "engine/simulator.hpp"
#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "paper_networks.hpp"
#include "prefix/prefix_trie.hpp"
#include "test_support.hpp"
#include "topology/generator.hpp"
#include "util/rng.hpp"

namespace dragon::dataplane {
namespace {

using algebra::GrClass;
using algebra::GrPathAlgebra;
using fibcomp::Fib;
using fibcomp::kDrop;
using fibcomp::kLocal;
using fibcomp::NextHop;
using prefix::Address;
using prefix::Prefix;
using F1 = dragon::testing::Figure1;
using dragon::testing::quiesce;

Prefix bp(const char* s) { return *Prefix::from_bit_string(s); }

constexpr algebra::Attr kOriginAttr =
    GrPathAlgebra::make(GrClass::kCustomer, 0);

/// A DRAGON-enabled engine with the scaled-down timers the data-plane
/// tests converge under.
engine::Config dragon_config() {
  engine::Config config;
  config.mrai = 0.5;
  config.link_delay = 0.01;
  config.enable_dragon = true;
  return config;
}

Fib random_fib(util::Rng& rng, std::size_t entries) {
  Fib fib;
  fib.reserve(entries);
  for (std::size_t i = 0; i < entries; ++i) {
    const int len = static_cast<int>(rng.below(33));
    const Prefix p(static_cast<Address>(rng()), len);
    NextHop nh;
    if (rng.chance(0.05)) {
      nh = kDrop;
    } else if (rng.chance(0.05)) {
      nh = kLocal;
    } else {
      nh = static_cast<NextHop>(rng.below(1000));
    }
    fib.push_back({p, nh});
  }
  return fib;
}

/// Boundary addresses of every prefix (first, last, the neighbours just
/// outside) — where an LPM implementation disagreement would hide.
std::vector<Address> boundary_probes(const Fib& fib) {
  std::vector<Address> probes;
  probes.reserve(4 * fib.size() + 1);
  for (const auto& e : fib) {
    const Address first = e.prefix.first_address();
    const std::uint64_t after = first + e.prefix.size();
    probes.push_back(first);
    probes.push_back(static_cast<Address>(after - 1));
    if (first > 0) probes.push_back(first - 1);
    if (after <= 0xFFFFFFFFull) probes.push_back(static_cast<Address>(after));
  }
  probes.push_back(0);
  return probes;
}

void expect_matches_trie(const LpmTable& table, const Fib& fib,
                         util::Rng& rng, std::size_t random_probes) {
  const auto trie = fibcomp::build_trie(fib);
  for (const Address addr : boundary_probes(fib)) {
    ASSERT_EQ(table.lookup(addr), fibcomp::lookup(trie, addr))
        << "boundary addr " << addr << " top_bits " << table.top_bits();
  }
  for (std::size_t i = 0; i < random_probes; ++i) {
    const auto addr = static_cast<Address>(rng());
    ASSERT_EQ(table.lookup(addr), fibcomp::lookup(trie, addr))
        << "random addr " << addr << " top_bits " << table.top_bits();
  }
}

// ---------------------------------------------------------------------------
// LpmTable compile + lookup
// ---------------------------------------------------------------------------

TEST(DataplaneSmoke, TableMatchesTrieOnHandCases) {
  // Nested prefixes straddling the root/bucket boundary, a default route,
  // and a full /32 (three chained buckets under top_bits = 8).
  const Fib fib{
      {bp(""), 7},                        // /0 default
      {bp("1"), 1},                       {bp("10"), 2},
      {bp("101"), 3},                     {Prefix(0x80000000u, 20), 4},
      {Prefix(0x80000100u, 26), 5},       {Prefix(0x80000142u, 32), 6},
      {Prefix(0xFFFFFF00u, 24), kLocal},  {Prefix(0x00000000u, 9), kDrop},
  };
  util::Rng rng(1);
  for (const int top_bits : {8, 16, 24}) {
    const auto table = LpmTable::compile(fib, {top_bits});
    expect_matches_trie(table, fib, rng, 2000);
    EXPECT_EQ(table.stats().entries, fib.size());
  }
}

TEST(DataplaneSmoke, EmptyAndSingleEntryTables) {
  const auto empty = LpmTable::compile({}, {8});
  EXPECT_EQ(empty.lookup(0), kDrop);
  EXPECT_EQ(empty.lookup(0xFFFFFFFFu), kDrop);
  EXPECT_EQ(empty.stats().bucket_count, 0u);

  const auto root = LpmTable::compile({{bp(""), 42}}, {16});
  EXPECT_EQ(root.lookup(0), 42u);
  EXPECT_EQ(root.lookup(0x12345678u), 42u);
}

TEST(DataplaneSmoke, PaletteDedupesNextHops) {
  const Fib fib{{bp("0"), 9}, {bp("10"), 9}, {bp("110"), 9}, {bp("111"), 5}};
  const auto table = LpmTable::compile(fib, {8});
  EXPECT_EQ(table.stats().palette_size, 2u);
}

TEST(DataplaneSmoke, DuplicatePrefixLaterEntryWins) {
  const Fib fib{{bp("10"), 1}, {bp("10"), 2}};
  const auto table = LpmTable::compile(fib, {8});
  const auto trie = fibcomp::build_trie(fib);  // insert overwrites: 2 wins
  const Address a = bp("10").first_address();
  EXPECT_EQ(table.lookup(a), 2u);
  EXPECT_EQ(table.lookup(a), fibcomp::lookup(trie, a));
}

TEST(DataplaneSmoke, CompileRejectsBadConfig) {
  EXPECT_THROW((void)LpmTable::compile({}, {12}), std::invalid_argument);
  EXPECT_THROW((void)LpmTable::compile({}, {0}), std::invalid_argument);
  EXPECT_THROW((void)LpmTable::compile({}, {32}), std::invalid_argument);
}

TEST(DataplaneSmoke, ChainedBucketCountAndTableBytes) {
  // /24 and /32 under top_bits = 16: a depth-1 bucket and a depth-2
  // bucket chained below it.
  const Fib fib{{Prefix(0x0A000000u, 24), 1}, {Prefix(0x0A000010u, 32), 2}};
  const auto table = LpmTable::compile(fib, {16});
  EXPECT_EQ(table.stats().bucket_count, 2u);
  EXPECT_EQ(table.stats().table_bytes,
            (table.stats().bucket_count * 256 + (std::size_t{1} << 16) +
             table.stats().palette_size) *
                sizeof(std::uint32_t));
}

// ---------------------------------------------------------------------------
// Sentinel-hazard guard (fibcomp satellite)
// ---------------------------------------------------------------------------

TEST(DataplaneSmoke, CompileRejectsUndefinedSentinelNextHops) {
  const Fib bad{{bp("1"), fibcomp::kSentinelBase}};
  EXPECT_THROW((void)LpmTable::compile(bad, {8}), std::invalid_argument);
  EXPECT_THROW((void)fibcomp::build_trie(bad), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Differential oracle across >= 100 seeded compile/swap cycles
// ---------------------------------------------------------------------------

TEST(DataplaneSmoke, DifferentialOracleAcrossCompileSwapCycles) {
  LookupServer server({.pin_batch = 64});
  util::Rng rng(20260808);
  for (int cycle = 0; cycle < 110; ++cycle) {
    const std::size_t entries = 200 + rng.below(600);
    const Fib fib = random_fib(rng, entries);
    const int top_bits = rng.chance(0.5) ? 8 : 16;
    FibCompiler compiler{{top_bits}};
    server.publish(compiler.compile(fib));
    ASSERT_NE(server.current(), nullptr);
    expect_matches_trie(*server.current(), fib, rng, 200);
  }
  // No reader holds a table: every retired table must drain.
  EXPECT_EQ(server.reclaim(), 0u);
  EXPECT_EQ(server.publish_count(), 110u);
}

// ---------------------------------------------------------------------------
// Hot-swap retire/reclaim contract
// ---------------------------------------------------------------------------

TEST(DataplaneSmoke, ReclaimDeferredWhileReaderPinned) {
  const FibCompiler compiler{{8}};
  const Address addr = bp("1").first_address();
  LookupServer server;
  server.publish(compiler.compile({{bp("1"), 1}}));

  std::shared_ptr<const LpmTable> held = server.current();
  ASSERT_NE(held, nullptr);
  const std::weak_ptr<const LpmTable> watch = held;

  // Swap while a reader holds the live table: the old table retires,
  // stays outstanding and stays readable (ASan would flag a stale read).
  server.publish(compiler.compile({{bp("1"), 2}}));
  EXPECT_EQ(server.current()->lookup(addr), 2u);
  EXPECT_EQ(server.reclaim(), 1u);
  EXPECT_EQ(held->lookup(addr), 1u);

  // Dropping the copy frees nothing: the owner's next reclaim does.
  held.reset();
  EXPECT_FALSE(watch.expired());
  EXPECT_EQ(server.reclaim(), 0u);
  EXPECT_TRUE(watch.expired());
}

TEST(DataplaneSmoke, QuiescentReadersDoNotBlockReclaim) {
  // A reader that copied a table and let it go holds nothing, so three
  // publishes leave nothing outstanding.
  const FibCompiler compiler{{8}};
  LookupServer server;
  for (NextHop nh = 1; nh <= 3; ++nh) {
    server.publish(compiler.compile({{bp("1"), nh}}));
    ASSERT_NE(server.current(), nullptr);
  }
  EXPECT_EQ(server.reclaim(), 0u);  // publish reclaimed eagerly
  EXPECT_EQ(server.publish_count(), 3u);
}

// ---------------------------------------------------------------------------
// Concurrent readers during hot-swap (the tsan-dataplane-smoke workload)
// ---------------------------------------------------------------------------

TEST(DataplaneSmoke, ConcurrentReadersDuringHotSwap) {
  // Two alternating tables; every concurrent lookup must return one of
  // the two reference answers — a torn or stale-freed table would not.
  util::Rng setup_rng(99);
  const Fib fib_a = random_fib(setup_rng, 40);
  Fib fib_b = fib_a;
  for (auto& e : fib_b) {
    if (!fibcomp::is_sentinel(e.next_hop)) e.next_hop += 1000;
  }
  const auto trie_a = fibcomp::build_trie(fib_a);
  const auto trie_b = fibcomp::build_trie(fib_b);

  LookupServer server({.pin_batch = 32});
  FibCompiler compiler{{8}};
  server.publish(compiler.compile(fib_a));

  std::atomic<std::uint64_t> mismatches{0};
  exec::ThreadPool pool(3);
  std::vector<std::future<void>> workers;
  for (int w = 0; w < 3; ++w) {
    workers.push_back(pool.submit([&, w] {
      util::Rng rng(1000 + static_cast<std::uint64_t>(w));
      for (int batch = 0; batch < 400; ++batch) {
        const std::shared_ptr<const LpmTable> table = server.current();
        for (int q = 0; q < 64; ++q) {
          const auto addr = static_cast<Address>(rng());
          const NextHop got = table->lookup(addr);
          if (got != fibcomp::lookup(trie_a, addr) &&
              got != fibcomp::lookup(trie_b, addr)) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    }));
  }

  // Hot-swap continuously while the readers run.
  for (int swap = 0; swap < 120; ++swap) {
    server.publish(compiler.compile(swap % 2 == 0 ? fib_b : fib_a));
    server.reclaim();
    std::this_thread::yield();
  }
  for (auto& f : workers) f.get();
  pool.shutdown();

  EXPECT_EQ(mismatches.load(), 0u);
  // No reader holds a table any more: the retired list fully drains.
  EXPECT_EQ(server.reclaim(), 0u);
  EXPECT_EQ(server.publish_count(), 121u);
}

// ---------------------------------------------------------------------------
// Parallel serve determinism
// ---------------------------------------------------------------------------

TEST(DataplaneSmoke, ServeParallelInvariantAcrossThreadCounts) {
  util::Rng rng(7);
  const Fib fib = random_fib(rng, 50);
  QueryMix mix;
  mix.kind = QueryMix::Kind::kZipf;
  mix.zipf_s = 1.1;
  mix.miss_fraction = 0.1;
  const QueryGen gen(fib, mix);

  // One serve() per chunk on its own forked stream, as pipebench's
  // converge_serve splits a stream over its readers.
  constexpr std::size_t kChunks = 8;
  const util::Rng streams(42);
  const auto run = [&](exec::ThreadPool* pool) {
    LookupServer server({.pin_batch = 256});
    server.publish(FibCompiler{{16}}.compile(fib));
    exec::ParallelOptions opts;
    opts.chunks = kChunks;
    BatchResult total;
    for (const BatchResult& r : exec::parallel_map<BatchResult>(
             pool, kChunks,
             [&](std::size_t i, exec::TaskContext&) {
               return server.serve(gen, streams.fork_stream(i),
                                   20000 / kChunks);
             },
             opts)) {
      total += r;
    }
    return total;
  };

  const BatchResult base = run(nullptr);
  EXPECT_EQ(base.lookups, 20000u);
  EXPECT_GT(base.hits, 0u);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    exec::ThreadPool pool(threads);
    const BatchResult r = run(&pool);
    EXPECT_EQ(r.lookups, base.lookups) << threads;
    EXPECT_EQ(r.hits, base.hits) << threads;
    EXPECT_EQ(r.checksum, base.checksum) << threads;
  }
}

TEST(DataplaneSmoke, ServeBeforeFirstPublishDropsEverything) {
  LookupServer server;
  const QueryGen gen(Fib{}, {});
  const BatchResult r = server.serve(gen, util::Rng(3), 100);
  EXPECT_EQ(r.lookups, 100u);
  EXPECT_EQ(r.hits, 0u);
}

TEST(DataplaneSmoke, ZipfQueriesHitTheFib) {
  // With miss_fraction = 0 every draw lands inside some FIB prefix, so a
  // FIB with no kDrop entries answers every query.
  const Fib fib{{bp("0"), 1}, {bp("10"), 2}, {bp("11"), 3}};
  QueryMix mix;
  mix.kind = QueryMix::Kind::kZipf;
  LookupServer server;
  server.publish(FibCompiler{{8}}.compile(fib));
  const BatchResult r = server.serve(QueryGen(fib, mix), util::Rng(5), 5000);
  EXPECT_EQ(r.hits, r.lookups);
}

// ---------------------------------------------------------------------------
// QueryGen: the guide table picks std::lower_bound's index, and the
// address streams stay pinned
// ---------------------------------------------------------------------------

TEST(DataplaneSmoke, ZipfIndexMatchesLowerBound) {
  // index_of must equal std::lower_bound over the CDF (clamped to the
  // last prefix) at random u, at every CDF value, at every guide cell
  // edge k / K, and one ulp either side of each, inside [0, 1).  At
  // zipf_s 3.0 nearly all of a large CDF crowds into the last cell, where
  // each probe scans O(n) values, so there every 97th CDF value and the
  // last one stand in for all of them.
  util::Rng rng(11);
  for (const double s : {0.5, 1.0, 1.1, 3.0}) {
    for (const std::size_t n : {1u, 2u, 3u, 165u, 10'000u, 100'000u}) {
      QueryMix mix;
      mix.kind = QueryMix::Kind::kZipf;
      mix.zipf_s = s;
      const QueryGen gen(Fib(n, {bp("1"), 1}), mix);
      const std::vector<double>& cdf = gen.cdf();
      ASSERT_EQ(cdf.size(), n);

      std::size_t probes = 0;
      std::size_t mismatches = 0;
      double first_bad = -1.0;
      const auto check = [&](double u) {
        for (const double v :
             {std::nextafter(u, -1.0), u, std::nextafter(u, 2.0)}) {
          if (!(v >= 0.0 && v < 1.0)) continue;
          ++probes;
          const auto want = std::min<std::size_t>(
              std::lower_bound(cdf.begin(), cdf.end(), v) - cdf.begin(),
              n - 1);
          if (gen.index_of(v) != want && mismatches++ == 0) first_bad = v;
        }
      };
      for (int r = 0; r < 20'000; ++r) check(rng.uniform());
      const std::size_t stride = s >= 3.0 && n >= 10'000 ? 97 : 1;
      for (std::size_t i = 0; i < n; i += stride) check(cdf[i]);
      check(cdf.back());
      const std::size_t cells = std::bit_ceil(n);
      for (std::size_t k = 0; k <= cells; ++k) {
        check(static_cast<double>(k) / static_cast<double>(cells));
      }
      EXPECT_EQ(mismatches, 0u)
          << "zipf_s " << s << " n " << n << " first at u = " << first_bad;
      EXPECT_GT(probes, 2 * (n / stride + cells));
    }
  }
}

TEST(DataplaneSmoke, QueryStreamsPinnedAtFixedSeed) {
  // A hash of the first 100k addresses drawn from a 165-entry FIB (the
  // size of converge_serve's hot FIB at seed 1), for a uniform mix and
  // for converge_serve's Zipf mix.  The golden values are the streams of
  // the binary-search sampler the guide table replaced: the same index,
  // every RNG draw and every address.
  util::Rng fib_rng(165);
  const Fib fib = random_fib(fib_rng, 165);
  const auto stream_hash = [&](const QueryMix& mix) {
    const QueryGen gen(fib, mix);
    util::Rng rng(2026);
    std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over addresses
    for (int q = 0; q < 100'000; ++q) {
      h = (h ^ gen.draw(rng)) * 0x100000001b3ull;
    }
    return h;
  };
  QueryMix zipf;
  zipf.kind = QueryMix::Kind::kZipf;
  zipf.zipf_s = 1.0;
  zipf.miss_fraction = 0.05;
  EXPECT_EQ(stream_hash(QueryMix{}), 0x61b7e680e36d88dfull);
  EXPECT_EQ(stream_hash(zipf), 0xf1e0c04fe9ff9778ull);
}

// ---------------------------------------------------------------------------
// Compile-from-snapshot: first-hop equivalence with the engine
// ---------------------------------------------------------------------------

TEST(DataplaneSmoke, CompiledTableMatchesEngineTrace) {
  const auto topo = F1::topology();
  GrPathAlgebra alg;
  engine::Simulator sim(topo, alg, dragon_config());
  sim.originate(bp("10"), F1::origin_p, kOriginAttr);
  sim.originate(bp("10000"), F1::origin_q, kOriginAttr);
  quiesce(sim);

  util::Rng rng(11);
  const auto fibs = fibs_from_simulator(sim, SnapshotKind::kPostDragon);
  const FibCompiler compiler{{8}};
  for (topology::NodeId u = 0; u < topo.node_count(); ++u) {
    const auto table = compiler.compile(fibs[u]);

    std::vector<Address> probes = boundary_probes(fibs[u]);
    for (int i = 0; i < 200; ++i) {
      probes.push_back(static_cast<Address>(rng()));
    }
    for (const Address addr : probes) {
      const auto tr = sim.trace(u, addr);
      NextHop expect = kDrop;
      if (tr.outcome == engine::Simulator::Outcome::kDelivered &&
          tr.path.size() == 1) {
        expect = kLocal;
      } else if (tr.path.size() >= 2) {
        expect = static_cast<NextHop>(tr.path[1]);
      }
      ASSERT_EQ(table->lookup(addr), expect)
          << "node " << u << " addr " << addr;
    }
  }
}

TEST(DataplaneSmoke, PreDragonSnapshotKeepsFilteredEntries) {
  const auto topo = F1::topology();
  GrPathAlgebra alg;
  engine::Simulator sim(topo, alg, dragon_config());
  sim.originate(bp("10"), F1::origin_p, kOriginAttr);
  sim.originate(bp("10000"), F1::origin_q, kOriginAttr);
  quiesce(sim);

  const auto pre = fibs_from_simulator(sim, SnapshotKind::kPreDragon);
  const auto post = fibs_from_simulator(sim, SnapshotKind::kPostDragon);
  std::size_t pre_total = 0;
  std::size_t post_total = 0;
  for (topology::NodeId u = 0; u < topo.node_count(); ++u) {
    EXPECT_GE(pre[u].size(), post[u].size()) << u;
    pre_total += pre[u].size();
    post_total += post[u].size();
  }
  // DRAGON filters q somewhere in Figure 1, so the totals must differ.
  EXPECT_GT(pre_total, post_total);
}

// ---------------------------------------------------------------------------
// Pre- vs post-DRAGON tables of a converged Internet, served under hot swap
// ---------------------------------------------------------------------------

TEST(DataplaneSmoke, ConvergedTablesServeEqualHitsUnderHotSwap) {
  topology::GeneratorParams tparams;
  tparams.tier1_count = 3;
  tparams.transit_count = 12;
  tparams.stub_count = 96;
  tparams.seed = 5;
  const auto generated = topology::generate_internet(tparams);
  addressing::AssignmentParams aparams;
  aparams.seed = 6;
  const auto assignment = addressing::clean_assignment(
      generated.graph, addressing::generate_assignment(generated, aparams));
  ASSERT_GE(assignment.size(), 60u);
  GrPathAlgebra alg;
  engine::Simulator sim(generated.graph, alg, dragon_config());
  for (std::size_t i = 0; i < 60; ++i) {
    sim.originate(assignment.prefixes[i], assignment.origin[i], kOriginAttr);
  }
  quiesce(sim);

  const auto pre = fibs_from_simulator(sim, SnapshotKind::kPreDragon);
  const auto post = fibs_from_simulator(sim, SnapshotKind::kPostDragon);
  std::vector<topology::NodeId> nodes(pre.size());
  std::iota(nodes.begin(), nodes.end(), topology::NodeId{0});
  std::sort(nodes.begin(), nodes.end(), [&](auto a, auto b) {
    if (pre[a].size() != pre[b].size()) return pre[a].size() > pre[b].size();
    return a < b;
  });
  nodes.resize(3);

  const FibCompiler compiler;
  util::Rng rng(17);
  std::size_t pre_entries = 0;
  std::size_t post_entries = 0;
  for (const topology::NodeId u : nodes) {
    const auto pre_table = compiler.compile(pre[u]);
    const auto post_table = compiler.compile(post[u]);
    EXPECT_LE(post_table->stats().entries, pre_table->stats().entries) << u;
    EXPECT_LE(post_table->stats().table_bytes, pre_table->stats().table_bytes)
        << u;
    pre_entries += pre_table->stats().entries;
    post_entries += post_table->stats().entries;
    expect_matches_trie(*pre_table, pre[u], rng, 2000);
    expect_matches_trie(*post_table, post[u], rng, 2000);
  }
  // DRAGON filtered something, so the hit checks below compare two
  // different tables.
  EXPECT_LT(post_entries, pre_entries);

  // A query hits the post-DRAGON table exactly when it hits the
  // pre-DRAGON one (a filtered prefix's covering parent stays
  // installed), so readers count the same hits whichever table each
  // batch saw.  Reader w serves kBatches serve() calls on forked streams.
  const topology::NodeId hot = nodes.front();
  QueryMix mix;
  mix.kind = QueryMix::Kind::kZipf;
  mix.miss_fraction = 0.05;
  const QueryGen gen(pre[hot], mix);
  constexpr std::size_t kReaders = 3;
  constexpr std::uint64_t kBatches = 40;
  constexpr std::uint64_t kBatch = 2000;
  constexpr std::uint64_t kSwaps = 40;
  const util::Rng base(2026);
  std::atomic<std::uint64_t> served{0};
  const auto serve_stream = [&](const LookupServer& server, std::size_t w) {
    BatchResult r;
    const util::Rng stream = base.fork_stream(w);
    for (std::uint64_t k = 0; k < kBatches; ++k) {
      r += server.serve(gen, stream.fork_stream(k), kBatch);
      served.fetch_add(kBatch);
    }
    return r;
  };
  BatchResult fixed[2];  // [0] pre, [1] post
  for (int kind = 0; kind < 2; ++kind) {
    LookupServer server;
    server.publish(compiler.compile(kind == 0 ? pre[hot] : post[hot]));
    for (std::size_t w = 0; w < kReaders; ++w) {
      fixed[kind] += serve_stream(server, w);
    }
  }
  EXPECT_EQ(fixed[1].hits, fixed[0].hits);
  EXPECT_LT(fixed[0].hits, fixed[0].lookups);  // the misses are drawn

  LookupServer server({.pin_batch = 64});
  server.publish(compiler.compile(post[hot]));
  served = 0;
  std::vector<BatchResult> swapping(kReaders);
  exec::ThreadPool pool(kReaders);
  std::vector<std::future<void>> readers;
  for (std::size_t w = 0; w < kReaders; ++w) {
    readers.push_back(
        pool.submit([&, w] { swapping[w] = serve_stream(server, w); }));
  }
  // Owner: alternate pre and post tables, one swap each time the readers
  // finish another 1/kSwaps of their queries.
  const std::uint64_t total = kReaders * kBatches * kBatch;
  for (std::uint64_t s = 0; s < kSwaps; ++s) {
    while (served.load() < s * total / kSwaps) std::this_thread::yield();
    server.publish(compiler.compile(s % 2 == 0 ? pre[hot] : post[hot]));
    server.reclaim();
  }
  for (auto& f : readers) f.get();
  BatchResult swapped;
  for (const BatchResult& r : swapping) swapped += r;
  EXPECT_EQ(swapped.lookups, total);
  EXPECT_EQ(swapped.hits, fixed[0].hits);
  EXPECT_EQ(server.reclaim(), 0u);
  EXPECT_EQ(server.publish_count(), kSwaps + 1);
}

}  // namespace
}  // namespace dragon::dataplane
