// Data-plane serving: does DRAGON's FIB shrinkage buy forwarding speed?
//
// Pipeline: build the synthetic Internet, converge a DRAGON-enabled
// simulator over --prefixes originations, snapshot the busiest nodes'
// FIBs both ways (kPreDragon: every elected entry; kPostDragon: the
// filtered FIB the paper's §5 efficiency numbers count), compile each
// into an LpmTable, and serve --queries batched LPM lookups per table
// from the exec:: thread pool.  Both phases replay the *same* query
// stream (same QueryGen + seed), so the measured difference is the
// table, not the traffic.  A final hot-swap phase republishes tables
// while readers serve, exercising the epoch retire/reclaim path that
// tsan-dataplane-smoke runs under TSan.
//
// `--metrics-json` writes the dataplane.* gauges the perf gate compares
// against bench/BENCH_dataplane.json (see bench/README.md for the
// refresh procedure):
//   dataplane.lookup_ns_per_query.{pre,post}   (lower is better)
//   dataplane.compile_ms.{pre,post}
//   dataplane.table_bytes.{pre,post}
// plus the dragon.dataplane.* registry of the hot-swap server (swap
// count, bucket depth histogram, reclaim latencies).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <set>
#include <thread>
#include <vector>

#include "addressing/assignment.hpp"
#include "algebra/gr_path_algebra.hpp"
#include "bench_common.hpp"
#include "chaos/watchdog.hpp"
#include "dataplane/compiler.hpp"
#include "dataplane/lookup_server.hpp"
#include "engine/simulator.hpp"
#include "util/rng.hpp"

namespace {

using namespace dragon;
using algebra::GrClass;
using algebra::GrPathAlgebra;
using topology::NodeId;

constexpr algebra::Attr kOriginAttr =
    GrPathAlgebra::make(GrClass::kCustomer, 0);

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct PhaseResult {
  std::size_t entries = 0;
  std::size_t table_bytes = 0;
  double compile_ms = 0.0;
  double lookup_ns_per_query = 0.0;
  std::uint64_t hits = 0;
  std::uint64_t lookups = 0;
};

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  bench::define_scenario_flags(flags);
  bench::define_exec_flags(flags);
  bench::define_obs_flags(flags);
  flags.define_int("prefixes", 1200, "originated prefixes", 1, 1 << 22);
  flags.define_int("queries", 2'000'000,
                   "LPM queries per serving phase (per node, per table)", 1,
                   std::int64_t{1} << 40);
  flags.define_int("swaps", 50, "hot-swap cycles in the swap phase", 0,
                   1 << 20);
  flags.define_int("serve-nodes", 3,
                   "serving nodes (the busiest pre-DRAGON FIBs)", 1, 1 << 16);
  flags.define_int("top-bits", 16, "LpmTable root index width (8/16/24)", 8,
                   24);
  flags.define("zipf-s", "1.0", "Zipf skew of the query mix (0: uniform)");
  flags.define("miss-fraction", "0.05",
               "fraction of queries drawn over the whole address space");
  if (!flags.parse(argc, argv)) return 1;
  flags.print_config("bench_dataplane");
  bench::apply_obs_flags();
  auto pool = bench::make_thread_pool(flags);
  const std::size_t threads = pool != nullptr ? pool->size() : 1;

  const auto scenario = bench::build_scenario(flags);
  const auto& topo = scenario.generated.graph;
  addressing::AssignmentCleanReport clean_report;
  const auto cleaned =
      addressing::clean_assignment(topo, scenario.assignment, &clean_report);

  // --- Converge a DRAGON-enabled network -----------------------------------
  engine::Config config;
  config.mrai = 0.5;  // scaled down with link_delay; ratios preserved
  config.link_delay = 0.01;
  config.enable_dragon = true;
  config.l_attr = [](algebra::Attr a) {
    return static_cast<std::uint32_t>(GrPathAlgebra::class_of(a));
  };
  config.seed = scenario.trial_seed;
  GrPathAlgebra alg;
  engine::Simulator sim(topo, alg, config);

  std::set<prefix::Prefix> used;
  std::size_t origins = 0;
  for (std::size_t i = 0;
       i < cleaned.size() && origins < flags.u64("prefixes"); ++i) {
    if (used.insert(cleaned.prefixes[i]).second) {
      sim.originate(cleaned.prefixes[i], cleaned.origin[i], kOriginAttr);
      ++origins;
    }
  }
  std::printf("# %zu originations\n", origins);
  {
    const double t0 = now_ms();
    const auto watchdog = chaos::run_to_quiescence(sim, {1e7, 200'000'000});
    if (!watchdog.quiescent) {
      std::fprintf(stderr, "convergence watchdog fired:\n%s\n",
                   watchdog.diagnostics.c_str());
      return 1;
    }
    std::printf("# converged in %.0f ms\n", now_ms() - t0);
  }

  // --- Snapshot FIBs, pick the busiest serving nodes -----------------------
  const auto pre = dataplane::fibs_from_simulator(
      sim, dataplane::SnapshotKind::kPreDragon);
  const auto post = dataplane::fibs_from_simulator(
      sim, dataplane::SnapshotKind::kPostDragon);
  std::vector<NodeId> serve_nodes;
  {
    std::vector<NodeId> all(topo.node_count());
    for (NodeId u = 0; u < all.size(); ++u) all[u] = u;
    // Busiest first; ties by id so the pick is deterministic.
    std::sort(all.begin(), all.end(), [&](NodeId a, NodeId b) {
      if (pre[a].size() != pre[b].size()) return pre[a].size() > pre[b].size();
      return a < b;
    });
    const auto want =
        std::min<std::size_t>(flags.u64("serve-nodes"), all.size());
    serve_nodes.assign(all.begin(), all.begin() + static_cast<long>(want));
  }

  const int top_bits = static_cast<int>(flags.i64("top-bits"));
  const dataplane::FibCompiler compiler{{top_bits}};
  dataplane::QueryMix mix;
  const double zipf_s = flags.f64("zipf-s");
  mix.kind = zipf_s > 0.0 ? dataplane::QueryMix::Kind::kZipf
                          : dataplane::QueryMix::Kind::kUniform;
  mix.zipf_s = zipf_s;
  mix.miss_fraction = flags.f64("miss-fraction");
  const std::uint64_t queries = flags.u64("queries");

  // --- Serve each phase: same query stream, different table ----------------
  // The stream is generated from the pre-DRAGON FIB for BOTH phases
  // (traffic does not change because a router filters entries), so the
  // ns/query delta is attributable to table size/shape alone.
  PhaseResult results[2];  // [0] = pre, [1] = post
  const char* const phase_names[2] = {"pre", "post"};
  for (const NodeId u : serve_nodes) {
    const dataplane::QueryGen gen(pre[u], mix);
    for (int phase = 0; phase < 2; ++phase) {
      const fibcomp::Fib& fib = phase == 0 ? pre[u] : post[u];
      const double t0 = now_ms();
      auto table = compiler.compile(fib);
      const double compile_ms = now_ms() - t0;

      dataplane::LookupServer server(
          {/*max_readers=*/threads + exec::kDefaultChunks,
           /*pin_batch=*/4096});
      results[phase].entries += table->stats().entries;
      results[phase].table_bytes += table->stats().table_bytes;
      results[phase].compile_ms += compile_ms;
      server.publish(std::move(table));

      const double s0 = now_ms();
      const auto batch = server.serve_parallel(
          pool.get(), gen, /*seed=*/scenario.trial_seed ^ u, queries);
      const double serve_ms = now_ms() - s0;
      results[phase].lookup_ns_per_query +=
          1e6 * serve_ms / static_cast<double>(queries);
      results[phase].hits += batch.hits;
      results[phase].lookups += batch.lookups;
    }
  }
  const auto n_serve = static_cast<double>(serve_nodes.size());
  for (auto& r : results) {
    r.compile_ms /= n_serve;
    r.lookup_ns_per_query /= n_serve;
  }

  // --- Hot-swap phase: readers serve while tables republish ----------------
  // Exercises the epoch retire/reclaim machinery under real concurrency
  // (the tsan-dataplane-smoke workload) and fills the dragon.dataplane.*
  // registry section.
  const NodeId hot = serve_nodes.front();
  dataplane::LookupServer hot_server(
      {/*max_readers=*/threads + 4, /*pin_batch=*/1024});
  hot_server.publish(compiler.compile(post[hot]));
  const dataplane::QueryGen hot_gen(pre[hot], mix);
  const std::uint64_t swaps = flags.u64("swaps");
  const std::uint64_t swap_queries = std::max<std::uint64_t>(queries / 10, 1);
  if (pool != nullptr && swaps > 0) {
    std::vector<std::future<dataplane::BatchResult>> served;
    std::vector<std::promise<dataplane::BatchResult>> promises(pool->size());
    for (std::size_t w = 0; w < pool->size(); ++w) {
      auto* promise = &promises[w];
      served.push_back(promise->get_future());
      const std::uint64_t seed = scenario.trial_seed + 1000 + w;
      pool->submit([&hot_server, &hot_gen, promise, seed, swap_queries] {
        promise->set_value(
            hot_server.serve(hot_gen, util::Rng(seed), swap_queries));
      });
    }
    for (std::uint64_t s = 0; s < swaps; ++s) {
      hot_server.publish(
          compiler.compile(s % 2 == 0 ? pre[hot] : post[hot]));
      hot_server.reclaim();
      std::this_thread::yield();
    }
    for (auto& f : served) hot_server.note_served(f.get());
  } else {
    for (std::uint64_t s = 0; s < swaps; ++s) {
      hot_server.publish(
          compiler.compile(s % 2 == 0 ? pre[hot] : post[hot]));
      hot_server.note_served(hot_server.serve(
          hot_gen, util::Rng(scenario.trial_seed + 1000 + s),
          std::max<std::uint64_t>(swap_queries / swaps, 1)));
      hot_server.reclaim();
    }
  }
  const std::size_t outstanding = hot_server.reclaim();

  // --- Report ---------------------------------------------------------------
  std::printf("\n%-26s %14s %14s %10s\n", "metric", "pre-DRAGON", "post-DRAGON",
              "post/pre");
  const auto row = [](const char* name, double a, double b) {
    std::printf("%-26s %14.2f %14.2f %9.2f%%\n", name, a, b,
                a > 0 ? 100.0 * b / a : 0.0);
  };
  row("fib entries (sum)", static_cast<double>(results[0].entries),
      static_cast<double>(results[1].entries));
  row("table KiB (sum)", static_cast<double>(results[0].table_bytes) / 1024.0,
      static_cast<double>(results[1].table_bytes) / 1024.0);
  row("compile ms (mean)", results[0].compile_ms, results[1].compile_ms);
  row("lookup ns/query (mean)", results[0].lookup_ns_per_query,
      results[1].lookup_ns_per_query);
  row("Mlookups/s (mean)", 1000.0 / results[0].lookup_ns_per_query,
      1000.0 / results[1].lookup_ns_per_query);
  std::printf("# hot-swap: %zu publishes, %zu retired tables outstanding\n",
              hot_server.publish_count(), outstanding);

  if (!flags.str("metrics-json").empty()) {
    obs::MetricsRegistry reg;
    for (int phase = 0; phase < 2; ++phase) {
      const std::string suffix = std::string(".") + phase_names[phase];
      reg.gauge("dataplane.lookup_ns_per_query" + suffix)
          ->set(results[phase].lookup_ns_per_query);
      reg.gauge("dataplane.compile_ms" + suffix)
          ->set(results[phase].compile_ms);
      reg.gauge("dataplane.table_bytes" + suffix)
          ->set(static_cast<double>(results[phase].table_bytes));
      reg.counter("dataplane.hits" + suffix)->set(results[phase].hits);
      reg.counter("dataplane.lookups" + suffix)->set(results[phase].lookups);
    }
    hot_server.export_metrics(reg);
    bench::write_metrics_json(
        flags.str("metrics-json"), {{"dataplane", &reg}},
        bench::run_meta_json("bench_dataplane", flags.u64("seed"), threads));
    std::printf("# wrote %s\n", flags.str("metrics-json").c_str());
  }
  pool.reset();  // exporting spans requires the workers joined
  bench::maybe_export_span_trace(
      flags, "bench_dataplane",
      {{"seed", std::to_string(flags.u64("seed"))}});
  return 0;
}
