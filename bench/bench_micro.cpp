// Micro-benchmarks (google-benchmark) for the performance-critical
// substrate pieces: prefix trie operations, the intern table, the flat
// RIB (insert/lookup/elect), forest construction, the per-origin GR
// sweep, the generic solver, both FIB compressors (ORTC and remove-only),
// the compiled LPM table and its query generator, and the event engine's
// end-to-end convergence.
//
// Besides the table (in --benchmark_format, console by default),
// `--metrics-json=PATH` writes every per-run ns/iter figure into a
// registry-shaped JSON artifact (BENCH_micro.json at the repo root is the
// committed baseline; tools/bench_gate.py compares a fresh run against it).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "addressing/assignment.hpp"
#include "algebra/gr_path_algebra.hpp"
#include "bench_common.hpp"
#include "chaos/watchdog.hpp"
#include "dataplane/lookup_server.hpp"
#include "dataplane/lpm_table.hpp"
#include "engine/rib.hpp"
#include "engine/simulator.hpp"
#include "fibcomp/ortc.hpp"
#include "prefix/intern.hpp"
#include "prefix/prefix_forest.hpp"
#include "prefix/prefix_trie.hpp"
#include "routecomp/generic_solver.hpp"
#include "routecomp/gr_sweep.hpp"
#include "topology/generator.hpp"
#include "util/rng.hpp"

namespace {

using namespace dragon;

std::vector<prefix::Prefix> random_prefixes(std::size_t count,
                                            std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<prefix::Prefix> out;
  prefix::PrefixSet seen;
  out.reserve(count);
  while (out.size() < count) {
    const prefix::Prefix p(static_cast<prefix::Address>(rng()),
                           8 + static_cast<int>(rng.below(17)));
    // Deduplicate: a repeated draw would make "insert N prefixes" insert
    // fewer than N distinct keys and skew per-item figures.
    if (seen.contains(p)) continue;
    seen.insert(p);
    out.push_back(p);
  }
  return out;
}

topology::GeneratedTopology bench_topology() {
  topology::GeneratorParams params;
  params.tier1_count = 8;
  params.transit_count = 250;
  params.stub_count = 1800;
  params.seed = 99;
  return topology::generate_internet(params);
}

void BM_TrieInsert(benchmark::State& state) {
  const auto prefixes =
      random_prefixes(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    prefix::PrefixTrie<int> trie;
    for (const auto& p : prefixes) trie.insert(p, 1);
    benchmark::DoNotOptimize(trie.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TrieInsert)->Arg(1000)->Arg(10000);

void BM_TrieLookup(benchmark::State& state) {
  const auto prefixes =
      random_prefixes(static_cast<std::size_t>(state.range(0)), 2);
  prefix::PrefixTrie<int> trie;
  for (const auto& p : prefixes) trie.insert(p, 1);
  util::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        trie.lookup(static_cast<prefix::Address>(rng())));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrieLookup)->Arg(10000)->Arg(100000);

// Intern-table build: Prefix -> dense id plus the memoized parent link
// and covering-chain splice (the work the engine's §3.6 parent lookups
// amortise away).
void BM_InternTable(benchmark::State& state) {
  const auto prefixes =
      random_prefixes(static_cast<std::size_t>(state.range(0)), 11);
  for (auto _ : state) {
    prefix::PrefixInterner interner;
    for (const auto& p : prefixes) {
      benchmark::DoNotOptimize(interner.intern(p));
    }
    // Walk every memoized parent chain: in the engine this is the per-
    // event effective_parent query, here it proves the links are O(1).
    std::size_t hops = 0;
    for (prefix::PrefixId id = 0; id < interner.size(); ++id) {
      for (prefix::PrefixId pp = interner.parent_of(id);
           pp != prefix::kNoPrefixId; pp = interner.parent_of(pp)) {
        ++hops;
      }
    }
    benchmark::DoNotOptimize(hops);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InternTable)->Arg(1000)->Arg(10000);

// Flat-RIB insert: intern ids once (engine steady state), then populate a
// FlatTable route table with small per-neighbour candidate sets — the
// deliver-path write pattern.
void BM_RibInsert(benchmark::State& state) {
  const auto prefixes =
      random_prefixes(static_cast<std::size_t>(state.range(0)), 12);
  prefix::PrefixInterner interner;
  std::vector<prefix::PrefixId> ids;
  ids.reserve(prefixes.size());
  for (const auto& p : prefixes) ids.push_back(interner.intern(p));
  for (auto _ : state) {
    engine::FlatTable<engine::RouteEntry> routes;
    for (const prefix::PrefixId id : ids) {
      engine::RouteEntry& e = routes.get_or_create(id);
      e.rib_in.set(static_cast<topology::NodeId>(id & 3u), id);
      e.rib_in.set(static_cast<topology::NodeId>(4u + (id & 1u)), id + 1);
    }
    benchmark::DoNotOptimize(routes.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RibInsert)->Arg(1000)->Arg(10000);

// Flat-RIB lookup: the read side of the deliver/flush paths (find by
// dense id, then a rib_in probe).
void BM_RibLookup(benchmark::State& state) {
  const auto prefixes =
      random_prefixes(static_cast<std::size_t>(state.range(0)), 13);
  prefix::PrefixInterner interner;
  engine::FlatTable<engine::RouteEntry> routes;
  for (const auto& p : prefixes) {
    const prefix::PrefixId id = interner.intern(p);
    engine::RouteEntry& e = routes.get_or_create(id);
    e.rib_in.set(static_cast<topology::NodeId>(id & 7u), id);
  }
  util::Rng rng(14);
  const auto span = static_cast<std::uint64_t>(interner.size() * 2);
  for (auto _ : state) {
    const auto id = static_cast<prefix::PrefixId>(rng.below(span));
    const engine::RouteEntry* e = routes.find(id);
    benchmark::DoNotOptimize(
        e != nullptr ? e->rib_in.find(static_cast<topology::NodeId>(id & 7u))
                     : nullptr);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RibLookup)->Arg(10000)->Arg(100000);

// Route election over the flat rib_in small-vectors (the engine's hottest
// loop: one pass of Algebra::prefer per candidate).
void BM_RibElect(benchmark::State& state) {
  const auto prefixes = random_prefixes(4096, 15);
  algebra::GrPathAlgebra alg;
  engine::NodeState node;
  prefix::PrefixInterner interner;
  util::Rng rng(16);
  std::vector<prefix::PrefixId> ids;
  ids.reserve(prefixes.size());
  for (const auto& p : prefixes) {
    const prefix::PrefixId id = interner.intern(p);
    ids.push_back(id);
    engine::RouteEntry& e = node.route(id);
    const int cands = 2 + static_cast<int>(rng.below(4));
    for (int c = 0; c < cands; ++c) {
      e.rib_in.set(static_cast<topology::NodeId>(c),
                   algebra::GrPathAlgebra::make(
                       static_cast<algebra::GrClass>(rng.below(3)),
                       static_cast<std::uint16_t>(rng.below(12))));
    }
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(node.elect(alg, ids[i]));
    i = (i + 1) & (ids.size() - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RibElect);

void BM_ForestBuild(benchmark::State& state) {
  auto prefixes = random_prefixes(static_cast<std::size_t>(state.range(0)), 4);
  std::sort(prefixes.begin(), prefixes.end());
  prefixes.erase(std::unique(prefixes.begin(), prefixes.end()),
                 prefixes.end());
  for (auto _ : state) {
    prefix::PrefixForest forest(prefixes);
    benchmark::DoNotOptimize(forest.roots().size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(prefixes.size()));
}
BENCHMARK(BM_ForestBuild)->Arg(10000)->Arg(100000);

void BM_GrSweep(benchmark::State& state) {
  static const auto gen = bench_topology();
  util::Rng rng(5);
  for (auto _ : state) {
    const auto origin =
        static_cast<topology::NodeId>(rng.below(gen.graph.node_count()));
    benchmark::DoNotOptimize(routecomp::gr_sweep(gen.graph, origin));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(gen.graph.link_count()));
}
BENCHMARK(BM_GrSweep);

void BM_GenericSolver(benchmark::State& state) {
  static const auto gen = bench_topology();
  static const auto net =
      routecomp::LabeledNetwork::from_topology(gen.graph);
  algebra::GrPathAlgebra alg;
  util::Rng rng(6);
  for (auto _ : state) {
    const auto origin =
        static_cast<topology::NodeId>(rng.below(gen.graph.node_count()));
    benchmark::DoNotOptimize(routecomp::solve(
        alg, net, origin,
        algebra::GrPathAlgebra::make(algebra::GrClass::kCustomer, 0)));
  }
}
BENCHMARK(BM_GenericSolver);

/// The FIB both compressor benches compress: `entries` distinct random
/// prefixes of length 8-24 over 8 next hops.
fibcomp::Fib compressor_input(std::size_t entries) {
  util::Rng rng(7);
  fibcomp::Fib fib;
  prefix::PrefixSet seen;
  while (fib.size() < entries) {
    const prefix::Prefix p(static_cast<prefix::Address>(rng()),
                           8 + static_cast<int>(rng.below(17)));
    if (seen.contains(p)) continue;
    seen.insert(p);
    fib.push_back({p, static_cast<fibcomp::NextHop>(rng.below(8))});
  }
  return fib;
}

void BM_OrtcCompress(benchmark::State& state) {
  const auto fib = compressor_input(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fibcomp::compress_ortc(fib));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OrtcCompress)->Arg(10000)->Arg(50000);

void BM_ConservativeCompress(benchmark::State& state) {
  const auto fib = compressor_input(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fibcomp::compress_conservative(fib));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ConservativeCompress)->Arg(10000)->Arg(50000);

// The served FIB of the data-plane benches: `entries` random prefixes
// with next hops in [0, 64).
fibcomp::Fib dataplane_fib(std::size_t entries) {
  const auto prefixes = random_prefixes(entries, 21);
  fibcomp::Fib fib;
  fib.reserve(prefixes.size());
  util::Rng hop_rng(22);
  for (const auto& p : prefixes) {
    fib.push_back({p, static_cast<fibcomp::NextHop>(hop_rng.below(64))});
  }
  return fib;
}

// Zipf-skewed over the FIB's prefixes with 5% whole-address-space
// misses: the traffic shape pipebench's converge_serve serves at scale.
dataplane::QueryMix zipf_mix() {
  dataplane::QueryMix mix;
  mix.kind = dataplane::QueryMix::Kind::kZipf;
  mix.zipf_s = 1.0;
  mix.miss_fraction = 0.05;
  return mix;
}

// Compiled-LPM serving: one query drawn and looked up against a
// DIR-24-8-style LpmTable (top_bits=16, the LpmConfig default).  Arg
// pair is {fib entries, mix} with mix 0 = uniform over prefixes,
// 1 = zipf_mix().  The lookup's own cost is this minus
// BM_DataplaneQueryGen at the same size.
void BM_DataplaneLookup(benchmark::State& state) {
  const auto fib = dataplane_fib(static_cast<std::size_t>(state.range(0)));
  const auto table = dataplane::LpmTable::compile(fib, {/*top_bits=*/16});
  const dataplane::QueryGen gen(
      fib, state.range(1) != 0 ? zipf_mix() : dataplane::QueryMix{});
  util::Rng rng(23);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(gen.draw(rng)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DataplaneLookup)
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Args({100000, 1});

// The query generator alone: one zipf_mix() draw over `entries`
// prefixes, the same stream BM_DataplaneLookup looks up.
void BM_DataplaneQueryGen(benchmark::State& state) {
  const auto fib = dataplane_fib(static_cast<std::size_t>(state.range(0)));
  const dataplane::QueryGen gen(fib, zipf_mix());
  util::Rng rng(23);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.draw(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DataplaneQueryGen)->Arg(10000)->Arg(100000);

// FIB -> LpmTable compilation (the control-plane cost of a hot-swap).
void BM_FibCompile(benchmark::State& state) {
  const auto prefixes =
      random_prefixes(static_cast<std::size_t>(state.range(0)), 24);
  fibcomp::Fib fib;
  fib.reserve(prefixes.size());
  util::Rng hop_rng(25);
  for (const auto& p : prefixes) {
    fib.push_back({p, static_cast<fibcomp::NextHop>(hop_rng.below(64))});
  }
  for (auto _ : state) {
    const auto table = dataplane::LpmTable::compile(fib, {/*top_bits=*/16});
    benchmark::DoNotOptimize(table.stats().table_bytes);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FibCompile)->Arg(1000)->Arg(10000);

void BM_EngineConvergence(benchmark::State& state) {
  topology::GeneratorParams params;
  params.tier1_count = 4;
  params.transit_count = 40;
  params.stub_count = 300;
  params.seed = 8;
  const auto gen = topology::generate_internet(params);
  algebra::GrPathAlgebra alg;
  for (auto _ : state) {
    engine::Config config;
    config.mrai = 30.0;
    engine::Simulator sim(gen.graph, alg, config);
    sim.originate(*prefix::Prefix::from_bit_string("10"), 5,
                  algebra::GrPathAlgebra::make(algebra::GrClass::kCustomer,
                                               0));
    const auto r = chaos::run_to_quiescence(sim);
    if (!r.quiescent) state.SkipWithError("convergence watchdog fired");
    benchmark::DoNotOptimize(obs::updates(sim.metrics()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(gen.graph.link_count()));
}
BENCHMARK(BM_EngineConvergence);

/// Display reporter that records every per-run ns/iter into a metrics
/// registry, so the run can be dumped in the repo's standard registry-JSON
/// shape and gated against the committed baseline, and forwards every call
/// to the reporter --benchmark_format and --benchmark_color select.
/// Construct it after benchmark::Initialize has parsed those flags.
class RegistryReporter : public benchmark::BenchmarkReporter {
 public:
  RegistryReporter() : display_(benchmark::CreateDefaultDisplayReporter()) {
    display_->SetOutputStream(&GetOutputStream());
    display_->SetErrorStream(&GetErrorStream());
  }
  bool ReportContext(const Context& context) override {
    return display_->ReportContext(context);
  }
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      if (run.run_type != Run::RT_Iteration) continue;
      registry_.gauge("micro." + run.benchmark_name() + ".ns_per_iter")
          ->set(run.GetAdjustedRealTime());
    }
    display_->ReportRuns(runs);
  }
  void Finalize() override { display_->Finalize(); }
  [[nodiscard]] const obs::MetricsRegistry& registry() const {
    return registry_;
  }

 private:
  benchmark::BenchmarkReporter* display_;  // owned by the library
  obs::MetricsRegistry registry_;
};

}  // namespace

int main(int argc, char** argv) {
  // Span recording armed but with no sink attached: every ns/iter figure
  // the perf gate compares therefore prices in the enabled-profiler
  // overhead (the contract is "within noise"; see obs/span.hpp).
  dragon::obs::span_enable(true);
  // Peel our own flag off before google-benchmark sees the command line
  // (its parser rejects flags it does not know).
  std::string metrics_json;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string_view a(argv[i]);
    constexpr std::string_view kFlag = "--metrics-json=";
    if (a.rfind(kFlag, 0) == 0) {
      metrics_json = std::string(a.substr(kFlag.size()));
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  RegistryReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!metrics_json.empty()) {
    const bool ok = dragon::bench::write_metrics_json(
        metrics_json, {{"micro", &reporter.registry()}},
        dragon::bench::run_meta_json("bench_micro", 0, 1));
    if (ok) std::printf("# wrote %s\n", metrics_json.c_str());
  }
  return 0;
}
