// Shared scenario construction for the bench harnesses: every experiment
// builds the same kind of synthetic Internet (topology + prefix assignment,
// see DESIGN.md for the substitution rationale) from a common flag set, so
// results are comparable across benches and reproducible from the printed
// configuration line.  The harnesses also share their observability flags
// (--metrics-json, --span-trace) and keep span recording armed for the
// whole run.
#pragma once

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "addressing/assignment.hpp"
#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace_export.hpp"
#include "topology/cleaner.hpp"
#include "topology/generator.hpp"
#include "util/flags.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace dragon::bench {

/// Declares the scenario flags every harness shares.
inline void define_scenario_flags(util::Flags& flags) {
  flags.define_int("tier1", 8, "number of tier-1 ASs (peering clique)", 1,
                   1 << 16);
  flags.define_int("transit", 250, "number of transit ASs", 0, 1 << 24);
  flags.define_int("stubs", 1800, "number of stub ASs", 0, 1 << 24);
  flags.define_int("regions", 5, "number of RIR-like regions", 1, 1 << 16);
  flags.define_int("seed", 1, "master seed (topology, prefixes, trials)", 0,
                   std::numeric_limits<std::int64_t>::max());
  flags.define("paper-scale", "false",
               "approximate the paper's dataset size (39k ASs, takes "
               "minutes)");
}

/// Declares the execution flags of the parallel trial scheduler.  The
/// default is hardware_concurrency(); `--threads 0` and negatives are
/// rejected at parse time (util::Flags integer validation).
inline void define_exec_flags(util::Flags& flags) {
  flags.define_int(
      "threads",
      static_cast<std::int64_t>(exec::ThreadPool::default_thread_count()),
      "worker threads for parallel trials/schedules (1: sequential)", 1,
      4096);
}

/// The pool for the parsed --threads value; nullptr means "run
/// sequentially on the calling thread" and is what every exec:: entry
/// point takes for the 1-thread case.
inline std::unique_ptr<exec::ThreadPool> make_thread_pool(
    const util::Flags& flags) {
  const auto threads = static_cast<std::size_t>(flags.i64("threads"));
  if (threads <= 1) return nullptr;
  // Benches cap workers at hardware_concurrency: results never depend on
  // the worker count, so oversubscribing only adds context-switch cost
  // and poisons the timing artifacts the gates compare.
  return std::make_unique<exec::ThreadPool>(
      threads, exec::PoolOptions{.cap_to_hardware = true});
}

/// Runs `total` independent trials and commits each result in trial order
/// on the calling thread.  With a pool, trials run concurrently (one
/// chunk per trial — bench trials are heavyweight); without one they run
/// inline, commit interleaved.  Either way commit sees trial i's result
/// exactly once, in order, so aggregation is bit-identical for any
/// thread count.
template <typename R>
inline void run_trials(exec::ThreadPool* pool, std::size_t total,
                       const std::function<R(std::size_t)>& trial,
                       const std::function<void(std::size_t, R&)>& commit) {
  if (pool == nullptr || pool->size() <= 1) {
    for (std::size_t i = 0; i < total; ++i) {
      R result = [&] {
        DRAGON_SPAN_ARG("bench", "trial", "trial", i);
        return trial(i);
      }();
      DRAGON_SPAN_ARG("bench", "commit", "trial", i);
      commit(i, result);
    }
    return;
  }
  exec::ParallelOptions opts;
  opts.chunks = total;
  std::vector<R> results = exec::parallel_map<R>(
      pool, total,
      [&trial](std::size_t i, exec::TaskContext&) {
        DRAGON_SPAN_ARG("bench", "trial", "trial", i);
        return trial(i);
      },
      opts);
  DRAGON_SPAN_ARG("bench", "commit", "trials", total);
  for (std::size_t i = 0; i < total; ++i) commit(i, results[i]);
}

/// Declares the observability flags every harness supports: a JSON dump
/// of the metrics registry next to the text tables, and a Chrome trace of
/// the execution spans.
inline void define_obs_flags(util::Flags& flags) {
  flags.define("metrics-json", "",
               "write the metrics registry as JSON to this path");
  flags.define("span-trace", "",
               "write a Chrome trace-event JSON of execution spans to this "
               "path (load in Perfetto / chrome://tracing; analyze with "
               "tools/trace_report.py)");
}

/// Arms span recording for the whole run (call once after parse).  The
/// per-span cost is two steady-clock reads and a ring store, and keeping
/// it on in every bench run is what lets tools/bench_gate.py enforce the
/// "within noise" overhead contract.
inline void apply_obs_flags() {
  obs::span_enable(true);
  obs::span_set_thread_name("main");
}

/// Exports the span rings collected so far to --span-trace (no-op when the
/// flag is empty).  Call once, after worker pools are destroyed — the
/// export contract requires writer threads to be joined first.
inline void maybe_export_span_trace(
    const util::Flags& flags, const char* bench_name,
    std::vector<std::pair<std::string, std::string>> other_data = {}) {
  const std::string path = flags.str("span-trace");
  if (path.empty()) return;
  obs::TraceExportOptions options;
  options.process_name = bench_name;
  options.other_data = std::move(other_data);
  if (!obs::export_chrome_trace(path, options)) {
    DRAGON_LOG_WARN("cannot write --span-trace path %s", path.c_str());
  } else {
    std::printf("# span trace written to %s\n", path.c_str());
  }
}

/// The reproducibility header benches prepend to their JSON artifacts:
/// harness name, master seed, worker-thread count, and the machine's
/// hardware concurrency, so every dump replays from the file alone
/// (threads never changes the numbers — the runtime is deterministic —
/// but threads vs hw_concurrency explains the wall-clock, and the
/// core-aware scaling gate keys its rules off hw_concurrency).  A
/// non-empty `scenario` (the adversarial-scenario spec string) is stamped
/// in as well, so scenario artifacts identify the family that produced
/// them.
inline std::string run_meta_json(const char* bench_name, std::uint64_t seed,
                                 std::size_t threads = 1,
                                 const std::string& scenario = {}) {
  const std::size_t hw = exec::ThreadPool::default_thread_count();
  char buf[384];
  if (scenario.empty()) {
    std::snprintf(buf, sizeof buf,
                  "{\"bench\":\"%s\",\"seed\":%llu,\"threads\":%zu,"
                  "\"hw_concurrency\":%zu}",
                  bench_name, static_cast<unsigned long long>(seed), threads,
                  hw);
  } else {
    std::snprintf(buf, sizeof buf,
                  "{\"bench\":\"%s\",\"seed\":%llu,\"threads\":%zu,"
                  "\"hw_concurrency\":%zu,\"scenario\":\"%s\"}",
                  bench_name, static_cast<unsigned long long>(seed), threads,
                  hw, scenario.c_str());
  }
  return buf;
}

/// Writes `{"meta":<meta>,"<name>":<registry json>,...}` to `path` (the
/// meta section is skipped when empty).  Returns false (and warns) on I/O
/// failure.
inline bool write_metrics_json(
    const std::string& path,
    const std::vector<std::pair<std::string, const obs::MetricsRegistry*>>&
        sections,
    const std::string& meta = {}) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    DRAGON_LOG_WARN("cannot open --metrics-json path %s", path.c_str());
    return false;
  }
  std::fputc('{', f);
  bool first = true;
  if (!meta.empty()) {
    std::fprintf(f, "\"meta\":%s", meta.c_str());
    first = false;
  }
  for (const auto& [name, registry] : sections) {
    if (!first) std::fputc(',', f);
    first = false;
    std::fprintf(f, "\"%s\":", name.c_str());
    const std::string json = registry->to_json();
    std::fwrite(json.data(), 1, json.size(), f);
  }
  std::fputs("}\n", f);
  return std::fclose(f) == 0;
}

struct Scenario {
  topology::GeneratedTopology generated;
  addressing::Assignment assignment;
  addressing::AssignmentStats stats;
  /// Seed for the harness's own trial sampling (failure draws, tree
  /// shuffles), forked from the master seed alongside the topology and
  /// assignment streams.
  std::uint64_t trial_seed = 0;
};

/// Builds a scenario from parsed flags.  Deterministic in --seed: the
/// master seed is expanded through one util::Rng into independent
/// per-subsystem seeds (topology, assignment, trials), so no two
/// subsystems ever share a stream and adding a consumer cannot silently
/// shift another's draws (the old `seed + k` offsets could collide).
inline Scenario build_scenario(const util::Flags& flags) {
  util::Rng master(flags.u64("seed"));
  topology::GeneratorParams tparams;
  tparams.tier1_count = static_cast<std::uint32_t>(flags.u64("tier1"));
  tparams.transit_count = static_cast<std::uint32_t>(flags.u64("transit"));
  tparams.stub_count = static_cast<std::uint32_t>(flags.u64("stubs"));
  tparams.regions = static_cast<std::uint32_t>(flags.u64("regions"));
  tparams.seed = master();
  if (flags.boolean("paper-scale")) {
    tparams.tier1_count = 12;
    tparams.transit_count = 5200;
    tparams.stub_count = 33000;
  }

  Scenario scenario;
  scenario.generated = topology::generate_internet(tparams);

  addressing::AssignmentParams aparams;
  aparams.seed = master();
  scenario.assignment =
      addressing::generate_assignment(scenario.generated, aparams);
  scenario.trial_seed = master();
  scenario.stats = addressing::compute_stats(
      scenario.assignment, scenario.generated.graph.node_count());

  std::printf(
      "# scenario: %zu ASs (%zu stubs), %zu links, %zu prefixes "
      "(%zu parentless)",
      scenario.generated.graph.node_count(),
      scenario.generated.graph.stubs().size(),
      scenario.generated.graph.link_count(), scenario.assignment.size(),
      scenario.stats.parentless);
  if (scenario.assignment.pool_exhausted > 0) {
    std::printf(", %zu ASs without a primary block (pool exhausted)",
                scenario.assignment.pool_exhausted);
  }
  std::printf("\n");
  return scenario;
}

}  // namespace dragon::bench
