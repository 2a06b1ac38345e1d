#include "chaos/scenario.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "algebra/gadgets.hpp"
#include "algebra/gr_path_algebra.hpp"
#include "algebra/property_check.hpp"
#include "chaos/fault_plan.hpp"
#include "chaos/oracle.hpp"
#include "chaos/sweep.hpp"
#include "engine/simulator.hpp"
#include "exec/parallel.hpp"
#include "topology/generator.hpp"

namespace dragon::chaos {

namespace {

using algebra::Attr;
using algebra::GrClass;
using algebra::GrPathAlgebra;
using topology::NodeId;
using Prefix = prefix::Prefix;

constexpr Attr kOriginAttr = GrPathAlgebra::make(GrClass::kCustomer, 0);

std::uint64_t mix(std::uint64_t h, std::uint64_t v) noexcept {
  h += 0x9e3779b97f4a7c15ull + v;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

/// The whole of `v` as an unsigned decimal that fits `T` (std::from_chars
/// rejects a sign and reports overflow).
template <typename T>
bool to_uint(std::string_view v, T& out) {
  const char* last = v.data() + v.size();
  const auto [end, ec] = std::from_chars(v.data(), last, out);
  return ec == std::errc{} && end == last;
}

/// A generator node count: make_net narrows it to uint32_t.
bool to_node_count(std::string_view v, std::size_t& out) {
  std::uint32_t n = 0;
  if (!to_uint(v, n)) return false;
  out = n;
  return true;
}

bool to_double(std::string_view v, double& out) {
  char buf[64];
  if (v.empty() || v.size() >= sizeof(buf)) return false;
  std::memcpy(buf, v.data(), v.size());
  buf[v.size()] = '\0';
  char* end = nullptr;
  out = std::strtod(buf, &end);
  return end == buf + v.size() && std::isfinite(out);
}

/// The shared generated network of the leak/hijack/damping/jitter
/// families: a fixed small Internet (deterministic in the spec alone) with
/// stride-sampled stub originations, one /8 per origin.
struct Net {
  topology::GeneratedTopology gen;
  std::vector<OriginSpec> origins;
};

Net make_net(const ScenarioSpec& spec) {
  topology::GeneratorParams gp;
  gp.tier1_count = static_cast<std::uint32_t>(spec.tier1);
  gp.transit_count = static_cast<std::uint32_t>(spec.transit);
  gp.stub_count = static_cast<std::uint32_t>(spec.stubs);
  gp.regions = 3;
  gp.seed = 1;  // topology is part of the spec, not of the per-seed draw
  Net net;
  net.gen = topology::generate_internet(gp);
  const auto stub_nodes = net.gen.graph.stubs();
  const std::size_t want =
      std::min({spec.prefixes, stub_nodes.size(), std::size_t{255}});
  if (want == 0) return net;
  const std::size_t stride = std::max<std::size_t>(1, stub_nodes.size() / want);
  for (std::size_t k = 0; k < want; ++k) {
    const NodeId origin = stub_nodes[k * stride];
    const Prefix p(static_cast<prefix::Address>(k + 1) << 24, 8);
    net.origins.push_back({p, origin, kOriginAttr});
  }
  return net;
}

engine::Config make_gr_config(const ScenarioSpec& spec, std::uint64_t seed,
                              bool enable_dragon) {
  engine::Config cfg;
  cfg.mrai = spec.mrai;
  cfg.link_delay = 0.01;
  cfg.enable_dragon = enable_dragon;
  cfg.enable_reaggregation = false;
  cfg.seed = seed;
  return cfg;
}

/// Bring-up + plan replay + re-convergence; false (with diagnostics
/// appended) when either convergence stalls.
bool converge_with_plan(engine::Simulator& sim,
                        const std::vector<OriginSpec>& origins,
                        const FaultPlan& plan, std::string& diagnostics) {
  const WatchdogLimits limits{1e6, 20'000'000};
  for (const OriginSpec& o : origins) sim.originate(o.prefix, o.origin, o.attr);
  auto run = run_to_quiescence(sim, limits);
  if (!run.quiescent) {
    diagnostics += "initial convergence stalled\n" + run.diagnostics;
    return false;
  }
  sim.reset_stats();
  schedule_plan(sim, plan);
  run = run_to_quiescence(sim, limits);
  if (!run.quiescent) {
    diagnostics += run.diagnostics;
    return false;
  }
  return true;
}

// --- divergence -----------------------------------------------------------

void run_divergence(const ScenarioSpec& spec, std::uint64_t seed,
                    ScenarioOutcome& out) {
  std::size_t ring = std::max<std::size_t>(2, spec.ring);
  if (spec.variant == "bad" && ring % 2 == 0) ++ring;       // odd: divergent
  if (spec.variant == "disagree" && ring % 2 == 1) ++ring;  // even: DISAGREE
  const bool table_variant = spec.variant != "gr";
  const bool dispute = spec.variant == "bad" || spec.variant == "disagree";
  if (table_variant && !dispute && spec.variant != "benign") {
    out.diagnostics = "unknown divergence variant: " + spec.variant;
    return;
  }
  const algebra::DisputeGadget gadget =
      algebra::make_dispute_ring(ring, dispute);
  const GrPathAlgebra gr;
  const algebra::Algebra* alg =
      table_variant ? static_cast<const algebra::Algebra*>(gadget.algebra.get())
                    : &gr;
  out.criteria_convergent =
      table_variant
          ? gadget.criteria_convergent
          : algebra::check_convergence_criteria(gr).guarantees_convergence();

  engine::Config cfg;
  // Deterministic timing: the gadget's dynamics are then a pure function
  // of the topology, so the oscillation's period and participant set are
  // identical for every seed (the sweep asserts exactly that).
  cfg.mrai = 0.0;
  cfg.mrai_jitter = 0.0;
  cfg.link_delay = 0.01;
  cfg.link_delay_jitter = 0.0;
  cfg.enable_dragon = false;
  cfg.enable_reaggregation = false;
  cfg.seed = seed;
  engine::Simulator sim(gadget.topo, *alg, std::move(cfg));
  sim.originate(gadget.origin_prefix, gadget.origin,
                table_variant ? gadget.origin_attr : kOriginAttr);

  WatchdogLimits limits;
  limits.max_sim_horizon = 1e9;
  limits.max_events = spec.max_events;
  limits.classify = true;
  limits.sample_every_events = spec.sample_every;
  const WatchdogResult run = run_to_quiescence(sim, limits);
  out.classification = run.classification;
  out.period = run.period;
  out.participants = run.participants;

  std::string why;
  if (out.criteria_convergent &&
      out.classification != Quiescence::kConverged) {
    why = "algebra satisfies the strict-increase convergence criteria but "
          "the classifier reported " +
          std::string(to_string(out.classification));
  } else if (spec.variant == "bad") {
    if (out.classification != Quiescence::kOscillating) {
      why = "BAD-GADGET expected kOscillating, got " +
            std::string(to_string(out.classification));
    } else if (out.participants.empty()) {
      why = "oscillation reported with no participants";
    } else {
      for (const NodeId n : out.participants) {
        if (std::find(gadget.ring.begin(), gadget.ring.end(), n) ==
            gadget.ring.end()) {
          why = "participant " + std::to_string(n) + " outside the ring";
          break;
        }
      }
    }
  } else if (spec.variant == "disagree") {
    // DISAGREE has stable states; the deterministic engine may settle
    // into one or oscillate symmetrically, but must never look aperiodic.
    if (out.classification == Quiescence::kLivelock) {
      why = "DISAGREE classified as livelock";
    }
  } else if (out.classification != Quiescence::kConverged) {
    why = "convergent variant classified " +
          std::string(to_string(out.classification));
  }
  out.ok = why.empty();
  if (!out.ok) out.diagnostics = why + "\n" + run.diagnostics;
}

// --- leak / hijack --------------------------------------------------------

void run_adversarial(const ScenarioSpec& spec, std::uint64_t seed,
                     ScenarioOutcome& out) {
  const Net net = make_net(spec);
  PlanParams params;
  params.events = spec.events;
  params.horizon = spec.horizon;
  params.restore_prob = spec.restore_prob;
  if (spec.family == ScenarioFamily::kLeak) {
    params.leak_prob = 1.0;
  } else {
    params.hijack_prob = 1.0;
  }
  const FaultPlan plan =
      generate_plan(net.gen.graph, net.origins, params, seed);
  out.plan_json = plan.to_json();
  const auto leakers = plan.net_leaking_nodes();
  const auto rogues = plan.net_rogue_origins();
  out.adversaries =
      spec.family == ScenarioFamily::kLeak ? leakers.size() : rogues.size();

  const GrPathAlgebra alg;
  bool ok = true;
  for (const bool dragon : {true, false}) {
    engine::Simulator sim(net.gen.graph, alg,
                          make_gr_config(spec, seed, dragon));
    if (!converge_with_plan(sim, net.origins, plan, out.diagnostics)) {
      ok = false;
      break;
    }
    // The differential oracle has no model of active misbehaviour, but the
    // invariant suite must hold: adversaries divert traffic, they do not
    // break RIB coherence or the filtering audit.  Forwarding is the one
    // exception for leaks — a leaked customer-masqueraded route can close
    // a stable forwarding loop (the algebra has no AS-path loop
    // rejection), and that damage is exactly what the blast radius
    // measures below, not an engine bug.
    InvariantOptions iopts;
    iopts.forwarding = spec.family != ScenarioFamily::kLeak;
    iopts.max_sources = 64;
    const auto report = check_invariants(sim, iopts);
    if (!report.ok()) {
      out.diagnostics += report.to_string();
      ok = false;
      break;
    }
    // Blast radius at quiescence: traffic that ends up at (or flows
    // through) the adversary.
    BlastRadius total;
    if (spec.family == ScenarioFamily::kLeak) {
      for (const OriginSpec& o : plan.surviving_origins(net.origins)) {
        const BlastRadius b =
            measure_blast_radius(sim, o.prefix.first_address(), leakers);
        total.affected += b.affected;
        total.sources += b.sources;
      }
    } else {
      for (const OriginSpec& r : rogues) {
        const BlastRadius b =
            measure_blast_radius(sim, r.prefix.first_address(), {r.origin});
        total.affected += b.affected;
        total.sources += b.sources;
      }
    }
    (dragon ? out.blast_dragon : out.blast_bgp) = total;
  }
  if (ok && spec.family == ScenarioFamily::kHijack &&
      out.blast_dragon.affected > out.blast_bgp.affected) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "DRAGON hijack blast radius %zu exceeds plain BGP's %zu\n",
                  out.blast_dragon.affected, out.blast_bgp.affected);
    out.diagnostics += buf;
    ok = false;
  }
  out.ok = ok;
}

// --- damping --------------------------------------------------------------

void run_damping(const ScenarioSpec& spec, std::uint64_t seed,
                 ScenarioOutcome& out) {
  const Net net = make_net(spec);
  PlanParams params;
  params.events = spec.events;
  params.horizon = spec.horizon;
  params.origin_flap_prob = 1.0;  // every event is a flap
  params.restore_prob = 1.0;      // every withdraw re-announces quickly...
  params.restore_delay = 1.0;     // ...so each event is a genuine flap
  const FaultPlan plan =
      generate_plan(net.gen.graph, net.origins, params, seed);
  out.plan_json = plan.to_json();

  const GrPathAlgebra alg;
  bool ok = true;
  for (const bool damped : {true, false}) {
    engine::Config cfg = make_gr_config(spec, seed, /*enable_dragon=*/true);
    if (damped) {
      cfg.damping.enabled = true;
      cfg.damping.penalty = spec.damp_penalty;
      cfg.damping.suppress = spec.damp_suppress;
      cfg.damping.reuse = spec.damp_reuse;
      cfg.damping.half_life = spec.damp_half_life;
    }
    engine::Simulator sim(net.gen.graph, alg, std::move(cfg));
    if (!converge_with_plan(sim, net.origins, plan, out.diagnostics)) {
      ok = false;
      break;
    }
    InvariantOptions iopts;
    iopts.max_sources = 48;
    const auto report = check_invariants(sim, iopts);
    if (!report.ok()) {
      out.diagnostics += report.to_string();
      ok = false;
      break;
    }
    // Every flap re-announces, so the surviving network is the full one
    // and the differential oracle applies — suppression must be fully
    // transparent at quiescence (all penalties released).
    const auto oracle = differential_check(sim);
    if (!oracle.match) {
      out.diagnostics += oracle.to_string();
      ok = false;
      break;
    }
    const std::uint64_t updates = obs::updates(sim.metrics());
    if (damped) {
      out.updates_damped = updates;
      if (const auto* c =
              sim.metrics().find_counter("dragon.engine.damp_suppressions")) {
        out.suppressions = c->value();
      }
    } else {
      out.updates_undamped = updates;
    }
  }
  out.ok = ok;
}

// --- jitter ---------------------------------------------------------------

void run_jitter(const ScenarioSpec& spec, std::uint64_t seed,
                ScenarioOutcome& out) {
  const Net net = make_net(spec);
  const GrPathAlgebra alg;
  SweepSpec sweep;
  sweep.topo = &net.gen.graph;
  sweep.alg = &alg;
  sweep.config = make_gr_config(spec, seed, /*enable_dragon=*/true);
  sweep.config.mrai_jitter = spec.jitter;
  sweep.origins = net.origins;
  sweep.params.events = spec.events;
  sweep.params.horizon = spec.horizon;
  sweep.params.restore_prob = 0.6;
  sweep.invariants.max_sources = 48;
  const ScheduleOutcome schedule = run_schedule(sweep, seed);
  out.plan_json = schedule.plan_json;
  out.updates = obs::updates(schedule.metrics);
  out.recovery =
      schedule.skipped ? 0.0 : schedule.end_time - schedule.first_action;
  out.diagnostics = schedule.diagnostics;
  out.ok = schedule.ok();
}

}  // namespace

const char* to_string(ScenarioFamily f) noexcept {
  switch (f) {
    case ScenarioFamily::kDivergence: return "divergence";
    case ScenarioFamily::kLeak: return "leak";
    case ScenarioFamily::kHijack: return "hijack";
    case ScenarioFamily::kDamping: return "damping";
    case ScenarioFamily::kJitter: return "jitter";
  }
  return "unknown";
}

std::optional<ScenarioSpec> ScenarioSpec::parse(std::string_view text) {
  ScenarioSpec spec;
  std::string_view fam = text;
  std::string_view rest;
  if (const auto colon = text.find(':'); colon != std::string_view::npos) {
    fam = text.substr(0, colon);
    rest = text.substr(colon + 1);
    if (rest.empty()) return std::nullopt;  // trailing colon, no keys
  }
  if (fam == "divergence") {
    spec.family = ScenarioFamily::kDivergence;
  } else if (fam == "leak") {
    spec.family = ScenarioFamily::kLeak;
  } else if (fam == "hijack") {
    spec.family = ScenarioFamily::kHijack;
  } else if (fam == "damping") {
    spec.family = ScenarioFamily::kDamping;
    // A flap storm needs repeated hits on the same channel to build
    // penalty; fewer prefixes and more events make that the common case.
    spec.events = 10;
    spec.prefixes = 3;
  } else if (fam == "jitter") {
    spec.family = ScenarioFamily::kJitter;
  } else {
    return std::nullopt;
  }

  while (!rest.empty()) {
    const auto comma = rest.find(',');
    const std::string_view tok =
        comma == std::string_view::npos ? rest : rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    const auto eq = tok.find('=');
    if (eq == std::string_view::npos) return std::nullopt;
    const std::string_view key = tok.substr(0, eq);
    const std::string_view val = tok.substr(eq + 1);
    bool good = true;
    if (key == "variant") {
      spec.variant.assign(val);
    } else if (key == "ring") {
      good = to_uint(val, spec.ring);
    } else if (key == "tier1") {
      good = to_node_count(val, spec.tier1);
    } else if (key == "transit") {
      good = to_node_count(val, spec.transit);
    } else if (key == "stubs") {
      good = to_node_count(val, spec.stubs);
    } else if (key == "prefixes") {
      good = to_uint(val, spec.prefixes);
    } else if (key == "events") {
      good = to_uint(val, spec.events);
    } else if (key == "horizon") {
      good = to_double(val, spec.horizon);
    } else if (key == "mrai") {
      good = to_double(val, spec.mrai);
    } else if (key == "restore") {
      good = to_double(val, spec.restore_prob);
    } else if (key == "penalty") {
      good = to_double(val, spec.damp_penalty);
    } else if (key == "suppress") {
      good = to_double(val, spec.damp_suppress);
    } else if (key == "reuse") {
      good = to_double(val, spec.damp_reuse);
    } else if (key == "half-life") {
      good = to_double(val, spec.damp_half_life);
    } else if (key == "jitter") {
      good = to_double(val, spec.jitter);
    } else if (key == "max-events") {
      good = to_uint(val, spec.max_events);
    } else if (key == "sample-every") {
      good = to_uint(val, spec.sample_every);
    } else {
      return std::nullopt;
    }
    if (!good) return std::nullopt;
  }
  if (spec.ring == 0 || spec.events == 0 || spec.prefixes == 0 ||
      spec.max_events == 0 || spec.sample_every == 0) {
    return std::nullopt;
  }
  return spec;
}

std::string ScenarioSpec::to_string() const {
  char buf[256];
  switch (family) {
    case ScenarioFamily::kDivergence:
      std::snprintf(buf, sizeof(buf), "divergence:variant=%s,ring=%zu",
                    variant.c_str(), ring);
      break;
    case ScenarioFamily::kLeak:
    case ScenarioFamily::kHijack:
      std::snprintf(buf, sizeof(buf),
                    "%s:events=%zu,prefixes=%zu,horizon=%g,restore=%g",
                    chaos::to_string(family), events, prefixes, horizon,
                    restore_prob);
      break;
    case ScenarioFamily::kDamping:
      std::snprintf(buf, sizeof(buf),
                    "damping:events=%zu,prefixes=%zu,suppress=%g,half-life=%g",
                    events, prefixes, damp_suppress, damp_half_life);
      break;
    case ScenarioFamily::kJitter:
      std::snprintf(buf, sizeof(buf), "jitter:jitter=%g,events=%zu", jitter,
                    events);
      break;
  }
  return buf;
}

std::uint64_t ScenarioOutcome::digest() const {
  std::uint64_t h = 0x6a09e667f3bcc909ull;
  h = mix(h, seed);
  h = mix(h, ok ? 1 : 0);
  h = mix(h, static_cast<std::uint64_t>(classification));
  h = mix(h, period);
  for (const NodeId n : participants) h = mix(h, n);
  h = mix(h, criteria_convergent ? 1 : 0);
  h = mix(h, blast_dragon.affected);
  h = mix(h, blast_dragon.sources);
  h = mix(h, blast_bgp.affected);
  h = mix(h, blast_bgp.sources);
  h = mix(h, adversaries);
  h = mix(h, updates_damped);
  h = mix(h, updates_undamped);
  h = mix(h, suppressions);
  h = mix(h, updates);
  h = mix(h, static_cast<std::uint64_t>(recovery * 1e6));
  for (const char c : plan_json) h = mix(h, static_cast<unsigned char>(c));
  return h;
}

ScenarioOutcome run_scenario(const ScenarioSpec& spec, std::uint64_t seed) {
  ScenarioOutcome out;
  out.seed = seed;
  switch (spec.family) {
    case ScenarioFamily::kDivergence:
      run_divergence(spec, seed, out);
      break;
    case ScenarioFamily::kLeak:
    case ScenarioFamily::kHijack:
      run_adversarial(spec, seed, out);
      break;
    case ScenarioFamily::kDamping:
      run_damping(spec, seed, out);
      break;
    case ScenarioFamily::kJitter:
      run_jitter(spec, seed, out);
      break;
  }
  return out;
}

std::vector<ScenarioOutcome> run_scenario_sweep(
    const ScenarioSpec& spec, std::span<const std::uint64_t> seeds,
    exec::ThreadPool* pool) {
  exec::ParallelOptions opts;
  opts.chunks = seeds.size();
  return exec::parallel_map<ScenarioOutcome>(
      pool, seeds.size(),
      [&spec, seeds](std::size_t i, exec::TaskContext&) {
        return run_scenario(spec, seeds[i]);
      },
      opts);
}

}  // namespace dragon::chaos
