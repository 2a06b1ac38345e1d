// Network dynamics (§3.8) on the event-driven engine: the Figure-1 network
// runs live BGP with DRAGON in the control loop.  We fail the {u4, u6}
// link — the origin of p loses its customer route to the delegated q, rule
// RA forces it to de-aggregate p into complement prefixes, and u2
// self-organises into re-originating p as an aggregation prefix.  Then the
// link recovers and the system folds back.
//
// Build and run:  ./build/examples/link_failure
#include <cstdio>

#include "algebra/gr_path_algebra.hpp"
#include "engine/simulator.hpp"
#include "topology/graph.hpp"

namespace {

using namespace dragon;
using algebra::GrPathAlgebra;
using topology::NodeId;

prefix::Prefix bp(const char* s) {
  return *prefix::Prefix::from_bit_string(s);
}

enum : NodeId { u1, u2, u3, u4, u5, u6 };
constexpr const char* kNames[] = {"u1", "u2", "u3", "u4", "u5", "u6"};

void show(const engine::Simulator& sim, const char* title) {
  std::printf("\n== %s (t = %.2fs, %llu updates so far) ==\n", title,
              sim.now(),
              static_cast<unsigned long long>(obs::updates(sim.metrics())));
  for (const char* s : {"10", "10000", "10001", "1001", "101"}) {
    const auto p = bp(s);
    std::printf("  %-6s:", s);
    bool any = false;
    for (NodeId u = 0; u < 6; ++u) {
      if (sim.originates(u, p)) {
        std::printf(" origin=%s", kNames[u]);
        any = true;
      }
    }
    for (NodeId u = 0; u < 6; ++u) {
      if (sim.filtered(u, p)) {
        std::printf(" %s=filtered", kNames[u]);
        any = true;
      }
    }
    if (!any) std::printf(" (not announced)");
    std::printf("\n");
  }
  const auto q_trace = sim.trace(u5, bp("10000").first_address());
  std::printf("  packet u5 -> q: ");
  for (std::size_t i = 0; i < q_trace.path.size(); ++i) {
    std::printf("%s%s", i ? " -> " : "", kNames[q_trace.path[i]]);
  }
  std::printf("  [%s]\n",
              q_trace.outcome == engine::Simulator::Outcome::kDelivered
                  ? "delivered"
                  : "NOT delivered");
}

}  // namespace

int main() {
  topology::Topology topo(6);
  topo.add_peer_peer(u1, u2);
  topo.add_provider_customer(u2, u3);
  topo.add_provider_customer(u2, u4);
  topo.add_provider_customer(u3, u6);
  topo.add_provider_customer(u4, u6);
  topo.add_provider_customer(u1, u5);
  topo.add_provider_customer(u3, u5);

  GrPathAlgebra alg;
  engine::Config config;
  config.enable_dragon = true;
  engine::Simulator sim(topo, alg, config);

  const auto customer = GrPathAlgebra::make(algebra::GrClass::kCustomer, 0);
  sim.originate(bp("10"), u4, customer);     // p assigned to u4
  sim.originate(bp("10000"), u6, customer);  // q delegated to u6
  sim.run_until_quiescent();
  show(sim, "converged DRAGON state (Fig. 1 right)");

  std::printf("\n*** failing link {u4, u6} ***\n");
  sim.fail_link(u4, u6);
  sim.run_until_quiescent();
  show(sim, "after failure: u4 de-aggregated, u2 re-originates 10");
  std::printf("  de-aggregation events: %llu, aggregate originations: %llu\n",
              static_cast<unsigned long long>(
                  obs::count(sim.metrics(), obs::EventKind::kDeaggregate)),
              static_cast<unsigned long long>(
                  obs::count(sim.metrics(), obs::EventKind::kAggOriginate)));

  std::printf("\n*** repairing link {u4, u6} ***\n");
  sim.restore_link(u4, u6);
  sim.run_until_quiescent();
  show(sim, "after repair: p re-aggregated at u4");
  std::printf("  re-aggregation events: %llu\n",
              static_cast<unsigned long long>(
                  obs::count(sim.metrics(), obs::EventKind::kReaggregate)));
  return 0;
}
