#include "dragon/deployment.hpp"

#include "dragon/consistency.hpp"

namespace dragon::core {

using topology::NodeId;

std::vector<NodeId> pd_order(const topology::Topology& topo,
                             const routecomp::GrStableState& q_state) {
  const std::size_t n = topo.node_count();
  std::vector<NodeId> order;
  order.reserve(n);

  // Phase 1: everyone not electing a customer q-route, in id order.
  for (NodeId u = 0; u < n; ++u) {
    if (q_state.cls[u] != routecomp::kCustomer) order.push_back(u);
  }

  // Phase 2: customer-electing nodes, providers before customers (Kahn's
  // algorithm on provider->customer links restricted to the set).
  std::vector<std::uint32_t> pending(n, 0);
  for (NodeId u = 0; u < n; ++u) {
    if (q_state.cls[u] != routecomp::kCustomer) continue;
    for (const NodeId p : topo.providers(u)) {
      if (q_state.cls[p] == routecomp::kCustomer) ++pending[u];
    }
  }
  std::vector<NodeId> ready;
  for (NodeId u = 0; u < n; ++u) {
    if (q_state.cls[u] == routecomp::kCustomer && pending[u] == 0) {
      ready.push_back(u);
    }
  }
  while (!ready.empty()) {
    const NodeId u = ready.back();
    ready.pop_back();
    order.push_back(u);
    for (const NodeId c : topo.customers(u)) {
      if (q_state.cls[c] == routecomp::kCustomer && --pending[c] == 0) {
        ready.push_back(c);
      }
    }
  }
  return order;
}

bool StagedDeploymentResult::all_stages_consistent() const {
  for (char c : stage_route_consistent) {
    if (!c) return false;
  }
  return true;
}

StagedDeploymentResult staged_deployment(const algebra::Algebra& alg,
                                         const routecomp::LabeledNetwork& net,
                                         NodeId origin_p, algebra::Attr p_attr,
                                         NodeId origin_q, algebra::Attr q_attr,
                                         const std::vector<NodeId>& order) {
  StagedDeploymentResult result;
  std::vector<char> deployed(net.node_count(), 0);
  result.stage_route_consistent.reserve(order.size() + 1);
  for (std::size_t stage = 0; stage <= order.size(); ++stage) {
    if (stage > 0) deployed[order[stage - 1]] = 1;
    const PairRun run = run_dragon_pair(alg, net, origin_p, p_attr, origin_q,
                                        q_attr, &deployed);
    const auto report = check_route_consistency(alg, run);
    result.stage_route_consistent.push_back(
        static_cast<char>(run.converged && report.route_consistent));
  }
  return result;
}

}  // namespace dragon::core
