#include "topology/cleaner.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_set>

namespace dragon::topology {

namespace {

// Iterative Tarjan SCC over the customer->provider digraph.  Returns the
// component id of every node; ids are otherwise arbitrary.
std::vector<std::uint32_t> scc_customer_provider(const Topology& topo,
                                                 std::uint32_t& scc_count) {
  const std::size_t n = topo.node_count();
  constexpr std::uint32_t kUnvisited = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> index(n, kUnvisited);
  std::vector<std::uint32_t> lowlink(n, 0);
  std::vector<char> on_stack(n, 0);
  std::vector<std::uint32_t> comp(n, 0);
  std::vector<NodeId> stack;
  std::uint32_t next_index = 0;
  scc_count = 0;

  struct Frame {
    NodeId node;
    std::size_t edge;
  };
  std::vector<Frame> call_stack;

  for (NodeId start = 0; start < n; ++start) {
    if (index[start] != kUnvisited) continue;
    call_stack.push_back({start, 0});
    index[start] = lowlink[start] = next_index++;
    stack.push_back(start);
    on_stack[start] = 1;

    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      const NodeId u = frame.node;
      const auto providers = topo.providers(u);  // customer->provider
      bool descended = false;
      while (frame.edge < providers.size()) {
        const NodeId v = providers[frame.edge++];
        if (index[v] == kUnvisited) {
          index[v] = lowlink[v] = next_index++;
          stack.push_back(v);
          on_stack[v] = 1;
          call_stack.push_back({v, 0});
          descended = true;
          break;
        }
        if (on_stack[v]) lowlink[u] = std::min(lowlink[u], index[v]);
      }
      if (descended) continue;
      if (lowlink[u] == index[u]) {
        for (;;) {
          const NodeId w = stack.back();
          stack.pop_back();
          on_stack[w] = 0;
          comp[w] = scc_count;
          if (w == u) break;
        }
        ++scc_count;
      }
      call_stack.pop_back();
      if (!call_stack.empty()) {
        const NodeId parent = call_stack.back().node;
        lowlink[parent] = std::min(lowlink[parent], lowlink[u]);
      }
    }
  }
  return comp;
}

}  // namespace

std::size_t break_customer_provider_cycles(Topology& topo) {
  std::size_t removed = 0;
  for (;;) {
    std::uint32_t scc_count = 0;
    const auto comp = scc_customer_provider(topo, scc_count);

    // For every SCC with an internal customer->provider link, remove its
    // lexicographically smallest (customer, provider) link.
    struct Pick {
      NodeId customer = 0;
      NodeId provider = 0;
      bool set = false;
    };
    std::vector<Pick> pick(scc_count);
    bool any = false;
    for (NodeId u = 0; u < topo.node_count(); ++u) {
      for (const NodeId v : topo.providers(u)) {
        if (comp[u] != comp[v]) continue;
        Pick& p = pick[comp[u]];
        if (!p.set || u < p.customer || (u == p.customer && v < p.provider)) {
          p = {u, v, true};
        }
        any = true;
      }
    }
    if (!any) return removed;
    for (const Pick& p : pick) {
      if (p.set) {
        topo.remove_link(p.customer, p.provider);
        ++removed;
      }
    }
  }
}

bool is_policy_connected(const Topology& topo) {
  if (topo.node_count() == 0) return true;
  // Every valley-free path climbs to a hierarchy root; two roots can only
  // reach each other through a direct peer link.  So the topology is
  // policy-connected iff the roots form a peering clique (given that the
  // customer->provider digraph is acyclic, every node has a root ancestor).
  const auto roots = topo.roots();
  for (std::size_t i = 0; i < roots.size(); ++i) {
    const auto root_peers = topo.peers(roots[i]);
    const std::unordered_set<NodeId> peers(root_peers.begin(),
                                           root_peers.end());
    for (std::size_t j = i + 1; j < roots.size(); ++j) {
      if (!peers.contains(roots[j])) return false;
    }
  }
  return true;
}

std::pair<Topology, CleanReport> clean(const Topology& topo) {
  CleanReport report;
  report.original_nodes = topo.node_count();
  report.original_links = topo.link_count();

  Topology work = topo;
  report.cycle_links_removed = break_customer_provider_cycles(work);

  // Greedy peering clique among hierarchy roots, seeded by customer-cone
  // size (largest transit first) for determinism and maximum coverage.
  auto roots = work.roots();
  std::vector<std::pair<std::size_t, NodeId>> ranked;
  ranked.reserve(roots.size());
  for (NodeId r : roots) ranked.emplace_back(work.customer_cone_size(r), r);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::vector<NodeId> clique;
  for (const auto& [cone, r] : ranked) {
    const bool compatible = std::all_of(
        clique.begin(), clique.end(), [&](NodeId member) {
          const auto peers = work.peers(r);
          return std::find(peers.begin(), peers.end(), member) != peers.end();
        });
    if (compatible) clique.push_back(r);
  }

  // Keep exactly the nodes reachable downward (provider->customer) from the
  // clique; every kept non-clique node then retains a kept provider, so the
  // cleaned hierarchy's roots are the clique and the result is
  // policy-connected.
  std::vector<char> keep(work.node_count(), 0);
  std::vector<NodeId> frontier;
  for (NodeId r : clique) {
    keep[r] = 1;
    frontier.push_back(r);
  }
  while (!frontier.empty()) {
    const NodeId u = frontier.back();
    frontier.pop_back();
    for (const NodeId c : work.customers(u)) {
      if (!keep[c]) {
        keep[c] = 1;
        frontier.push_back(c);
      }
    }
  }

  constexpr NodeId kDropped = std::numeric_limits<NodeId>::max();
  std::vector<NodeId> new_id(work.node_count(), kDropped);
  Topology cleaned;
  for (NodeId u = 0; u < work.node_count(); ++u) {
    if (keep[u]) {
      new_id[u] = cleaned.add_node();
      report.kept_of_original.push_back(u);
    }
  }
  for (const auto& link : work.links()) {
    if (!keep[link.a] || !keep[link.b]) continue;
    if (link.b_is == Rel::kCustomer) {
      cleaned.add_provider_customer(new_id[link.a], new_id[link.b]);
    } else {
      cleaned.add_peer_peer(new_id[link.a], new_id[link.b]);
    }
  }

  report.nodes_removed = report.original_nodes - cleaned.node_count();
  report.kept_nodes = cleaned.node_count();
  report.kept_links = cleaned.link_count();
  return {std::move(cleaned), std::move(report)};
}

}  // namespace dragon::topology
