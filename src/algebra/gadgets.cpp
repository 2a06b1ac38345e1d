#include "algebra/gadgets.hpp"

#include <utility>

#include "algebra/property_check.hpp"

namespace dragon::algebra {

namespace {
constexpr LabelId kLabelDir = 0;   // origin -> ring node: o becomes "dir"
constexpr LabelId kLabelVia = 1;   // ring successor -> node: dir becomes "via"
constexpr LabelId kLabelNull = 2;  // everything else: nothing crosses
constexpr Attr kX = kUnreachable;

/// The ring's table algebra with its per-edge labels: labels[learner][speaker]
/// labels the learning relation learner <- speaker.
class DisputeAlgebra final : public TableAlgebra {
 public:
  DisputeAlgebra(std::vector<std::string> names,
                 std::vector<std::vector<Attr>> maps,
                 std::vector<std::vector<LabelId>> labels)
      : TableAlgebra(std::move(names), std::move(maps)),
        labels_(std::move(labels)) {}

  [[nodiscard]] LabelId import_label(std::uint32_t learner,
                                     std::uint32_t speaker, LabelId /*gr*/,
                                     std::uint32_t /*link_id*/) const override {
    return labels_[learner][speaker];
  }

 private:
  std::vector<std::vector<LabelId>> labels_;
};
}  // namespace

DisputeGadget make_dispute_ring(std::size_t ring_size, bool dispute) {
  DisputeGadget g;
  g.name = dispute ? (ring_size % 2 == 1 ? "bad-gadget" : "disagree")
                   : "benign-ring";
  const std::size_t n_nodes = ring_size + 1;  // node 0 is the origin
  g.topo = topology::Topology(n_nodes);
  g.origin = 0;
  g.origin_prefix = prefix::Prefix(0x80000000u, 1);
  g.origin_attr = 0;  // "o"

  std::vector<std::vector<LabelId>> labels(
      n_nodes, std::vector<LabelId>(n_nodes, kLabelNull));
  for (std::size_t i = 1; i <= ring_size; ++i) {
    const auto u = static_cast<topology::NodeId>(i);
    g.topo.add_provider_customer(g.origin, u);
    labels[u][g.origin] = kLabelDir;
    g.ring.push_back(u);
  }
  for (std::size_t i = 1; i <= ring_size; ++i) {
    const auto u = static_cast<topology::NodeId>(i);
    const auto succ = static_cast<topology::NodeId>(i % ring_size + 1);
    if (u == succ) break;  // ring of one: no detour edge
    if (!g.topo.linked(u, succ)) g.topo.add_peer_peer(u, succ);
    // u prefers the route *through* its successor: u <- succ imports via.
    labels[u][succ] = kLabelVia;
  }

  // Attribute ranks (lower index preferred).  The dispute variant prefers
  // the detour: via < dir; the benign variant the direct route: dir < via.
  // In both, the origin's own seed attribute "o" ranks first so the origin
  // never abandons its origination.
  if (dispute) {
    g.algebra = std::make_shared<DisputeAlgebra>(
        std::vector<std::string>{"o", "via", "dir"},
        std::vector<std::vector<Attr>>{
            {2, kX, kX},   // L_dir: o -> dir
            {kX, kX, 1},   // L_via: dir -> via (an *improvement*: dispute)
            {kX, kX, kX},  // L_null
        },
        std::move(labels));
  } else {
    g.algebra = std::make_shared<DisputeAlgebra>(
        std::vector<std::string>{"o", "dir", "via"},
        std::vector<std::vector<Attr>>{
            {1, kX, kX},   // L_dir: o -> dir (strictly worse)
            {kX, 2, kX},   // L_via: dir -> via (strictly worse)
            {kX, kX, kX},  // L_null
        },
        std::move(labels));
  }

  g.criteria_convergent =
      check_convergence_criteria(*g.algebra).guarantees_convergence();
  return g;
}

}  // namespace dragon::algebra
