// Policy-dispute gadgets for the adversarial scenario engine.
//
// Griffin's DISAGREE / BAD-GADGET instances expressed as table algebras
// that also carry a ring topology's per-edge import labels: each ring node
// prefers the route *through* its clockwise neighbour ("via") over the
// direct route from the origin ("dir"), which is exactly a preference
// cycle — the stable-assignment constraint x_i = via <=> x_{i+1} = dir is
// unsatisfiable on an odd ring, so the protocol oscillates forever
// (BAD-GADGET); on an even ring the alternating assignments are stable
// (DISAGREE) and asynchrony usually settles into one.  The benign variant
// flips the preference so the same ring is strictly increasing and the
// Daggitt-Griffin criteria (property_check.hpp) *guarantee* convergence —
// that pair is the classifier's cross-check.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "algebra/custom_algebra.hpp"
#include "prefix/prefix.hpp"
#include "topology/graph.hpp"

namespace dragon::algebra {

struct DisputeGadget {
  std::string name;
  topology::Topology topo;
  /// Also labels each edge of `topo` (Algebra::import_label).
  std::shared_ptr<TableAlgebra> algebra;
  prefix::Prefix origin_prefix;
  topology::NodeId origin = 0;
  Attr origin_attr = 0;
  /// The dispute participants (ring nodes, excluding the origin).
  std::vector<topology::NodeId> ring;
  /// True when the algebra satisfies the strict-increase criteria and the
  /// classifier must therefore report convergence.
  bool criteria_convergent = false;
};

/// Builds a dispute ring of `ring_size` nodes around one origin (node 0).
/// `dispute=true` prefers the detour ("via") route — odd rings are
/// BAD-GADGET (divergent), even rings are DISAGREE (multiple stable
/// states); `dispute=false` is the benign strictly-increasing variant.
[[nodiscard]] DisputeGadget make_dispute_ring(std::size_t ring_size,
                                              bool dispute);

}  // namespace dragon::algebra
