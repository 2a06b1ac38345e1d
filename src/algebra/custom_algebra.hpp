// Table-driven algebras: an explicit finite attribute set with a rank
// vector and explicit label maps.  Used to build
//   * the non-isotone policies of Figure 3 (provider preference plus a
//     provider that does not export customer routes downstream), and
//   * random algebras for property-based tests of the checkers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "algebra/algebra.hpp"
#include "util/rng.hpp"

namespace dragon::algebra {

class TableAlgebra : public Algebra {
 public:
  /// `names[i]` names attribute i; lower index = more preferred.
  /// `maps[l][i]` is the result of extending attribute i across label l
  /// (may be kUnreachable, meaning the route is not exported).
  TableAlgebra(std::vector<std::string> names,
               std::vector<std::vector<Attr>> maps);

  [[nodiscard]] bool prefer(Attr a, Attr b) const override;
  [[nodiscard]] Attr extend(LabelId l, Attr a) const override;
  [[nodiscard]] std::string attr_name(Attr a) const override;
  [[nodiscard]] std::vector<Attr> attribute_support() const override;
  [[nodiscard]] std::vector<LabelId> label_support() const override;

  /// Generates a random table algebra with `attrs` attributes and `labels`
  /// labels; each map entry is either a uniformly random attribute or
  /// kUnreachable with probability `drop`.
  [[nodiscard]] static TableAlgebra random(util::Rng& rng, std::size_t attrs,
                                           std::size_t labels, double drop);

  /// GR extended with sibling relationships (Liao et al., cited in §3.3 as
  /// another isotone policy family): siblings exchange every route and the
  /// attribute crosses unchanged.  Labels 0..2 are the GR labels
  /// (from-customer, from-peer, from-provider); label 3 is from-sibling.
  [[nodiscard]] static TableAlgebra gao_rexford_with_siblings();

  /// The next-hop routing policies of Schapira et al. (§3.3): preferences
  /// depend only on the neighbour the route was learned from.  Neighbour
  /// ranks 0..`ranks-1` (lower preferred); label r maps every attribute to
  /// rank r's attribute, except that GR-style export restriction is kept
  /// between rank classes: `export_ok[from][to]` gates each label.  The
  /// returned algebra is isotone by construction (each label is a constant
  /// map on reachable attributes).
  [[nodiscard]] static TableAlgebra next_hop(std::size_t ranks);

 private:
  std::vector<std::string> names_;
  std::vector<std::vector<Attr>> maps_;
};

}  // namespace dragon::algebra
