// Routing algebras (the framework of §4.1, after Sobrinho's "An algebraic
// theory of dynamic network routing").
//
// An algebra supplies:
//   * a set of attributes, totally ordered by preference, with a special
//     least-preferred attribute `kUnreachable` (the paper's bullet);
//   * labels: maps on attributes.  Each directed learning relation u<-v in a
//     network carries a label L[uv]; the attribute alpha of the route
//     elected at v extends into L[uv](alpha) at u.
//
// Attributes are encoded in 32 bits; the encoding is private to each
// algebra.  All consumers (the generic solver, DRAGON's code CR, the event
// engine) treat attributes as opaque ordered values.  The algebra also owns
// the other encodings they need: the L-attribute CR and RA compare, the
// label of each directed adjacency and the attribute a route leaker forges.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dragon::algebra {

/// Opaque attribute encoding.  Ordering is defined by Algebra::prefer.
using Attr = std::uint32_t;

/// The unreachable attribute, least preferred in every algebra.
inline constexpr Attr kUnreachable = 0xFFFFFFFFu;

/// Opaque label identifier; meaning is private to each algebra.
using LabelId = std::uint32_t;

class Algebra {
 public:
  virtual ~Algebra() = default;

  /// True if `a` is strictly preferred to `b` (a < b in the paper's order).
  /// Every algebra must rank kUnreachable last.
  [[nodiscard]] virtual bool prefer(Attr a, Attr b) const = 0;

  /// Applies the label map: the attribute of a route elected across a link
  /// with label `label`.  Labels fix kUnreachable: extend(l, •) = •.
  /// Returning kUnreachable on a reachable input models "not exported".
  [[nodiscard]] virtual Attr extend(LabelId label, Attr attr) const = 0;

  /// Human-readable attribute name for traces and test failures.
  [[nodiscard]] virtual std::string attr_name(Attr attr) const;

  /// A finite attribute support used by the property checkers (isotonicity,
  /// strict absorbency).  For algebras with small Sigma this is all of it;
  /// for unbounded ones (shortest paths) it is a representative sample.
  [[nodiscard]] virtual std::vector<Attr> attribute_support() const = 0;

  /// All label ids this algebra defines.
  [[nodiscard]] virtual std::vector<LabelId> label_support() const = 0;

  /// The L-attribute of a reachable `attr`: the part that takes
  /// precedence in election, which DRAGON's code CR and rule RA compare
  /// (§3.5; the GR class, which BGP sets through LOCAL-PREF).  Smaller is
  /// preferred.  Defaults to the whole attribute.
  [[nodiscard]] virtual std::uint32_t l_attr(Attr attr) const { return attr; }

  /// The label of the learning relation learner <- speaker in a network
  /// built from a topology: `gr` is the GR label of the relation and
  /// `link_id` numbers the directed adjacency (from 1, unique in the
  /// network).  Defaults to `gr`.
  [[nodiscard]] virtual LabelId import_label(std::uint32_t /*learner*/,
                                             std::uint32_t /*speaker*/,
                                             LabelId gr,
                                             std::uint32_t /*link_id*/) const {
    return gr;
  }

  /// The attribute a route leaker sends where the export policy drops a
  /// route.  kUnreachable (the default): the algebra models no leaks.
  [[nodiscard]] virtual Attr leak_attr() const { return kUnreachable; }

  /// Weak preference: prefer(a, b) or a == b.
  [[nodiscard]] bool prefer_eq(Attr a, Attr b) const {
    return a == b || prefer(a, b);
  }
};

}  // namespace dragon::algebra
