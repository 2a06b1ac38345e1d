// GR with AS-path lengths (§3.5 "Relaxing AS-paths").
//
// Attributes are pairs (L-attribute, path length): the L-attribute is the
// GR class (implemented with LOCAL-PREF in BGP) and takes precedence; path
// length breaks ties, as AS-PATH does among routes of equal LOCAL-PREF.
// Extension increments the path length by one.  This algebra is isotone.
//
// DRAGON's slack-X filtering variant compares the two components separately;
// the accessors below expose them.
#pragma once

#include "algebra/algebra.hpp"
#include "algebra/gr_algebra.hpp"

namespace dragon::algebra {

class GrPathAlgebra final : public Algebra {
 public:
  /// Maximum representable path length; extension saturates there.
  static constexpr Attr kMaxPathLength = 0xFFFFu;

  [[nodiscard]] static constexpr Attr make(GrClass c, Attr path_length) noexcept {
    return (static_cast<Attr>(c) << 16) | (path_length & kMaxPathLength);
  }
  [[nodiscard]] static constexpr GrClass class_of(Attr a) noexcept {
    return static_cast<GrClass>(a >> 16);
  }
  [[nodiscard]] static constexpr Attr path_length_of(Attr a) noexcept {
    return a & kMaxPathLength;
  }

  [[nodiscard]] bool prefer(Attr a, Attr b) const override;
  [[nodiscard]] Attr extend(LabelId l, Attr a) const override;
  [[nodiscard]] std::string attr_name(Attr a) const override;
  [[nodiscard]] std::vector<Attr> attribute_support() const override;
  [[nodiscard]] std::vector<LabelId> label_support() const override;
  [[nodiscard]] std::uint32_t l_attr(Attr a) const override {
    return static_cast<std::uint32_t>(class_of(a));
  }
  [[nodiscard]] Attr leak_attr() const override;
};

}  // namespace dragon::algebra

namespace dragon::algebra {

// GR with AS-path *identity* — the path-vector realism layer for the
// convergence study (§5.3).
//
// Real BGP re-advertises whenever the AS-PATH content changes, even if
// LOCAL-PREF and path length are unchanged; that is what produces path
// exploration and the large update counts SimBGP measures.  This algebra
// models path content compactly: the attribute carries, besides the GR
// class and the path length, a 23-bit hash of the sequence of traversed
// links.  Preference ignores the hash (election is by class, then length,
// then deterministic tie-break), but any change of the underlying path
// changes the attribute value and therefore propagates, exactly like a
// changed AS-PATH.
//
// Labels encode (unique link id << 2) | GR label; import_label builds them
// from the simulator's link numbering, and make_label builds them when
// networks are built by hand.
class GrPathVectorAlgebra final : public Algebra {
 public:
  static constexpr int kLenBits = 7;
  static constexpr int kHashBits = 23;
  static constexpr Attr kMaxLen = (1u << kLenBits) - 2;  // all-ones reserved

  [[nodiscard]] static constexpr LabelId make_label(std::uint32_t link_id,
                                                    GrLabel gr) noexcept {
    return (link_id << 2) | static_cast<LabelId>(gr);
  }
  [[nodiscard]] static constexpr Attr make(GrClass c, Attr len,
                                           Attr hash = 0) noexcept {
    return (static_cast<Attr>(c) << (kLenBits + kHashBits)) |
           ((len & ((1u << kLenBits) - 1)) << kHashBits) |
           (hash & ((1u << kHashBits) - 1));
  }
  [[nodiscard]] static constexpr GrClass class_of(Attr a) noexcept {
    return static_cast<GrClass>(a >> (kLenBits + kHashBits));
  }
  [[nodiscard]] static constexpr Attr path_length_of(Attr a) noexcept {
    return (a >> kHashBits) & ((1u << kLenBits) - 1);
  }

  [[nodiscard]] bool prefer(Attr a, Attr b) const override;
  [[nodiscard]] Attr extend(LabelId l, Attr a) const override;
  [[nodiscard]] std::string attr_name(Attr a) const override;
  [[nodiscard]] std::vector<Attr> attribute_support() const override;
  [[nodiscard]] std::vector<LabelId> label_support() const override;
  [[nodiscard]] std::uint32_t l_attr(Attr a) const override {
    return static_cast<std::uint32_t>(class_of(a));
  }
  [[nodiscard]] LabelId import_label(std::uint32_t /*learner*/,
                                     std::uint32_t /*speaker*/, LabelId gr,
                                     std::uint32_t link_id) const override {
    return make_label(link_id, static_cast<GrLabel>(gr));
  }
};

}  // namespace dragon::algebra
