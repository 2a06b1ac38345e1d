#include "algebra/gr_path_algebra.hpp"

#include <algorithm>

namespace dragon::algebra {

bool GrPathAlgebra::prefer(Attr a, Attr b) const {
  // Lexicographic on (class, length); the encoding makes that a plain
  // integer comparison, with kUnreachable largest.
  return a < b;
}

Attr GrPathAlgebra::extend(LabelId l, Attr a) const {
  if (a == kUnreachable) return kUnreachable;
  GrAlgebra base;
  const Attr cls = base.extend(l, static_cast<Attr>(class_of(a)));
  if (cls == kUnreachable) return kUnreachable;
  const Attr len = std::min<Attr>(path_length_of(a) + 1, kMaxPathLength);
  return make(static_cast<GrClass>(cls), len);
}

std::string GrPathAlgebra::attr_name(Attr a) const {
  if (a == kUnreachable) return "unreachable";
  GrAlgebra base;
  return base.attr_name(static_cast<Attr>(class_of(a))) + "/len=" +
         std::to_string(path_length_of(a));
}

std::vector<Attr> GrPathAlgebra::attribute_support() const {
  std::vector<Attr> out;
  for (GrClass c :
       {GrClass::kCustomer, GrClass::kPeer, GrClass::kProvider}) {
    for (Attr len = 0; len <= 4; ++len) out.push_back(make(c, len));
  }
  return out;
}

std::vector<LabelId> GrPathAlgebra::label_support() const {
  return {label(GrLabel::kFromCustomer), label(GrLabel::kFromPeer),
          label(GrLabel::kFromProvider)};
}

Attr GrPathAlgebra::leak_attr() const {
  // The classic leak presents provider/peer routes as customer routes, so
  // receivers import them across any relation.  The advertised path
  // length is pegged at the maximum.  This algebra has no AS-path loop
  // rejection, so a cycle of leakers re-electing each other's ever-longer
  // leaked routes counts to infinity (15M+ updates before the length
  // saturates); starting the leak *at* saturation reaches the same fixed
  // point — leaked customer routes still win on class precedence wherever
  // no true customer route exists, but lose every length tie-break —
  // without the storm.  The stable forwarding loops that leaks can leave
  // behind are measured damage (blast radius), not an invariant failure;
  // see chaos/scenario.cpp's run_adversarial.
  return make(GrClass::kCustomer, kMaxPathLength);
}

}  // namespace dragon::algebra

namespace dragon::algebra {

bool GrPathVectorAlgebra::prefer(Attr a, Attr b) const {
  // Election ignores the path hash: compare (class, length) only.
  return (a >> kHashBits) < (b >> kHashBits);
}

Attr GrPathVectorAlgebra::extend(LabelId l, Attr a) const {
  if (a == kUnreachable) return kUnreachable;
  GrAlgebra base;
  const Attr cls = base.extend(static_cast<LabelId>(l & 3u),
                               static_cast<Attr>(class_of(a)));
  if (cls == kUnreachable) return kUnreachable;
  const Attr len = std::min<Attr>(path_length_of(a) + 1, kMaxLen);
  // Mix the link id into the path hash (splitmix-style finalizer).
  std::uint64_t h = (static_cast<std::uint64_t>(a) << 32) | (l >> 2);
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
  h ^= h >> 31;
  return make(static_cast<GrClass>(cls), len,
              static_cast<Attr>(h) & ((1u << kHashBits) - 1));
}

std::string GrPathVectorAlgebra::attr_name(Attr a) const {
  if (a == kUnreachable) return "unreachable";
  GrAlgebra base;
  return base.attr_name(static_cast<Attr>(class_of(a))) + "/len=" +
         std::to_string(path_length_of(a)) + "/path=" +
         std::to_string(a & ((1u << kHashBits) - 1));
}

std::vector<Attr> GrPathVectorAlgebra::attribute_support() const {
  std::vector<Attr> out;
  for (GrClass c :
       {GrClass::kCustomer, GrClass::kPeer, GrClass::kProvider}) {
    for (Attr len = 0; len <= 3; ++len) out.push_back(make(c, len, 0));
  }
  return out;
}

std::vector<LabelId> GrPathVectorAlgebra::label_support() const {
  return {make_label(1, GrLabel::kFromCustomer),
          make_label(2, GrLabel::kFromPeer),
          make_label(3, GrLabel::kFromProvider)};
}

}  // namespace dragon::algebra
