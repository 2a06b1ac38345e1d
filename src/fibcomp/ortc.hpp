// FIB compression baselines (§5.2, the "FIB def" / "FIB agg" curves).
//
// Two local, forwarding-preserving compressors:
//
//   * compress_conservative — removes entries only: an entry is dropped
//     when deleting it leaves the longest-prefix match of its whole range
//     unchanged (the covering entry has the same next hop).  No new
//     prefixes are introduced; this is the "without aggregation prefixes"
//     baseline (levels 1-2 of Zhao et al.).
//
//   * compress_ortc — Optimal Routing Table Constructor (Draves et al.),
//     the optimal compressor allowed to synthesise new aggregate entries;
//     this is the "with aggregation prefixes" baseline.  Classic three
//     passes on the binary trie: normalise, merge candidate next-hop sets
//     bottom-up (intersection if non-empty, else union), select top-down.
//
// Both preserve forwarding exactly, including drops (no default route).
// Both may run on several threads at once: each thread reuses its own
// working memory (the trie and ORTC's candidate sets) across calls.
#pragma once

#include "fibcomp/fib.hpp"

namespace dragon::fibcomp {

/// Remove-only compression; output is a subset of the input entries.
[[nodiscard]] Fib compress_conservative(const Fib& input);

/// ORTC optimal compression; output may contain synthesised prefixes.
[[nodiscard]] Fib compress_ortc(const Fib& input);

}  // namespace dragon::fibcomp
