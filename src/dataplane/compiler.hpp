// Compiling simulator routing state into servable LPM tables.
//
// The bridge between control plane and data plane: snapshot every node's
// forwarding state out of a (quiescent) Simulator as fibcomp::Fibs —
// next hops resolved exactly like Simulator::trace() resolves them, so
// a compiled table forwards identically to its simulated node — then
// flatten one into an immutable LpmTable ready for LookupServer::publish.
//
// Two snapshot kinds make DRAGON's payoff measurable: kPostDragon is the
// real FIB (elected, not filtered); kPreDragon additionally keeps the
// entries DRAGON filtered, i.e. the table the node would serve without
// aggregation.  Compiling both compares the table bytes DRAGON saves.
#pragma once

#include <memory>
#include <vector>

#include "dataplane/lpm_table.hpp"
#include "engine/simulator.hpp"
#include "fibcomp/fib.hpp"

namespace dragon::dataplane {

enum class SnapshotKind {
  kPostDragon,  ///< installed FIB: elected and not DRAGON-filtered
  kPreDragon,   ///< elected entries including DRAGON-filtered ones
};

/// One pass over the whole RIB: the FIBs of every node at once (indexed
/// by node id), e.g. to pick the busiest nodes to serve.  Entry order
/// follows the simulator's sorted per-node route iteration; next hops are
/// kLocal for active originations, the lowest-id rib_in neighbour whose
/// candidate equals the elected attribute over an alive link otherwise,
/// kDrop when no such neighbour exists — the Simulator::trace()
/// forwarding rule.
[[nodiscard]] std::vector<fibcomp::Fib> fibs_from_simulator(
    const engine::Simulator& sim, SnapshotKind kind);

/// Snapshot-to-table pipeline with a fixed layout config.  compile()
/// returns the unique_ptr<const LpmTable> shape LookupServer::publish
/// consumes, so "recompile and hot-swap node u" is
/// publish(compile(fibs_from_simulator(sim, kind)[u])).
class FibCompiler {
 public:
  explicit FibCompiler(LpmConfig config = {}) : config_(config) {}

  [[nodiscard]] std::unique_ptr<const LpmTable> compile(
      const fibcomp::Fib& fib) const {
    return std::make_unique<const LpmTable>(LpmTable::compile(fib, config_));
  }

 private:
  LpmConfig config_;
};

}  // namespace dragon::dataplane
