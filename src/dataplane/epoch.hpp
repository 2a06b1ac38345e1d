// Epoch-based reclamation for hot-swapped lookup tables.
//
// The data plane serves lookups from an immutable LpmTable while the
// control plane compiles and publishes replacements.  Readers never lock:
// each one owns a cache-line-private slot where it *pins* the epoch it
// observed before dereferencing the current table; the writer swaps the
// table pointer, bumps the global epoch, and reclaims a retired table only
// once no reader is pinned at an epoch that could still see it.  This is
// the RCU/EBR shape of the PR-4 session-epoch machinery, generalised to
// many concurrent readers.
//
// Protocol (the contract DESIGN.md §12 documents):
//   reader:  slot = domain.acquire_reader()          (once per thread/chunk)
//            loop: domain.pin(slot)                  (per batch)
//                  table = published.read()          (AFTER the pin)
//                  ... lookups on `table` ...
//            domain.unpin(slot); domain.release_reader(slot)
//   writer:  published.publish(new_table)            (swap + retire old)
//            published.reclaim()                     (free drained tables)
//
// Why it is safe: all protocol atomics are seq_cst, so every execution
// has one total order over {reader pin-store, reader pointer-load, writer
// pointer-swap, writer epoch-advance, writer pin-scan}.  A reader that
// loaded the *old* pointer did so before the writer's swap, hence its pin
// (sequenced before that load) also precedes the swap and therefore the
// epoch-advance: the scan sees it pinned at <= the retire epoch and keeps
// the table.  Conversely a pin the scan reads as *greater* than the retire
// epoch loaded the epoch counter after the advance, which follows the
// swap, so that reader's next pointer-load can only return the new table.
// Unpinning stores kQuiescent; a quiescent slot holds no reference by
// definition (the reader must re-pin and re-read before touching a table
// again).  seq_cst everywhere instead of fences keeps the scheme friendly
// to TSan, which does not model standalone memory fences.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace dragon::dataplane {

/// Reader-slot registry plus the global epoch counter.  Fixed capacity:
/// slots are preallocated so acquire/release never allocate or move the
/// array under concurrent readers.
class EpochDomain {
 public:
  using ReaderId = std::size_t;
  static constexpr std::uint64_t kQuiescent = 0;

  explicit EpochDomain(std::size_t max_readers = 64);

  EpochDomain(const EpochDomain&) = delete;
  EpochDomain& operator=(const EpochDomain&) = delete;

  /// Claims a free reader slot; throws std::runtime_error when all
  /// max_readers slots are taken.  Thread-safe.
  [[nodiscard]] ReaderId acquire_reader();

  /// Returns a slot to the pool.  The slot must be unpinned.
  void release_reader(ReaderId id) noexcept;

  /// Publishes "I am about to read the current table": stores the current
  /// epoch into the slot.  Re-pinning an already-pinned slot is the
  /// steady-state batch loop.
  void pin(ReaderId id) noexcept {
    slots_[id].pinned.store(epoch_.load(std::memory_order_seq_cst),
                            std::memory_order_seq_cst);
  }

  /// Publishes "I hold no table reference until my next pin".
  void unpin(ReaderId id) noexcept {
    slots_[id].pinned.store(kQuiescent, std::memory_order_seq_cst);
  }

  /// Writer side: advances the global epoch, returning the *previous*
  /// value — the epoch a table retired by this swap is tagged with.
  std::uint64_t advance() noexcept {
    return epoch_.fetch_add(1, std::memory_order_seq_cst);
  }

  /// The smallest epoch any acquired slot is currently pinned at, or
  /// UINT64_MAX when every slot is quiescent.  A table retired at epoch e
  /// is reclaimable iff e < min_pinned().
  [[nodiscard]] std::uint64_t min_pinned() const noexcept;

 private:
  // One cache line per slot: readers on different slots never contend.
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> pinned{kQuiescent};
    std::atomic<bool> used{false};
  };

  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> epoch_{1};  // 0 is reserved for kQuiescent
};

/// RAII reader registration: acquires a slot for this scope, guarantees
/// unpin + release on exit.
class EpochReader {
 public:
  explicit EpochReader(EpochDomain& domain)
      : domain_(domain), id_(domain.acquire_reader()) {}
  ~EpochReader() {
    domain_.unpin(id_);
    domain_.release_reader(id_);
  }
  EpochReader(const EpochReader&) = delete;
  EpochReader& operator=(const EpochReader&) = delete;

  void pin() noexcept { domain_.pin(id_); }
  void unpin() noexcept { domain_.unpin(id_); }

 private:
  EpochDomain& domain_;
  EpochDomain::ReaderId id_;
};

/// A hot-swappable pointer to an immutable T, reclaimed via an
/// EpochDomain.  One writer at a time is enforced with a mutex (publish
/// and reclaim are control-plane operations; only read() is hot).
template <typename T>
class EpochPublished {
 public:
  explicit EpochPublished(EpochDomain& domain) : domain_(domain) {}

  /// Destructor contract: no readers may be pinned — the owner joins or
  /// drains all reader threads first (same discipline as the span-trace
  /// export).  Frees the current table and every retired one.
  ~EpochPublished() {
    delete current_.load(std::memory_order_seq_cst);
    for (const Retired& r : retired_) delete r.ptr;
  }

  EpochPublished(const EpochPublished&) = delete;
  EpochPublished& operator=(const EpochPublished&) = delete;

  /// Reader hot path.  Only valid between a pin() and the matching
  /// unpin()/re-pin on the calling reader's slot; the pointer must not be
  /// held across the unpin.  May be null before the first publish.
  [[nodiscard]] const T* read() const noexcept {
    return current_.load(std::memory_order_seq_cst);
  }

  /// Swaps in `table`, retires the previous one (tagged with the epoch
  /// returned by advance()), and opportunistically reclaims any retired
  /// tables whose readers have drained.
  void publish(std::unique_ptr<const T> table) {
    const std::lock_guard<std::mutex> lock(mu_);
    const T* old = current_.exchange(table.release(),
                                     std::memory_order_seq_cst);
    ++publish_count_;
    if (old != nullptr) retired_.push_back({old, domain_.advance()});
    reclaim_locked();
  }

  /// Frees every retired table no pinned reader can still see.  Returns
  /// how many retired tables are still outstanding.
  std::size_t reclaim() {
    const std::lock_guard<std::mutex> lock(mu_);
    return reclaim_locked();
  }

  [[nodiscard]] std::size_t publish_count() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return publish_count_;
  }

 private:
  struct Retired {
    const T* ptr;
    std::uint64_t epoch;
  };

  std::size_t reclaim_locked() {
    const std::uint64_t min_pin = domain_.min_pinned();
    std::size_t keep = 0;
    for (Retired& r : retired_) {
      if (r.epoch < min_pin) {
        delete r.ptr;
      } else {
        retired_[keep++] = r;
      }
    }
    retired_.resize(keep);
    return keep;
  }

  EpochDomain& domain_;
  std::atomic<const T*> current_{nullptr};
  mutable std::mutex mu_;
  std::vector<Retired> retired_;
  std::size_t publish_count_ = 0;
};

}  // namespace dragon::dataplane
