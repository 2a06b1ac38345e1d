// Discrete-event core of the protocol engine: a time-ordered queue of
// callbacks with FIFO tie-breaking, so simulations are fully deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace dragon::engine {

/// Simulation time in seconds.
using Time = double;

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedules `fn` at absolute time `t` (>= now(), else clamped to now()).
  void schedule(Time t, Callback fn);

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  [[nodiscard]] Time now() const noexcept { return now_; }
  [[nodiscard]] Time next_time() const { return heap_.top().t; }

  /// Pops the earliest event, advances now(), and runs it.
  void run_next();

  /// Runs events until the queue drains or `max_time` is passed (events
  /// after max_time stay queued).  Returns the number of events run.
  std::size_t run_until(Time max_time);

  /// Rewinds (or advances) the clock to `t`.  Only valid on an empty
  /// queue — pending events carry absolute timestamps that a time jump
  /// would reorder.  Simulator::restore() uses this to put the clock
  /// back where the snapshot was taken, so restored MRAI deadlines stay
  /// meaningful and repeated trials replay bit-identically.
  void reset_time(Time t);

 private:
  struct Item {
    Time t;
    std::uint64_t seq;
    Callback fn;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const noexcept {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };
  std::priority_queue<Item, std::vector<Item>, Later> heap_;
  Time now_ = 0.0;
  std::uint64_t seq_ = 0;
};

}  // namespace dragon::engine
