#include "engine/event_queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace dragon::engine {

void EventQueue::schedule(Time t, Callback fn) {
  heap_.push(Item{std::max(t, now_), seq_++, std::move(fn)});
}

void EventQueue::run_next() {
  // Move the callback out before popping so it may schedule new events.
  Callback fn = std::move(const_cast<Item&>(heap_.top()).fn);
  now_ = heap_.top().t;
  heap_.pop();
  fn();
}

std::size_t EventQueue::run_until(Time max_time) {
  std::size_t count = 0;
  while (!heap_.empty() && heap_.top().t <= max_time) {
    run_next();
    ++count;
  }
  return count;
}

void EventQueue::reset_time(Time t) {
  if (!heap_.empty()) {
    throw std::logic_error("EventQueue::reset_time on a non-empty queue");
  }
  now_ = t;
}

}  // namespace dragon::engine
