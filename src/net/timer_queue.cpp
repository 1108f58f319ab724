#include "net/timer_queue.hpp"

#include <algorithm>

namespace whisper::net {

TimerQueue::TimerQueue(std::size_t capacity) {
  heap_.reserve(capacity);
  slots_.reserve(capacity);
  free_slots_.reserve(capacity);
}

std::uint32_t TimerQueue::claim_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t s = free_slots_.back();
    free_slots_.pop_back();
    return s;
  }
  slots_.push_back(Slot{});
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void TimerQueue::retire_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.live = false;
  if (++s.gen == 0) s.gen = 1;  // keep ids non-zero across generation wrap
  free_slots_.push_back(slot);
  --live_count_;
}

bool TimerQueue::stale(TimerId id) const {
  const std::uint32_t slot = static_cast<std::uint32_t>(id);
  const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return true;
  const Slot& s = slots_[slot];
  return !s.live || s.gen != gen;
}

void TimerQueue::drop_stale_front() {
  while (!heap_.empty() && stale(heap_.front().id)) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

TimerId TimerQueue::schedule_keyed(Time at, std::uint64_t ka, std::uint64_t kb,
                                   std::function<void()> fn) {
  const std::uint32_t slot = claim_slot();
  Slot& s = slots_[slot];
  s.live = true;
  ++live_count_;
  const TimerId id = make_id(slot, s.gen);
  heap_.push_back(Entry{at, ka, kb, next_seq_++, id, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return id;
}

bool TimerQueue::cancel(TimerId id) {
  // Only ids naming a pending timer can be cancelled; anything else is a
  // stale generation and a no-op, so pending() cannot drift. The heap entry
  // stays behind and is dropped when it reaches the front.
  if (stale(id)) return false;
  retire_slot(static_cast<std::uint32_t>(id));
  ++cancelled_;
  return true;
}

std::optional<Time> TimerQueue::next_deadline() {
  drop_stale_front();
  if (heap_.empty()) return std::nullopt;
  return heap_.front().at;
}

TimerQueue::Timer TimerQueue::pop() {
  drop_stale_front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry e = std::move(heap_.back());
  heap_.pop_back();
  retire_slot(static_cast<std::uint32_t>(e.id));
  ++fired_;
  return Timer{e.at, std::move(e.fn)};
}

std::size_t TimerQueue::advance(Time now) {
  std::size_t n = 0;
  for (auto at = next_deadline(); at && *at <= now; at = next_deadline()) {
    pop().fn();
    ++n;
  }
  return n;
}

}  // namespace whisper::net
