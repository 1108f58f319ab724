#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>

namespace whisper::sim {

namespace {
// A thousand-node deployment keeps a few events in flight per node; start
// with room for that so steady-state scheduling never reallocates.
constexpr std::size_t kInitialCapacity = 4096;
}  // namespace

Simulator::Simulator() {
  events_.reserve(kInitialCapacity);
  slots_.reserve(kInitialCapacity);
  free_slots_.reserve(kInitialCapacity);
}

void Simulator::attach_telemetry(telemetry::Registry& registry) {
  executed_counter_ = &registry.counter("sim.events.executed");
  cancelled_counter_ = &registry.counter("sim.events.cancelled");
  depth_gauge_ = &registry.gauge("sim.queue.depth");
}

std::uint32_t Simulator::claim_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t s = free_slots_.back();
    free_slots_.pop_back();
    return s;
  }
  slots_.push_back(Slot{});
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::retire_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.live = false;
  if (++s.gen == 0) s.gen = 1;  // keep ids non-zero across generation wrap
  free_slots_.push_back(slot);
  --live_count_;
}

bool Simulator::stale(net::TimerId id) const {
  const std::uint32_t slot = static_cast<std::uint32_t>(id);
  const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return true;
  const Slot& s = slots_[slot];
  return !s.live || s.gen != gen;
}

void Simulator::drop_stale_front() {
  while (!events_.empty() && stale(events_.front().id)) {
    std::pop_heap(events_.begin(), events_.end(), Later{});
    events_.pop_back();
  }
}

net::TimerId Simulator::schedule_at(net::Time at, std::function<void()> fn) {
  return schedule_keyed(at, UINT64_MAX, next_seq_, std::move(fn));
}

net::TimerId Simulator::schedule_keyed(net::Time at, std::uint64_t ka,
                                       std::uint64_t kb, std::function<void()> fn) {
  assert(at >= now_);
  const std::uint32_t slot = claim_slot();
  Slot& s = slots_[slot];
  s.live = true;
  ++live_count_;
  const net::TimerId id = make_id(slot, s.gen);
  events_.push_back(Event{at, ka, kb, next_seq_++, id, std::move(fn)});
  std::push_heap(events_.begin(), events_.end(), Later{});
  return id;
}

net::TimerId Simulator::schedule_after(net::Time delay, std::function<void()> fn) {
  return schedule_at(now_ + delay, std::move(fn));
}

void Simulator::cancel(net::TimerId id) {
  // Only ids naming a pending event can be cancelled; anything else
  // (already fired, already cancelled, never scheduled) is a stale
  // generation and a no-op — pending_events() cannot drift. The heap entry
  // stays behind and is dropped when it reaches the front.
  if (stale(id)) return;
  retire_slot(static_cast<std::uint32_t>(id));
  ++cancelled_total_;
  if (cancelled_counter_ != nullptr) cancelled_counter_->add(1);
}

bool Simulator::step() {
  drop_stale_front();
  if (events_.empty()) return false;
  std::pop_heap(events_.begin(), events_.end(), Later{});
  Event ev = std::move(events_.back());
  events_.pop_back();
  retire_slot(static_cast<std::uint32_t>(ev.id));
  now_ = ev.at;
  ++executed_;
  if (executed_counter_ != nullptr) executed_counter_->add(1);
  if (depth_gauge_ != nullptr) {
    depth_gauge_->set(static_cast<double>(pending_events()));
  }
  ev.fn();
  return true;
}

void Simulator::run_until(net::Time t) {
  for (;;) {
    drop_stale_front();
    if (events_.empty() || events_.front().at > t) break;
    step();
  }
  now_ = t;
}

net::Time Simulator::next_event_at() {
  drop_stale_front();
  return events_.empty() ? UINT64_MAX : events_.front().at;
}

void Simulator::run_until_before(net::Time t) {
  for (;;) {
    drop_stale_front();
    if (events_.empty() || events_.front().at >= t) break;
    step();
  }
  now_ = t;
}

void Simulator::run() {
  while (step()) {
  }
}

}  // namespace whisper::sim
