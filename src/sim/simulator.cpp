#include "sim/simulator.hpp"

#include <cassert>

namespace whisper::sim {

namespace {
// A thousand-node deployment keeps a few events in flight per node; start
// with room for that so steady-state scheduling never reallocates.
constexpr std::size_t kInitialCapacity = 4096;
}  // namespace

Simulator::Simulator() : queue_(kInitialCapacity) {}

void Simulator::attach_telemetry(telemetry::Registry& registry) {
  executed_counter_ = &registry.counter("sim.events.executed");
  cancelled_counter_ = &registry.counter("sim.events.cancelled");
  depth_gauge_ = &registry.gauge("sim.queue.depth");
}

net::TimerId Simulator::schedule_at(net::Time at, std::function<void()> fn) {
  assert(at >= now_);
  return queue_.schedule(at, std::move(fn));
}

net::TimerId Simulator::schedule_keyed(net::Time at, std::uint64_t ka,
                                       std::uint64_t kb, std::function<void()> fn) {
  assert(at >= now_);
  return queue_.schedule_keyed(at, ka, kb, std::move(fn));
}

net::TimerId Simulator::schedule_after(net::Time delay, std::function<void()> fn) {
  return schedule_at(now_ + delay, std::move(fn));
}

void Simulator::cancel(net::TimerId id) {
  if (queue_.cancel(id) && cancelled_counter_ != nullptr) cancelled_counter_->add(1);
}

void Simulator::run_next() {
  net::TimerQueue::Timer ev = queue_.pop();
  now_ = ev.at;
  if (executed_counter_ != nullptr) executed_counter_->add(1);
  if (depth_gauge_ != nullptr) {
    depth_gauge_->set(static_cast<double>(pending_events()));
  }
  ev.fn();
}

bool Simulator::step() {
  if (!queue_.next_deadline()) return false;
  run_next();
  return true;
}

void Simulator::run_until(net::Time t) {
  for (auto at = queue_.next_deadline(); at && *at <= t; at = queue_.next_deadline()) {
    run_next();
  }
  now_ = t;
}

void Simulator::run_until_before(net::Time t) {
  for (auto at = queue_.next_deadline(); at && *at < t; at = queue_.next_deadline()) {
    run_next();
  }
  now_ = t;
}

void Simulator::run() {
  while (step()) {
  }
}

}  // namespace whisper::sim
