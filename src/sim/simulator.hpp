// Discrete-event simulation core.
//
// Replaces the paper's physical testbeds (cluster + PlanetLab): protocol
// stacks run in-process against a virtual clock, so a thousand-node
// deployment executes deterministically on one machine. See DESIGN.md §2.
#pragma once

#include <cstdint>
#include <functional>

#include "net/spi.hpp"
#include "net/timer_queue.hpp"
#include "telemetry/registry.hpp"

namespace whisper::sim {

/// Event-loop with a virtual clock, and the simulator-side implementation
/// of the transport SPI's timer service (net::Clock). Events scheduled for
/// the same instant fire in scheduling order (stable), which keeps runs
/// deterministic. The events live in net::TimerQueue, the same queue the
/// UDP backend fires its timers from: cancel() is an O(1) slot probe,
/// step() is O(log n) heap work.
class Simulator : public net::Clock {
 public:
  Simulator();

  net::Time now() const override { return now_; }
  bool wall_clock() const override { return false; }

  /// Schedule `fn` to run at absolute virtual time `at` (>= now).
  net::TimerId schedule_at(net::Time at, std::function<void()> fn) override;
  /// Schedule `fn` to run `delay` from now.
  net::TimerId schedule_after(net::Time delay, std::function<void()> fn) override;

  /// Schedule with an explicit canonical ordering key. Events at the same
  /// timestamp fire in (ka, kb) order, before any plain-scheduled event at
  /// that timestamp (plain events carry ka = UINT64_MAX). The sharded
  /// engine uses this for message deliveries — the key is derived from the
  /// sender's identity and per-sender wire sequence, which is invariant
  /// under shard count, so a delivery sorts identically whether it arrived
  /// through a cross-shard channel or was scheduled locally.
  net::TimerId schedule_keyed(net::Time at, std::uint64_t ka, std::uint64_t kb,
                              std::function<void()> fn);
  /// Cancel a pending event; no-op if already fired or cancelled.
  void cancel(net::TimerId id) override;

  /// Run the next event; false if the queue is empty.
  bool step();
  /// Run all events with timestamp <= t, then advance the clock to t.
  void run_until(net::Time t);
  /// Run all events with timestamp strictly < t, then advance the clock to
  /// t. The sharded engine's window primitive: a lockstep window [ws, we)
  /// must NOT execute events at exactly `we`, because a cross-shard message
  /// drained at the window barrier may be due at precisely that instant and
  /// has to sort against the local queue before anything at `we` runs.
  void run_until_before(net::Time t);
  /// Run until the event queue drains.
  void run();

  /// Timestamp of the earliest pending event, UINT64_MAX when idle. Drops
  /// cancelled entries sitting at the heap front as a side effect. The
  /// sharded engine uses this to skip lockstep windows in which no shard
  /// has work (conservative "lookahead jump").
  net::Time next_event_at() { return queue_.next_deadline().value_or(UINT64_MAX); }

  std::size_t pending_events() const { return queue_.pending(); }
  std::uint64_t executed_events() const { return queue_.fired(); }
  std::uint64_t cancelled_events() const { return queue_.cancelled(); }

  /// Register event-loop metrics on `registry` (sim.events.executed,
  /// sim.events.cancelled counters; sim.queue.depth gauge updated per
  /// step). Telemetry reads never influence scheduling, so attaching it
  /// cannot perturb determinism.
  void attach_telemetry(telemetry::Registry& registry);

 private:
  /// Advance the clock to the earliest event and run it.
  void run_next();

  net::Time now_ = 0;
  net::TimerQueue queue_;
  telemetry::Counter* executed_counter_ = nullptr;
  telemetry::Counter* cancelled_counter_ = nullptr;
  telemetry::Gauge* depth_gauge_ = nullptr;
};

}  // namespace whisper::sim
