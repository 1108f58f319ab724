// Discrete-event simulation core.
//
// Replaces the paper's physical testbeds (cluster + PlanetLab): protocol
// stacks run in-process against a virtual clock, so a thousand-node
// deployment executes deterministically on one machine. See DESIGN.md §2.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/spi.hpp"
#include "telemetry/registry.hpp"

namespace whisper::sim {

/// Event-loop with a virtual clock, and the simulator-side implementation
/// of the transport SPI's timer service (net::Clock). Events scheduled for
/// the same instant fire in scheduling order (stable), which keeps runs
/// deterministic.
///
/// Cancellation bookkeeping is a slot/generation scheme rather than hash
/// sets: each pending event owns a slot in a pooled table, and its TimerId
/// carries the slot's generation at scheduling time. cancel() is an O(1)
/// array probe (the heap entry is dropped lazily when it surfaces), step()
/// is pure O(log n) heap work — no hashing on either path.
class Simulator : public net::Clock {
 public:
  Simulator();

  net::Time now() const override { return now_; }

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
  net::Time next_event_at();

  std::size_t pending_events() const { return live_count_; }
  std::uint64_t executed_events() const { return executed_; }
  std::uint64_t cancelled_events() const { return cancelled_total_; }

  /// Register event-loop metrics on `registry` (sim.events.executed,
  /// sim.events.cancelled counters; sim.queue.depth gauge updated per
  /// step). Telemetry reads never influence scheduling, so attaching it
  /// cannot perturb determinism.
  void attach_telemetry(telemetry::Registry& registry);

 private:
  struct Event {
    net::Time at;
    std::uint64_t ka;   // canonical key, major (UINT64_MAX for plain timers)
    std::uint64_t kb;   // canonical key, minor (== seq for plain timers)
    std::uint64_t seq;  // tie-breaker: FIFO among same-time, same-key events
    net::TimerId id;
    std::function<void()> fn;
  };
  /// Min-heap order on (at, ka, kb, seq) for std::push_heap/pop_heap (which
  /// build max-heaps, hence the inverted comparison). Plain timers carry
  /// (ka, kb) = (UINT64_MAX, seq), so among themselves the order is exactly
  /// the historical (at, seq) FIFO.
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      if (a.ka != b.ka) return a.ka > b.ka;
      if (a.kb != b.kb) return a.kb > b.kb;
      return a.seq > b.seq;
    }
  };

  /// One entry per event slot. `gen` is bumped every time the slot retires
  /// (fire or cancel), so TimerIds minted for earlier occupants go stale.
  struct Slot {
    std::uint32_t gen = 1;
    bool live = false;
  };

  static net::TimerId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<net::TimerId>(gen) << 32) | slot;
  }

  std::uint32_t claim_slot();
  /// Free a slot and invalidate outstanding ids for it.
  void retire_slot(std::uint32_t slot);
  /// True if `id` no longer names a pending event (fired/cancelled/unknown).
  bool stale(net::TimerId id) const;
  /// Drop cancelled entries sitting at the heap front so callers can trust
  /// events_.front() to be a pending event.
  void drop_stale_front();

  net::Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_total_ = 0;
  std::vector<Event> events_;  // binary heap, storage reserved up front
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_count_ = 0;
  telemetry::Counter* executed_counter_ = nullptr;
  telemetry::Counter* cancelled_counter_ = nullptr;
  telemetry::Gauge* depth_gauge_ = nullptr;
};

}  // namespace whisper::sim
