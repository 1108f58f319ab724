// The one timer queue behind both backends: the simulator's virtual-time
// event loop (sim::Simulator) and the UDP/epoll backend (net::UdpBackend),
// so protocol code observes the same firing discipline on both.
//
// A binary min-heap ordered by (at, ka, kb, seq). Plain timers carry
// (ka, kb) = (UINT64_MAX, seq), so among themselves they fire in
// (deadline, arm order) — FIFO among timers due at the same microsecond.
// Keyed timers (the simulator's message deliveries, see
// Simulator::schedule_keyed) fire before any plain timer due at the same
// instant, in (ka, kb) order.
//
// Cancellation is a slot/generation scheme rather than hash sets: each
// pending timer owns a slot in a pooled table and its TimerId carries the
// slot's generation at arm time, so cancel() is an O(1) array probe with
// no hashing, and ids for retired occupants go stale automatically. A
// cancelled timer's heap entry is dropped lazily when it surfaces.
//
// The queue owns no clock: the caller asks for the earliest deadline
// (`next_deadline`) and either fires everything due by its own clock
// (`advance`) or takes the earliest timer and moves its clock to it first
// (`pop`). That keeps it a pure data structure, unit-testable without
// sockets or an event loop.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "net/time.hpp"

namespace whisper::net {

class TimerQueue {
 public:
  /// Reserve room for `capacity` timers, so steady-state arming never
  /// reallocates. The default fits one noded, or an in-process loopback
  /// mesh keeping a few timers per node.
  explicit TimerQueue(std::size_t capacity = 1024);

  /// Arm `fn` to fire at `at`, after every plain timer already armed for
  /// `at`. Returns a non-zero id usable with cancel().
  TimerId schedule(Time at, std::function<void()> fn) {
    return schedule_keyed(at, UINT64_MAX, next_seq_, std::move(fn));
  }
  /// Arm `fn` at `at` with an explicit ordering key (ka, kb).
  TimerId schedule_keyed(Time at, std::uint64_t ka, std::uint64_t kb,
                         std::function<void()> fn);
  /// Disarm a pending timer. Fired, cancelled and unknown ids are a no-op
  /// and return false.
  bool cancel(TimerId id);

  /// Pending (armed, not yet fired or cancelled) timers.
  std::size_t pending() const { return live_count_; }
  std::uint64_t fired() const { return fired_; }
  std::uint64_t cancelled() const { return cancelled_; }

  /// Earliest pending deadline, or nullopt when idle. Prunes cancelled
  /// entries from the heap front as a side effect.
  std::optional<Time> next_deadline();

  struct Timer {
    Time at;
    std::function<void()> fn;
  };
  /// Take the earliest pending timer (one must exist: check
  /// next_deadline()) and retire its id. The caller runs `fn`.
  Timer pop();

  /// Fire every timer with deadline <= `now`, in queue order. Callbacks
  /// may arm and cancel timers freely, including ones that become due
  /// within this same call. Returns the number fired.
  std::size_t advance(Time now);

 private:
  struct Entry {
    Time at;
    std::uint64_t ka;   // canonical key, major (UINT64_MAX for plain timers)
    std::uint64_t kb;   // canonical key, minor (== seq for plain timers)
    std::uint64_t seq;  // tie-breaker: FIFO among same-time, same-key timers
    TimerId id;
    std::function<void()> fn;
  };
  /// Min-heap order on (at, ka, kb, seq) for std::push_heap/pop_heap
  /// (which build max-heaps, hence the inverted comparison).
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      if (a.ka != b.ka) return a.ka > b.ka;
      if (a.kb != b.kb) return a.kb > b.kb;
      return a.seq > b.seq;
    }
  };

  /// One entry per timer slot. `gen` is bumped every time the slot retires
  /// (fire or cancel), so TimerIds minted for earlier occupants go stale.
  struct Slot {
    std::uint32_t gen = 1;
    bool live = false;
  };

  static TimerId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<TimerId>(gen) << 32) | slot;
  }

  std::uint32_t claim_slot();
  /// Free a slot and invalidate outstanding ids for it.
  void retire_slot(std::uint32_t slot);
  /// True if `id` no longer names a pending timer (fired/cancelled/unknown).
  bool stale(TimerId id) const;
  /// Drop cancelled entries sitting at the heap front, so heap_.front() is
  /// a pending timer.
  void drop_stale_front();

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_count_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t cancelled_ = 0;
};

}  // namespace whisper::net
