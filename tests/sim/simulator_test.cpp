#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace whisper::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0u);
}

TEST(Simulator, IsAVirtualClock) { EXPECT_FALSE(Simulator().wall_clock()); }

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30u);
}

TEST(Simulator, SameTimeEventsFifo) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator s;
  net::Time seen = 0;
  s.schedule_at(100, [&] {
    s.schedule_after(50, [&] { seen = s.now(); });
  });
  s.run();
  EXPECT_EQ(seen, 150u);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool ran = false;
  net::TimerId id = s.schedule_at(10, [&] { ran = true; });
  s.cancel(id);
  s.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator s;
  bool ran = false;
  net::TimerId id = s.schedule_at(10, [&] { ran = true; });
  s.run();
  EXPECT_TRUE(ran);
  s.cancel(id);  // must not blow up or affect future events
  bool ran2 = false;
  s.schedule_at(20, [&] { ran2 = true; });
  s.run();
  EXPECT_TRUE(ran2);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator s;
  int count = 0;
  s.schedule_at(10, [&] { ++count; });
  s.schedule_at(20, [&] { ++count; });
  s.schedule_at(30, [&] { ++count; });
  s.run_until(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(s.now(), 20u);
  s.run_until(100);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(s.now(), 100u);
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) s.schedule_after(1, recurse);
  };
  s.schedule_at(0, recurse);
  s.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.executed_events(), 5u);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator s;
  EXPECT_FALSE(s.step());
  s.schedule_at(1, [] {});
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Simulator, PendingEventsExcludesCancelled) {
  Simulator s;
  s.schedule_at(1, [] {});
  net::TimerId id = s.schedule_at(2, [] {});
  EXPECT_EQ(s.pending_events(), 2u);
  s.cancel(id);
  EXPECT_EQ(s.pending_events(), 1u);
}

// Regression: cancelling an id that already fired used to park the id in
// the cancelled set forever, making pending_events() under-count every
// event scheduled afterwards (queue size minus a stale cancelled count).
TEST(Simulator, CancelOfFiredIdDoesNotSkewPendingCount) {
  Simulator s;
  net::TimerId id = s.schedule_at(10, [] {});
  s.run();
  s.cancel(id);  // already fired: must be a no-op
  EXPECT_EQ(s.cancelled_events(), 0u);
  s.schedule_at(20, [] {});
  s.schedule_at(30, [] {});
  EXPECT_EQ(s.pending_events(), 2u);
}

TEST(Simulator, DoubleCancelCountsOnce) {
  Simulator s;
  net::TimerId id = s.schedule_at(10, [] {});
  s.schedule_at(20, [] {});
  s.cancel(id);
  s.cancel(id);  // second cancel of a live-then-cancelled id: no-op
  EXPECT_EQ(s.cancelled_events(), 1u);
  EXPECT_EQ(s.pending_events(), 1u);
  s.run();
  EXPECT_EQ(s.executed_events(), 1u);
}

TEST(Simulator, CancelOfUnknownIdIsNoop) {
  Simulator s;
  s.schedule_at(10, [] {});
  s.cancel(424242);  // never scheduled
  EXPECT_EQ(s.pending_events(), 1u);
  EXPECT_EQ(s.cancelled_events(), 0u);
}

TEST(Simulator, TelemetryCountersTrackEventLoop) {
  Simulator s;
  telemetry::Registry reg;
  s.attach_telemetry(reg);
  s.schedule_at(10, [] {});
  net::TimerId id = s.schedule_at(20, [] {});
  s.cancel(id);
  s.run();
  EXPECT_EQ(reg.counter_value("sim.events.executed"), 1u);
  EXPECT_EQ(reg.counter_value("sim.events.cancelled"), 1u);
  EXPECT_EQ(reg.gauge_value("sim.queue.depth"), 0.0);
}

// --- Slot/generation bookkeeping (the hash-set-free cancel scheme). ---

TEST(Simulator, TimerIdsAreNeverZero) {
  // Protocol code uses TimerId 0 as a "no timer armed" sentinel; a real id
  // equal to 0 would make that timer uncancellable.
  Simulator s;
  for (int i = 0; i < 100; ++i) EXPECT_NE(s.schedule_at(1, [] {}), 0u);
}

TEST(Simulator, StaleCancelOfRecycledSlotIsNoop) {
  // Cancel an id whose slot has since been recycled for a newer event: the
  // generation check must protect the new occupant.
  Simulator s;
  net::TimerId old_id = s.schedule_at(10, [] {});
  s.cancel(old_id);
  bool ran = false;
  net::TimerId new_id = s.schedule_at(20, [&] { ran = true; });  // may reuse the slot
  s.cancel(old_id);  // stale: must not cancel the new event
  EXPECT_EQ(s.cancelled_events(), 1u);
  EXPECT_EQ(s.pending_events(), 1u);
  s.run();
  EXPECT_TRUE(ran);
  s.cancel(new_id);  // fired: no-op
  EXPECT_EQ(s.cancelled_events(), 1u);
}

TEST(Simulator, SlotReuseKeepsCountsExact) {
  // Hammer schedule/cancel/fire so slots recycle many times; every counter
  // must stay exact (this is the regression net for the slot-generation
  // rewrite of the live/cancelled hash sets).
  Simulator s;
  std::uint64_t fired = 0;
  std::uint64_t cancelled = 0;
  for (int round = 0; round < 50; ++round) {
    net::TimerId keep = s.schedule_after(1, [&] { ++fired; });
    net::TimerId drop = s.schedule_after(2, [&] { ++fired; });
    EXPECT_EQ(s.pending_events(), 2u);
    s.cancel(drop);
    ++cancelled;
    EXPECT_EQ(s.pending_events(), 1u);
    s.run();
    s.cancel(keep);   // already fired
    s.cancel(drop);   // already cancelled
    EXPECT_EQ(s.pending_events(), 0u);
  }
  EXPECT_EQ(fired, 50u);
  EXPECT_EQ(s.executed_events(), 50u);
  EXPECT_EQ(s.cancelled_events(), cancelled);
}

TEST(Simulator, RunUntilIgnoresCancelledHeadAndHoldsBoundary) {
  // A cancelled event at the heap front inside the window must not drag a
  // later-than-t event into run_until(t) (the pre-slot-rewrite loop peeked
  // at the raw heap top and could overshoot).
  Simulator s;
  net::TimerId id = s.schedule_at(5, [] {});
  bool late_ran = false;
  s.schedule_at(100, [&] { late_ran = true; });
  s.cancel(id);
  s.run_until(10);
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(s.now(), 10u);
  s.run_until(100);
  EXPECT_TRUE(late_ran);
}

TEST(Simulator, MassCancellation) {
  Simulator s;
  std::vector<net::TimerId> ids;
  int ran = 0;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(s.schedule_at(static_cast<net::Time>(i + 1), [&] { ++ran; }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) s.cancel(ids[i]);
  EXPECT_EQ(s.pending_events(), 500u);
  s.run();
  EXPECT_EQ(ran, 500);
  EXPECT_EQ(s.executed_events(), 500u);
  EXPECT_EQ(s.cancelled_events(), 500u);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulator, PeriodicSelfRescheduling) {
  Simulator s;
  int fires = 0;
  std::function<void()> tick = [&] {
    ++fires;
    s.schedule_after(10, tick);
  };
  s.schedule_at(0, tick);
  s.run_until(95);
  EXPECT_EQ(fires, 10);  // t = 0,10,...,90
}

}  // namespace
}  // namespace whisper::sim
