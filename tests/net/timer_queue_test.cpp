// Unit tests for the timer queue behind both backends: expiry ordering,
// O(1) slot/generation cancellation, stale-id safety, and re-arming from
// inside callbacks.
#include "net/timer_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace whisper::net {
namespace {

TEST(TimerQueue, FiresInDeadlineOrder) {
  TimerQueue wheel;
  std::vector<int> order;
  wheel.schedule(300, [&] { order.push_back(3); });
  wheel.schedule(100, [&] { order.push_back(1); });
  wheel.schedule(200, [&] { order.push_back(2); });
  EXPECT_EQ(wheel.advance(1000), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TimerQueue, SameDeadlineFiresInArmOrder) {
  TimerQueue wheel;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    wheel.schedule(50, [&order, i] { order.push_back(i); });
  }
  wheel.advance(50);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(TimerQueue, AdvanceStopsAtNow) {
  TimerQueue wheel;
  int fired = 0;
  wheel.schedule(100, [&] { ++fired; });
  wheel.schedule(101, [&] { ++fired; });
  EXPECT_EQ(wheel.advance(100), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(wheel.pending(), 1u);
  EXPECT_EQ(wheel.advance(101), 1u);
  EXPECT_EQ(fired, 2);
}

TEST(TimerQueue, CancelPreventsFiring) {
  TimerQueue wheel;
  int fired = 0;
  const TimerId a = wheel.schedule(10, [&] { ++fired; });
  const TimerId b = wheel.schedule(20, [&] { ++fired; });
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  ASSERT_NE(a, b);
  wheel.cancel(a);
  EXPECT_EQ(wheel.pending(), 1u);
  wheel.advance(100);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(wheel.cancelled(), 1u);
  EXPECT_EQ(wheel.fired(), 1u);
}

TEST(TimerQueue, StaleIdsAreHarmless) {
  TimerQueue wheel;
  int fired = 0;
  const TimerId a = wheel.schedule(10, [&] { ++fired; });
  wheel.advance(10);  // a fires; its slot retires
  wheel.cancel(a);    // stale: no-op
  // The slot is recycled for b under a new generation — cancelling the old
  // id again must not disturb the new occupant.
  const TimerId b = wheel.schedule(20, [&] { ++fired; });
  EXPECT_NE(a, b);
  wheel.cancel(a);
  wheel.cancel(12345678u);  // never-issued id
  wheel.cancel(0);          // the "no timer" sentinel
  wheel.advance(20);
  EXPECT_EQ(fired, 2);
}

TEST(TimerQueue, DoubleCancelCountsOnce) {
  TimerQueue wheel;
  const TimerId a = wheel.schedule(10, [] {});
  wheel.cancel(a);
  wheel.cancel(a);
  EXPECT_EQ(wheel.cancelled(), 1u);
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerQueue, NextDeadlineTracksEarliestLiveTimer) {
  TimerQueue wheel;
  EXPECT_FALSE(wheel.next_deadline().has_value());
  const TimerId a = wheel.schedule(100, [] {});
  wheel.schedule(200, [] {});
  EXPECT_EQ(wheel.next_deadline(), std::optional<Time>(100));
  // Cancelling the front lazily leaves it in the heap; next_deadline must
  // see through to the next live entry.
  wheel.cancel(a);
  EXPECT_EQ(wheel.next_deadline(), std::optional<Time>(200));
  wheel.advance(200);
  EXPECT_FALSE(wheel.next_deadline().has_value());
}

TEST(TimerQueue, CallbackMayArmTimerDueNow) {
  TimerQueue wheel;
  std::vector<int> order;
  wheel.schedule(10, [&] {
    order.push_back(1);
    wheel.schedule(10, [&] { order.push_back(2); });  // due within this advance
    wheel.schedule(99, [&] { order.push_back(99); });
  });
  EXPECT_EQ(wheel.advance(10), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(wheel.pending(), 1u);
}

TEST(TimerQueue, CallbackMayCancelLaterTimer) {
  TimerQueue wheel;
  int fired = 0;
  TimerId victim = 0;
  wheel.schedule(10, [&] { wheel.cancel(victim); });
  victim = wheel.schedule(20, [&] { ++fired; });
  wheel.advance(100);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(wheel.fired(), 1u);
  EXPECT_EQ(wheel.cancelled(), 1u);
}

TEST(TimerQueue, PeriodicRearmKeepsSlotPoolBounded) {
  TimerQueue wheel;
  Time next = 1;
  std::function<void()> tick = [&] {
    if (next < 1000) wheel.schedule(++next, tick);
  };
  wheel.schedule(next, tick);
  Time now = 0;
  while (wheel.pending() > 0) wheel.advance(++now);
  EXPECT_EQ(wheel.fired(), 1000u);
}

TEST(TimerQueue, CancelDuringExpiryOfSameDeadlineBatch) {
  // Three timers due at the same instant fire in arm order; the first
  // cancels the second MID-EXPIRY, so the batch must deliver 1 then 3 —
  // the cancel takes effect even though the victim was already due.
  TimerQueue wheel;
  std::vector<int> order;
  TimerId second = 0;
  wheel.schedule(10, [&] {
    order.push_back(1);
    wheel.cancel(second);
  });
  second = wheel.schedule(10, [&] { order.push_back(2); });
  wheel.schedule(10, [&] { order.push_back(3); });
  EXPECT_EQ(wheel.advance(10), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(wheel.cancelled(), 1u);
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerQueue, CancelThenRearmInCallbackYieldsFreshTimer) {
  // A callback that cancels a due timer and re-arms a replacement must not
  // resurrect the cancelled one, and the replacement's id must be distinct
  // (slot generations retire stale ids).
  TimerQueue wheel;
  int victim_fired = 0;
  int replacement_fired = 0;
  TimerId victim = 0;
  TimerId replacement = 0;
  wheel.schedule(10, [&] {
    wheel.cancel(victim);
    replacement = wheel.schedule(20, [&] { ++replacement_fired; });
  });
  victim = wheel.schedule(15, [&] { ++victim_fired; });
  wheel.advance(10);
  EXPECT_NE(replacement, victim);
  wheel.advance(100);
  EXPECT_EQ(victim_fired, 0);
  EXPECT_EQ(replacement_fired, 1);
  // The stale victim id must not cancel the replacement's recycled slot.
  wheel.cancel(victim);
  EXPECT_EQ(wheel.cancelled(), 1u);
}

TEST(TimerQueue, RearmAfterFullDrainKeepsFiring) {
  // The queue survives going idle: drain everything, re-arm, fire again —
  // the pattern a lingering noded relies on after its own work is done.
  TimerQueue wheel;
  int fired = 0;
  wheel.schedule(5, [&] { ++fired; });
  wheel.advance(10);
  EXPECT_EQ(wheel.pending(), 0u);
  EXPECT_FALSE(wheel.next_deadline().has_value());
  wheel.schedule(20, [&] { ++fired; });
  wheel.schedule(30, [&] { ++fired; });
  EXPECT_EQ(wheel.next_deadline(), std::optional<Time>(20));
  wheel.advance(50);
  EXPECT_EQ(fired, 3);
}

TEST(TimerQueue, ManyTimersRandomizedCancellation) {
  TimerQueue wheel;
  std::vector<TimerId> ids;
  int fired = 0;
  for (int i = 0; i < 500; ++i) {
    ids.push_back(wheel.schedule(static_cast<Time>(1 + (i * 7) % 100),
                                 [&] { ++fired; }));
  }
  // Cancel every third one, deterministically.
  int cancelled = 0;
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    wheel.cancel(ids[i]);
    ++cancelled;
  }
  wheel.advance(1000);
  EXPECT_EQ(fired, 500 - cancelled);
  EXPECT_EQ(wheel.pending(), 0u);
}

}  // namespace
}  // namespace whisper::net
