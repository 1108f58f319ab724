// Unit tests for the timer queue behind both backends: expiry ordering,
// O(1) slot/generation cancellation, stale-id safety, and re-arming from
// inside callbacks.
#include "net/timer_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace whisper::net {
namespace {

TEST(TimerQueue, FiresInDeadlineOrder) {
  TimerQueue q;
  std::vector<int> order;
  q.schedule(300, [&] { order.push_back(3); });
  q.schedule(100, [&] { order.push_back(1); });
  q.schedule(200, [&] { order.push_back(2); });
  EXPECT_EQ(q.advance(1000), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TimerQueue, SameDeadlineFiresInArmOrder) {
  TimerQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q.schedule(50, [&order, i] { order.push_back(i); });
  }
  q.advance(50);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(TimerQueue, AdvanceStopsAtNow) {
  TimerQueue q;
  int fired = 0;
  q.schedule(100, [&] { ++fired; });
  q.schedule(101, [&] { ++fired; });
  EXPECT_EQ(q.advance(100), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.advance(101), 1u);
  EXPECT_EQ(fired, 2);
}

TEST(TimerQueue, CancelPreventsFiring) {
  TimerQueue q;
  int fired = 0;
  const TimerId a = q.schedule(10, [&] { ++fired; });
  const TimerId b = q.schedule(20, [&] { ++fired; });
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  ASSERT_NE(a, b);
  q.cancel(a);
  EXPECT_EQ(q.pending(), 1u);
  q.advance(100);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.cancelled(), 1u);
  EXPECT_EQ(q.fired(), 1u);
}

TEST(TimerQueue, StaleIdsAreHarmless) {
  TimerQueue q;
  int fired = 0;
  const TimerId a = q.schedule(10, [&] { ++fired; });
  q.advance(10);  // a fires; its slot retires
  q.cancel(a);    // stale: no-op
  // The slot is recycled for b under a new generation — cancelling the old
  // id again must not disturb the new occupant.
  const TimerId b = q.schedule(20, [&] { ++fired; });
  EXPECT_NE(a, b);
  q.cancel(a);
  q.cancel(12345678u);  // never-issued id
  q.cancel(0);          // the "no timer" sentinel
  q.advance(20);
  EXPECT_EQ(fired, 2);
}

TEST(TimerQueue, DoubleCancelCountsOnce) {
  TimerQueue q;
  const TimerId a = q.schedule(10, [] {});
  q.cancel(a);
  q.cancel(a);
  EXPECT_EQ(q.cancelled(), 1u);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(TimerQueue, NextDeadlineTracksEarliestLiveTimer) {
  TimerQueue q;
  EXPECT_FALSE(q.next_deadline().has_value());
  const TimerId a = q.schedule(100, [] {});
  q.schedule(200, [] {});
  EXPECT_EQ(q.next_deadline(), std::optional<Time>(100));
  // Cancelling the front lazily leaves it in the heap; next_deadline must
  // see through to the next live entry.
  q.cancel(a);
  EXPECT_EQ(q.next_deadline(), std::optional<Time>(200));
  q.advance(200);
  EXPECT_FALSE(q.next_deadline().has_value());
}

TEST(TimerQueue, CallbackMayArmTimerDueNow) {
  TimerQueue q;
  std::vector<int> order;
  q.schedule(10, [&] {
    order.push_back(1);
    q.schedule(10, [&] { order.push_back(2); });  // due within this advance
    q.schedule(99, [&] { order.push_back(99); });
  });
  EXPECT_EQ(q.advance(10), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.pending(), 1u);
}

TEST(TimerQueue, CallbackMayCancelLaterTimer) {
  TimerQueue q;
  int fired = 0;
  TimerId victim = 0;
  q.schedule(10, [&] { q.cancel(victim); });
  victim = q.schedule(20, [&] { ++fired; });
  q.advance(100);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(q.fired(), 1u);
  EXPECT_EQ(q.cancelled(), 1u);
}

TEST(TimerQueue, PeriodicRearmKeepsSlotPoolBounded) {
  TimerQueue q;
  Time next = 1;
  std::function<void()> tick = [&] {
    if (next < 1000) q.schedule(++next, tick);
  };
  q.schedule(next, tick);
  Time now = 0;
  while (q.pending() > 0) q.advance(++now);
  EXPECT_EQ(q.fired(), 1000u);
}

TEST(TimerQueue, CancelDuringExpiryOfSameDeadlineBatch) {
  // Three timers due at the same instant fire in arm order; the first
  // cancels the second MID-EXPIRY, so the batch must deliver 1 then 3 —
  // the cancel takes effect even though the victim was already due.
  TimerQueue q;
  std::vector<int> order;
  TimerId second = 0;
  q.schedule(10, [&] {
    order.push_back(1);
    q.cancel(second);
  });
  second = q.schedule(10, [&] { order.push_back(2); });
  q.schedule(10, [&] { order.push_back(3); });
  EXPECT_EQ(q.advance(10), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(q.cancelled(), 1u);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(TimerQueue, CancelThenRearmInCallbackYieldsFreshTimer) {
  // A callback that cancels a due timer and re-arms a replacement must not
  // resurrect the cancelled one, and the replacement's id must be distinct
  // (slot generations retire stale ids).
  TimerQueue q;
  int victim_fired = 0;
  int replacement_fired = 0;
  TimerId victim = 0;
  TimerId replacement = 0;
  q.schedule(10, [&] {
    q.cancel(victim);
    replacement = q.schedule(20, [&] { ++replacement_fired; });
  });
  victim = q.schedule(15, [&] { ++victim_fired; });
  q.advance(10);
  EXPECT_NE(replacement, victim);
  q.advance(100);
  EXPECT_EQ(victim_fired, 0);
  EXPECT_EQ(replacement_fired, 1);
  // The stale victim id must not cancel the replacement's recycled slot.
  q.cancel(victim);
  EXPECT_EQ(q.cancelled(), 1u);
}

TEST(TimerQueue, RearmAfterFullDrainKeepsFiring) {
  // The queue survives going idle: drain everything, re-arm, fire again —
  // the pattern a lingering noded relies on after its own work is done.
  TimerQueue q;
  int fired = 0;
  q.schedule(5, [&] { ++fired; });
  q.advance(10);
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_FALSE(q.next_deadline().has_value());
  q.schedule(20, [&] { ++fired; });
  q.schedule(30, [&] { ++fired; });
  EXPECT_EQ(q.next_deadline(), std::optional<Time>(20));
  q.advance(50);
  EXPECT_EQ(fired, 3);
}

TEST(TimerQueue, ManyTimersRandomizedCancellation) {
  TimerQueue q;
  std::vector<TimerId> ids;
  int fired = 0;
  for (int i = 0; i < 500; ++i) {
    ids.push_back(q.schedule(static_cast<Time>(1 + (i * 7) % 100), [&] { ++fired; }));
  }
  // Cancel every third one, deterministically.
  int cancelled = 0;
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    q.cancel(ids[i]);
    ++cancelled;
  }
  q.advance(1000);
  EXPECT_EQ(fired, 500 - cancelled);
  EXPECT_EQ(q.pending(), 0u);
}

}  // namespace
}  // namespace whisper::net
