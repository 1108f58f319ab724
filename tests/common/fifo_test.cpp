#include "common/fifo.hpp"

#include <gtest/gtest.h>
#include <malloc.h>

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace whisper {
namespace {

template <typename T>
std::vector<T> contents(const Fifo<T>& f) {
  return std::vector<T>(f.begin(), f.end());
}

TEST(Fifo, OrderSurvivesWrapAroundAndGrowth) {
  // Mixed pushes and pops at both ends, checked against std::deque after
  // every step; the pops move the head around the ring, so later growth
  // copies out a wrapped block.
  Fifo<std::string> f;
  std::deque<std::string> ref;
  Rng rng(7);
  for (int step = 0; step < 5'000; ++step) {
    const auto op = rng.next_below(6);
    const std::string v = std::to_string(step);
    if (op <= 1) {
      f.push_back(v);
      ref.push_back(v);
    } else if (op == 2) {
      f.push_front(v);
      ref.push_front(v);
    } else if (op == 3 && !ref.empty()) {
      f.pop_front();
      ref.pop_front();
    } else if (op == 4 && !ref.empty()) {
      f.pop_back();
      ref.pop_back();
    }
    ASSERT_EQ(f.size(), ref.size());
    if (!ref.empty()) {
      ASSERT_EQ(f.front(), ref.front());
      ASSERT_EQ(f.back(), ref.back());
    }
  }
  EXPECT_EQ(contents(f), std::vector<std::string>(ref.begin(), ref.end()));
}

TEST(Fifo, GrowthWhileWrappedKeepsOrder) {
  Fifo<int> f;
  for (int i = 0; i < 4; ++i) f.push_back(i);
  ASSERT_EQ(f.capacity(), 4u);
  f.pop_front();
  f.pop_front();
  f.push_back(4);
  f.push_back(5);  // head at slot 2: the elements wrap past the block end
  ASSERT_EQ(f.capacity(), 4u);
  f.push_back(6);  // full: grows and unwraps
  EXPECT_EQ(f.capacity(), 8u);
  EXPECT_EQ(contents(f), (std::vector<int>{2, 3, 4, 5, 6}));
  for (std::size_t i = 0; i < f.size(); ++i) EXPECT_EQ(f[i], static_cast<int>(i) + 2);
}

TEST(Fifo, BoundedEvictionKeepsTheNewest) {
  // The guards' pattern: evict the front once the bound is reached.
  constexpr std::size_t kBound = 5;
  Fifo<std::uint64_t> f;
  for (std::uint64_t v = 0; v < 100; ++v) {
    if (f.size() >= kBound) f.pop_front();
    f.push_back(v);
  }
  EXPECT_EQ(contents(f), (std::vector<std::uint64_t>{95, 96, 97, 98, 99}));
  EXPECT_EQ(f.capacity(), 8u);  // a bounded queue stops growing
}

TEST(Fifo, PushFrontPopBackAsTheBacklogUsesThem) {
  // The connection backlog: freshest at the head, overflow evicted at the
  // tail.
  constexpr std::size_t kCapacity = 3;
  Fifo<int> f;
  for (int v = 1; v <= 6; ++v) {
    f.push_front(v);
    while (f.size() > kCapacity) f.pop_back();
  }
  EXPECT_EQ(contents(f), (std::vector<int>{6, 5, 4}));
  EXPECT_EQ(f.front(), 6);
  EXPECT_EQ(f.back(), 4);
}

TEST(Fifo, EraseIfKeepsOrder) {
  Fifo<int> f;
  for (int v = 0; v < 6; ++v) f.push_back(v);
  f.pop_front();
  f.pop_front();
  for (int v = 6; v < 8; ++v) f.push_back(v);  // wrapped: 2..7
  EXPECT_EQ(f.erase_if([](int v) { return v % 2 == 1; }), 3u);
  EXPECT_EQ(contents(f), (std::vector<int>{2, 4, 6}));
  EXPECT_EQ(f.erase_if([](int) { return false; }), 0u);
  EXPECT_EQ(f.erase_if([](int) { return true; }), 3u);
  EXPECT_TRUE(f.empty());
  f.push_back(9);  // the block is kept and reusable
  EXPECT_EQ(contents(f), (std::vector<int>{9}));
}

TEST(Fifo, MovesTakeTheBlock) {
  Fifo<std::string> a;
  a.push_back("x");
  a.push_back("y");
  Fifo<std::string> b = std::move(a);
  EXPECT_EQ(contents(b), (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(a.capacity(), 0u);  // NOLINT(bugprone-use-after-move)
  Fifo<std::string> c;
  c.push_back("z");
  c = std::move(b);
  EXPECT_EQ(contents(c), (std::vector<std::string>{"x", "y"}));
}

TEST(Fifo, DefaultConstructedHoldsNoHeap) {
  std::vector<Fifo<std::uint64_t>> fifos;
  fifos.reserve(256);
  const std::size_t before = mallinfo2().uordblks;
  for (int i = 0; i < 256; ++i) fifos.emplace_back();
  const std::size_t after = mallinfo2().uordblks;
  EXPECT_EQ(after, before);
  for (const auto& f : fifos) EXPECT_EQ(f.capacity(), 0u);
  fifos.front().push_back(1);
  EXPECT_GT(fifos.front().capacity(), 0u);
}

}  // namespace
}  // namespace whisper
