// FlatPool / Arena / DenseMap: the flat-state primitives behind the
// sharded 100k-node testbed. The pool tests mirror the simulator's
// slot/generation contract: exhaustion is a null handle, released slots are
// reused, and handles minted for earlier occupants go stale.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/arena.hpp"
#include "common/densemap.hpp"
#include "common/ids.hpp"
#include "common/pool.hpp"

namespace whisper {
namespace {

struct Tracked {
  static int live;
  int value;
  explicit Tracked(int v) : value(v) { ++live; }
  ~Tracked() { --live; }
};
int Tracked::live = 0;

TEST(FlatPool, AcquireGetRelease) {
  FlatPool<int> pool(4);
  const PoolHandle h = pool.acquire(42);
  ASSERT_NE(h, kNullPoolHandle);
  ASSERT_NE(pool.get(h), nullptr);
  EXPECT_EQ(*pool.get(h), 42);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_TRUE(pool.release(h));
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.get(h), nullptr);
}

TEST(FlatPool, ExhaustionReturnsNullHandle) {
  FlatPool<int> pool(2);
  const PoolHandle a = pool.acquire(1);
  const PoolHandle b = pool.acquire(2);
  ASSERT_NE(a, kNullPoolHandle);
  ASSERT_NE(b, kNullPoolHandle);
  EXPECT_TRUE(pool.full());
  EXPECT_EQ(pool.acquire(3), kNullPoolHandle);
  // Releasing makes room again.
  EXPECT_TRUE(pool.release(a));
  EXPECT_NE(pool.acquire(4), kNullPoolHandle);
}

TEST(FlatPool, HandleReuseBumpsGeneration) {
  FlatPool<int> pool(1);
  const PoolHandle first = pool.acquire(7);
  ASSERT_TRUE(pool.release(first));
  const PoolHandle second = pool.acquire(8);
  // Same slot, different generation: old handle must not resolve.
  EXPECT_EQ(static_cast<std::uint32_t>(first), static_cast<std::uint32_t>(second));
  EXPECT_NE(first, second);
  EXPECT_EQ(pool.get(first), nullptr);
  ASSERT_NE(pool.get(second), nullptr);
  EXPECT_EQ(*pool.get(second), 8);
}

TEST(FlatPool, StaleReleaseIsRejected) {
  FlatPool<int> pool(1);
  const PoolHandle h = pool.acquire(1);
  EXPECT_TRUE(pool.release(h));
  EXPECT_FALSE(pool.release(h));  // double release: stale generation
  EXPECT_FALSE(pool.release(kNullPoolHandle));
  EXPECT_FALSE(pool.release((1ull << 32) | 999));  // out-of-range slot
  EXPECT_EQ(pool.size(), 0u);
}

TEST(FlatPool, DestructorsRunOnReleaseAndClear) {
  Tracked::live = 0;
  {
    FlatPool<Tracked> pool(8);
    const PoolHandle a = pool.acquire(1);
    pool.acquire(2);
    pool.acquire(3);
    EXPECT_EQ(Tracked::live, 3);
    pool.release(a);
    EXPECT_EQ(Tracked::live, 2);
    pool.clear();
    EXPECT_EQ(Tracked::live, 0);
    pool.acquire(4);  // destroyed by pool destructor
    EXPECT_EQ(Tracked::live, 1);
  }
  EXPECT_EQ(Tracked::live, 0);
}

TEST(Arena, BumpAllocatesAndResets) {
  Arena arena(256);
  int* a = arena.allocate_array<int>(10);
  for (int i = 0; i < 10; ++i) a[i] = i;
  auto* s = arena.create<std::uint64_t>(0xdeadbeefull);
  EXPECT_EQ(*s, 0xdeadbeefull);
  EXPECT_EQ(a[9], 9);
  EXPECT_GE(arena.used(), 10 * sizeof(int) + sizeof(std::uint64_t));
  arena.reset();
  EXPECT_EQ(arena.used(), 0u);
  // Oversized request gets its own chunk rather than failing.
  std::byte* big = static_cast<std::byte*>(arena.allocate(4096));
  big[4095] = std::byte{1};
  EXPECT_GE(arena.chunk_count(), 1u);
}

TEST(Arena, AlignmentHonored) {
  Arena arena(64);
  arena.allocate(1, 1);
  void* p = arena.allocate(8, 32);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 32, 0u);
}

TEST(DenseMap, InsertFindErase) {
  DenseMap<std::uint64_t, std::string> m;
  EXPECT_TRUE(m.empty());
  m[1] = "one";
  m.insert_or_assign(2, "two");
  auto [it, fresh] = m.try_emplace(3, "three");
  EXPECT_TRUE(fresh);
  EXPECT_EQ(it->second, "three");
  EXPECT_FALSE(m.try_emplace(3, "again").second);
  EXPECT_EQ(m.size(), 3u);
  ASSERT_NE(m.find(2), m.end());
  EXPECT_EQ(m.find(2)->second, "two");
  EXPECT_TRUE(m.contains(1));
  EXPECT_EQ(m.erase(2), 1u);
  EXPECT_EQ(m.erase(2), 0u);
  EXPECT_FALSE(m.contains(2));
  EXPECT_EQ(m.size(), 2u);
}

TEST(DenseMap, GrowsThroughRehash) {
  DenseMap<std::uint32_t, std::uint32_t> m;
  for (std::uint32_t i = 0; i < 5000; ++i) m[i] = i * 3;
  EXPECT_EQ(m.size(), 5000u);
  for (std::uint32_t i = 0; i < 5000; ++i) {
    ASSERT_TRUE(m.contains(i));
    EXPECT_EQ(m.find(i)->second, i * 3);
  }
  for (std::uint32_t i = 0; i < 5000; i += 2) m.erase(i);
  EXPECT_EQ(m.size(), 2500u);
  for (std::uint32_t i = 1; i < 5000; i += 2) ASSERT_EQ(m.find(i)->second, i * 3);
  // Churn over tombstones: reinsert the erased half.
  for (std::uint32_t i = 0; i < 5000; i += 2) m[i] = i;
  EXPECT_EQ(m.size(), 5000u);
  EXPECT_EQ(m.find(4998)->second, 4998u);
}

TEST(DenseMap, SweepEraseIdiom) {
  DenseMap<int, int> m;
  for (int i = 0; i < 100; ++i) m[i] = i;
  for (auto it = m.begin(); it != m.end();) {
    if (it->second % 3 == 0) {
      it = m.erase(it);  // swap-remove: revisit the same position
    } else {
      ++it;
    }
  }
  EXPECT_EQ(m.size(), 66u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(m.contains(i), i % 3 != 0) << i;
  }
}

TEST(DenseMap, EndpointKeys) {
  DenseMap<Endpoint, int> m;
  const Endpoint a{0x0a000001, 5000};
  const Endpoint b{0x0a000002, 5000};
  m[a] = 1;
  m[b] = 2;
  EXPECT_EQ(m.find(a)->second, 1);
  EXPECT_EQ(m.find(b)->second, 2);
  m.erase(a);
  EXPECT_FALSE(m.contains(a));
  EXPECT_TRUE(m.contains(b));
}

struct ConstantHash {
  std::size_t operator()(std::uint32_t) const { return 7; }
};

TEST(DenseMap, ProbeStatsSeeCollisions) {
  DenseMap<std::uint32_t, int, ConstantHash> m;
  EXPECT_EQ(m.probe_stats().max, 0u);
  for (std::uint32_t i = 0; i < 100; ++i) m[i] = 0;
  const auto st = m.probe_stats();
  EXPECT_EQ(st.max, 99u);
  EXPECT_DOUBLE_EQ(st.mean, 49.5);
}

/// Fills maps of 1k, 20k and 100k keys and checks that every key sits near
/// its home bucket.
template <typename MakeKey>
void expect_short_probes(MakeKey make_key) {
  for (const std::uint32_t n : {1'000u, 20'000u, 100'000u}) {
    DenseMap<decltype(make_key(0u)), std::uint32_t> m;
    for (std::uint32_t i = 0; i < n; ++i) m[make_key(i)] = i;
    ASSERT_EQ(m.size(), n);
    const auto st = m.probe_stats();
    EXPECT_LT(st.mean, 2.0) << "n=" << n;
    EXPECT_LT(st.max, 128u) << "n=" << n;
  }
}

// ScaleTestbed's address plan. Unmixed, std::hash<Endpoint> is
// (ip << 16) | 5000 and every key starts probing at the same bucket.
TEST(DenseMap, ProbeStatsEndpointKeys) {
  expect_short_probes([](std::uint32_t i) { return Endpoint{0x0a000001u + i, 5000}; });
}

TEST(DenseMap, ProbeStatsDeviceIps) {
  expect_short_probes([](std::uint32_t i) { return 0x64000001u + 2 * i; });
}

TEST(DenseMap, ProbeStatsNodeIds) {
  expect_short_probes([](std::uint32_t i) { return NodeId{i + 1u}; });
}

TEST(DenseSet, BasicOps) {
  DenseSet<NodeId> s;
  EXPECT_TRUE(s.insert(NodeId{1}));
  EXPECT_FALSE(s.insert(NodeId{1}));
  EXPECT_TRUE(s.insert(NodeId{2}));
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.contains(NodeId{1}));
  EXPECT_EQ(s.erase(NodeId{1}), 1u);
  EXPECT_FALSE(s.contains(NodeId{1}));
}

}  // namespace
}  // namespace whisper
