// DenseMap/DenseSet: the open-addressing tables behind the per-node state
// of population-sized deployments (sim, net, nat, nylon, pss).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/densemap.hpp"
#include "common/ids.hpp"

namespace whisper {
namespace {

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
