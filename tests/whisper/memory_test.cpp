// Per-node heap at boot: what an idle simulated node costs.
//
// Boots 2,000 nodes at S=1 with per-node telemetry on and churn-20k's
// population mix (70 % behind NAT, planetlab latency, pooled keys recycled
// every 1,024 nodes), and runs nothing. The heap the testbed adds, read as
// a glibc mallinfo2 delta (in-use arena bytes plus mmapped blocks), is
// divided by the node count. Shard-wide state (simulator, network and NAT
// tables, shared metric entries) is amortised into the figure, which is
// what a population-sized run pays per node.
#include <gtest/gtest.h>
#include <malloc.h>

#include <cstddef>
#include <cstdio>

#include "whisper/keypool.hpp"
#include "whisper/scale.hpp"

namespace whisper {
namespace {

std::size_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

TEST(NodeMemory, BootedNodeHeapStaysUnderBound) {
  constexpr std::size_t kNodes = 2'000;
  constexpr std::size_t kKeyCycle = 1'024;
  // Measured 7,388 B per node with gcc 12 / glibc 2.36 on x86-64; the
  // bound leaves 15 % headroom. With a std::deque in every per-node queue
  // and metric entries that copied their name and labels, a node cost
  // 16,326 B.
  constexpr std::size_t kMaxBytesPerNode = 8'500;

  ScaleConfig cfg;
  cfg.initial_nodes = kNodes;
  cfg.shards = 1;
  cfg.natted_fraction = 0.7;
  cfg.latency = "planetlab";
  cfg.seed = 1;
  cfg.node_telemetry = true;
  cfg.key_cycle = kKeyCycle;
  // The key pool is process-wide and outlives the testbed: fill it first,
  // so its growth is not counted as node state.
  for (std::size_t i = 0; i < kKeyCycle; ++i) pooled_keypair(i, cfg.node.rsa_bits);

  const std::size_t before = heap_in_use();
  ScaleTestbed tb(cfg);
  const std::size_t after = heap_in_use();
  ASSERT_EQ(tb.node_count(), kNodes);
  ASSERT_GT(after, before);
  const std::size_t per_node = (after - before) / kNodes;
  std::printf("heap per booted node: %zu B\n", per_node);
  EXPECT_LE(per_node, kMaxBytesPerNode);
}

}  // namespace
}  // namespace whisper
