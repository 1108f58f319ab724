#include "whisper/scale.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "whisper/keypool.hpp"

namespace whisper {
namespace {

// The pool is process-wide, so each KeyPool test holds whatever pool the
// tests before it left and must pass in any order.

bool same_key(const crypto::RsaKeyPair& a, const crypto::RsaKeyPair& b) {
  return a.pub.n == b.pub.n && a.pub.e == b.pub.e && a.d == b.d && a.p == b.p &&
         a.q == b.q && a.dp == b.dp && a.dq == b.dq && a.qinv == b.qinv;
}

TEST(KeyPool, DeterministicAndDistinct) {
  const auto& a = pooled_keypair(0, 512);
  const auto& b = pooled_keypair(1, 512);
  EXPECT_NE(a.pub.n, b.pub.n);
  // Same index returns the same object.
  EXPECT_EQ(&pooled_keypair(0, 512), &a);
}

TEST(KeyPool, InOrderGrowthMatchesPerIndexKeys) {
  // In-order growth builds its batches on every usable CPU (with two or
  // more: [16, 32), [32, 64), [64, 128), [128, 256) and one from 256 on);
  // which batch or thread built a key must not show in it.
  constexpr std::size_t kKeys = 300;
  for (std::size_t i = 0; i < kKeys; ++i) pooled_keypair(i, 512);
  for (std::size_t i = 0; i < kKeys; ++i) {
    EXPECT_TRUE(same_key(pooled_keypair(i, 512), keypair_for_index(i, 512))) << "key " << i;
  }
}

TEST(KeyPool, ReferencesSurviveGrowth) {
  const crypto::RsaKeyPair* first = &pooled_keypair(0, 512);
  const crypto::BigInt n = first->pub.n;
  // Past every 512-bit index the other tests reach (at most 512), so the
  // pool grows by several batches whatever ran before.
  for (std::size_t i = 0; i < 640; ++i) pooled_keypair(i, 512);
  EXPECT_EQ(&pooled_keypair(0, 512), first);
  EXPECT_EQ(first->pub.n, n);
}

TEST(KeyPool, OutOfOrderRequestReturnsTheInOrderKey) {
  // 384-bit keys: no other test touches this pool, so the first request
  // below always lands far past its end and builds [0, 101) in one batch.
  const crypto::RsaKeyPair& far = pooled_keypair(100, 384);
  EXPECT_TRUE(same_key(far, keypair_for_index(100, 384)));
  for (std::size_t i = 0; i <= 100; ++i) {
    EXPECT_TRUE(same_key(pooled_keypair(i, 384), keypair_for_index(i, 384))) << "key " << i;
  }
  EXPECT_EQ(&pooled_keypair(100, 384), &far);
}

TEST(Testbed, SpawnsRequestedPopulation) {
  ScaleConfig cfg;
  cfg.initial_nodes = 20;
  ScaleTestbed tb(cfg);
  EXPECT_EQ(tb.alive_count(), 20u);
}

TEST(Testbed, NattedFractionRoughlyRespected) {
  ScaleConfig cfg;
  cfg.initial_nodes = 200;
  cfg.natted_fraction = 0.7;
  ScaleTestbed tb(cfg);
  const auto alive = tb.alive_nodes();
  const double public_fraction =
      static_cast<double>(std::count_if(alive.begin(), alive.end(),
                                        [](WhisperNode* n) { return n->is_public(); })) /
      200.0;
  EXPECT_NEAR(public_fraction, 0.3, 0.08);
}

TEST(Testbed, AllNattedNodesGetRelays) {
  ScaleConfig cfg;
  cfg.initial_nodes = 30;
  ScaleTestbed tb(cfg);
  tb.run_for(net::kMinute);
  for (WhisperNode* n : tb.alive_nodes()) {
    if (!n->is_public()) {
      EXPECT_FALSE(n->transport().relay_lost()) << n->id().str();
    }
  }
}

TEST(Testbed, KillNodeStopsIt) {
  ScaleConfig cfg;
  cfg.initial_nodes = 10;
  ScaleTestbed tb(cfg);
  const NodeId victim = tb.alive_nodes()[3]->id();
  tb.kill_node(tb.index_of(victim));
  EXPECT_EQ(tb.alive_count(), 9u);
  EXPECT_FALSE(tb.node_at(tb.index_of(victim))->running());
  // Double-kill is safe.
  tb.kill_node(tb.index_of(victim));
  EXPECT_EQ(tb.alive_count(), 9u);
}

TEST(Testbed, KillRandomReturnsValidId) {
  ScaleConfig cfg;
  cfg.initial_nodes = 5;
  ScaleTestbed tb(cfg);
  EXPECT_LT(tb.kill_random_node(), tb.node_count());  // a valid index, not SIZE_MAX
  EXPECT_EQ(tb.alive_count(), 4u);
}

TEST(Testbed, SpawnAfterStartJoinsOverlay) {
  ScaleConfig cfg;
  cfg.initial_nodes = 15;
  ScaleTestbed tb(cfg);
  tb.run_for(2 * net::kMinute);
  WhisperNode& fresh = tb.spawn_node();
  tb.run_for(3 * net::kMinute);
  EXPECT_GE(fresh.pss().view().size(), 3u);
  // The newcomer appears in someone's view.
  std::size_t refs = 0;
  for (WhisperNode* n : tb.alive_nodes()) {
    if (n->pss().view().contains(fresh.id())) ++refs;
  }
  EXPECT_GE(refs, 1u);
}

TEST(Testbed, DeterministicRuns) {
  auto run_digest = [] {
    ScaleConfig cfg;
    cfg.initial_nodes = 15;
    cfg.seed = 1234;
    ScaleTestbed tb(cfg);
    tb.run_for(3 * net::kMinute);
    // Digest: sum of (id, view size, exchange counts).
    std::uint64_t digest = 0;
    for (WhisperNode* n : tb.alive_nodes()) {
      digest = digest * 31 + n->id().value;
      digest = digest * 31 + n->pss().view().size();
      digest = digest * 31 + n->pss().exchanges_completed();
    }
    return digest;
  };
  EXPECT_EQ(run_digest(), run_digest());
}

TEST(Testbed, OverlaySnapshotMatchesViews) {
  ScaleConfig cfg;
  cfg.initial_nodes = 10;
  ScaleTestbed tb(cfg);
  tb.run_for(2 * net::kMinute);
  auto graph = tb.overlay_snapshot();
  EXPECT_EQ(graph.size(), tb.alive_count());
  for (WhisperNode* n : tb.alive_nodes()) {
    EXPECT_EQ(graph[n->id()].size(), n->pss().view().size());
  }
}

TEST(Testbed, BandwidthCountersPopulated) {
  ScaleConfig cfg;
  cfg.initial_nodes = 15;
  ScaleTestbed tb(cfg);
  tb.run_for(3 * net::kMinute);
  std::uint64_t total_up = 0;
  for (WhisperNode* n : tb.alive_nodes()) {
    total_up += tb.network(0).counters(n->internal_endpoint()).total_up();
  }
  EXPECT_GT(total_up, 0u);
}

}  // namespace
}  // namespace whisper
