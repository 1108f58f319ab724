#include "nylon/pss.hpp"

#include <gtest/gtest.h>

#include "pss/metrics.hpp"
#include "whisper/scale.hpp"

namespace whisper::nylon {
namespace {

ScaleConfig small_config(std::size_t n, std::size_t pi = 0) {
  ScaleConfig cfg;
  cfg.initial_nodes = n;
  cfg.node.pss.pi_min_public = pi;
  cfg.node.rsa_bits = 512;
  cfg.seed = 11;
  return cfg;
}

TEST(NylonPss, ViewsFillUp) {
  ScaleTestbed tb(small_config(30));
  tb.run_for(2 * net::kMinute);
  for (WhisperNode* n : tb.alive_nodes()) {
    EXPECT_GE(n->pss().view().size(), 5u) << n->id().str();
  }
}

TEST(NylonPss, ExchangesComplete) {
  ScaleTestbed tb(small_config(30));
  tb.run_for(3 * net::kMinute);
  std::uint64_t initiated = 0, completed = 0;
  for (WhisperNode* n : tb.alive_nodes()) {
    initiated += n->pss().exchanges_initiated();
    completed += n->pss().exchanges_completed();
  }
  EXPECT_GT(initiated, 0u);
  // The overwhelming majority of exchanges succeed in a stable network.
  EXPECT_GT(static_cast<double>(completed), 0.8 * static_cast<double>(initiated));
}

TEST(NylonPss, OverlayConnected) {
  ScaleTestbed tb(small_config(40));
  tb.run_for(5 * net::kMinute);
  auto graph = tb.overlay_snapshot();
  const double reachable = pss::reachable_fraction(graph, tb.alive_nodes()[0]->id());
  EXPECT_GT(reachable, 0.95);
}

TEST(NylonPss, ViewsContainNoSelfEntries) {
  ScaleTestbed tb(small_config(20));
  tb.run_for(3 * net::kMinute);
  for (WhisperNode* n : tb.alive_nodes()) {
    EXPECT_FALSE(n->pss().view().contains(n->id()));
  }
}

TEST(NylonPss, PiBiasKeepsPublicNodesInViews) {
  ScaleTestbed tb(small_config(50, /*pi=*/3));
  tb.run_for(5 * net::kMinute);
  std::size_t satisfied = 0, total = 0;
  for (WhisperNode* n : tb.alive_nodes()) {
    ++total;
    if (n->pss().view().count_public() >= 3) ++satisfied;
  }
  // Nearly all nodes keep >= Π P-nodes in the view.
  EXPECT_GT(static_cast<double>(satisfied), 0.9 * static_cast<double>(total));
}

TEST(NylonPss, FailedNodesHealedFromViews) {
  ScaleTestbed tb(small_config(30));
  tb.run_for(3 * net::kMinute);
  // Kill a node and let the protocol heal.
  const NodeId victim = tb.alive_nodes()[5]->id();
  tb.kill_node(tb.index_of(victim));
  tb.run_for(5 * net::kMinute);
  std::size_t refs = 0;
  for (WhisperNode* n : tb.alive_nodes()) {
    if (n->pss().view().contains(victim)) ++refs;
  }
  // The dead node disappears from (nearly) all views within a few cycles.
  EXPECT_LE(refs, 2u);
}

TEST(NylonPss, NattedNodeRepairsLostRelay) {
  ScaleTestbed tb(small_config(30));
  tb.run_for(3 * net::kMinute);
  // Find a natted node and kill its relay.
  WhisperNode* natted = nullptr;
  for (WhisperNode* n : tb.alive_nodes()) {
    if (!n->is_public()) {
      natted = n;
      break;
    }
  }
  ASSERT_NE(natted, nullptr);
  const NodeId old_relay = natted->transport().relay_id();
  ASSERT_FALSE(old_relay.is_nil());
  tb.kill_node(tb.index_of(old_relay));
  tb.run_for(10 * net::kMinute);
  EXPECT_FALSE(natted->transport().relay_lost());
  EXPECT_NE(natted->transport().relay_id(), old_relay);
}

TEST(NylonPss, InDegreeBalancedWithoutBias) {
  ScaleTestbed tb(small_config(60));
  tb.run_for(6 * net::kMinute);
  auto graph = tb.overlay_snapshot();
  auto degrees = pss::in_degrees(graph);
  double sum = 0;
  std::int64_t max_deg = 0;
  for (const auto& [id, d] : degrees) {
    sum += static_cast<double>(d);
    max_deg = std::max(max_deg, d);
  }
  const double mean = sum / static_cast<double>(degrees.size());
  EXPECT_GT(mean, 5.0);
  // No node should be wildly over-referenced in a healthy random overlay.
  EXPECT_LT(static_cast<double>(max_deg), mean * 6);
}

}  // namespace
}  // namespace whisper::nylon
