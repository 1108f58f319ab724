// Long-running full-stack soak: the entire WHISPER stack under sustained
// churn must keep the overlay connected, the group communicating, and the
// Π invariants holding — the paper's operating regime compressed into one
// test.
#include <gtest/gtest.h>

#include "churn/churn.hpp"
#include "pss/metrics.hpp"
#include "whisper/scale.hpp"

namespace whisper {
namespace {

constexpr GroupId kGroup{60606};

TEST(Soak, FullStackSurvivesSustainedChurn) {
  ScaleConfig cfg;
  cfg.initial_nodes = 80;
  cfg.natted_fraction = 0.7;
  cfg.node.pss.pi_min_public = 3;
  cfg.node.wcl.pi = 3;
  cfg.node.ppss.cycle = 30 * net::kSecond;
  cfg.seed = 4242;
  ScaleTestbed tb(cfg);
  tb.run_for(5 * net::kMinute);

  // One private group led by a protected P-node; a third of nodes join.
  WhisperNode* leader_node = tb.alive_nodes()[0];  // node 1 is always public
  crypto::Drbg d(1);
  ppss::Ppss& leader = leader_node->create_group(kGroup, crypto::RsaKeyPair::generate(512, d));
  Rng rng(7);
  std::size_t joined = 0;
  for (WhisperNode* n : tb.alive_nodes()) {
    if (n == leader_node || joined >= 25) continue;
    n->join_group(kGroup, *leader.invite(n->id()), leader.self_descriptor());
    ++joined;
  }
  tb.run_for(5 * net::kMinute);

  // Sustained 2%/min churn for 30 simulated minutes (group members and the
  // leader are spared so the group itself persists; the substrate below
  // them churns freely).
  std::unordered_set<NodeId> protected_ids{leader_node->id()};
  for (WhisperNode* n : tb.alive_nodes()) {
    if (n->group(kGroup) != nullptr) protected_ids.insert(n->id());
  }
  churn::ChurnEngine engine(
      tb.simulator(0),
      [&](std::size_t n) {
        std::size_t killed = 0;
        for (std::size_t i = 0; i < n; ++i) {
          for (int tries = 0; tries < 20; ++tries) {
            auto alive = tb.alive_nodes();
            WhisperNode* victim = alive[rng.pick_index(alive)];
            if (protected_ids.contains(victim->id())) continue;
            tb.kill_node(tb.index_of(victim->id()));
            ++killed;
            break;
          }
        }
        return killed;
      },
      [&](std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) tb.spawn_node();
      },
      [&] { return tb.alive_count(); });
  churn::ChurnPhase phase;
  phase.start = tb.now();
  phase.end = phase.start + 30 * net::kMinute;
  phase.leave_fraction = 0.02;
  engine.schedule(phase);
  tb.run_for(30 * net::kMinute);

  EXPECT_GT(engine.total_killed(), 30u);  // churn actually happened

  // 1. Population stable (100% replacement).
  EXPECT_NEAR(static_cast<double>(tb.alive_count()), 80.0, 8.0);

  // 2. Overlay still connected and healthy.
  auto graph = tb.overlay_snapshot();
  EXPECT_GT(pss::reachable_fraction(graph, leader_node->id()), 0.9);

  // 3. No stale references: views point (almost) only at live nodes.
  std::size_t total_refs = 0, dead_refs = 0;
  for (WhisperNode* n : tb.alive_nodes()) {
    for (const auto& e : n->pss().view().entries()) {
      ++total_refs;
      WhisperNode* target = tb.node_at(tb.index_of(e.id()));
      if (target == nullptr || !target->running()) ++dead_refs;
    }
  }
  EXPECT_LT(static_cast<double>(dead_refs), 0.2 * static_cast<double>(total_refs));

  // 4. N-nodes all have live relays.
  for (WhisperNode* n : tb.alive_nodes()) {
    if (!n->is_public()) {
      EXPECT_FALSE(n->transport().relay_lost()) << n->id().str();
    }
  }

  // 5. The group still communicates confidentially end-to-end.
  std::vector<ppss::Ppss*> members;
  for (WhisperNode* n : tb.alive_nodes()) {
    if (auto* g = n->group(kGroup); g != nullptr && g->joined()) members.push_back(g);
  }
  ASSERT_GE(members.size(), 2u);
  Bytes got;
  members[1]->on_app_message = [&](const wcl::RemotePeer&, BytesView p) {
    got.assign(p.begin(), p.end());
  };
  EXPECT_TRUE(members[0]->send_app_to(members[1]->self_descriptor(), to_bytes("still here")));
  tb.run_for(net::kMinute);
  EXPECT_EQ(got, to_bytes("still here"));
}

TEST(Soak, NetworkDrainsCleanly) {
  // After stopping every node, pending events drain without touching any
  // dead object (teardown safety under the simulator).
  ScaleConfig cfg;
  cfg.initial_nodes = 30;
  cfg.seed = 555;
  ScaleTestbed tb(cfg);
  tb.run_for(3 * net::kMinute);
  for (WhisperNode* n : tb.alive_nodes()) tb.kill_node(tb.index_of(n->id()));
  EXPECT_EQ(tb.alive_count(), 0u);
  // Drain everything still queued (timers were cancelled; deliveries drop).
  tb.run_for(10 * net::kMinute);
  EXPECT_EQ(tb.network(0).packets_delivered(), tb.network(0).packets_delivered());
}

}  // namespace
}  // namespace whisper
