#include "ppss/ppss.hpp"

#include <gtest/gtest.h>

#include "telemetry/figures.hpp"
#include "whisper/scale.hpp"

namespace whisper::ppss {
namespace {

constexpr GroupId kGroup{1000};

crypto::RsaKeyPair fresh_group_key(std::uint64_t seed) {
  crypto::Drbg d(seed);
  return crypto::RsaKeyPair::generate(512, d);
}

ScaleConfig config(std::size_t n, std::uint64_t seed = 41) {
  ScaleConfig cfg;
  cfg.initial_nodes = n;
  cfg.node.pss.pi_min_public = 3;
  cfg.node.wcl.pi = 3;
  // Faster PPSS cycles keep test wall-clock reasonable.
  cfg.node.ppss.cycle = 30 * net::kSecond;
  cfg.seed = seed;
  return cfg;
}

// Build a testbed with one group of `members` nodes (first member founds).
struct GroupFixture {
  ScaleTestbed tb;
  std::vector<WhisperNode*> members;

  GroupFixture(std::size_t n_nodes, std::size_t n_members, std::uint64_t seed = 41)
      : tb(config(n_nodes, seed)) {
    tb.run_for(6 * net::kMinute);  // warm the substrate
    auto nodes = tb.alive_nodes();
    WhisperNode* founder = nodes[0];
    auto& founder_ppss = founder->create_group(kGroup, fresh_group_key(seed));
    members.push_back(founder);

    for (std::size_t i = 1; i < n_members; ++i) {
      WhisperNode* joiner = nodes[i];
      auto accr = founder_ppss.invite(joiner->id());
      joiner->join_group(kGroup, *accr, founder_ppss.self_descriptor());
      members.push_back(joiner);
      tb.run_for(5 * net::kSecond);
    }
  }
};

TEST(Ppss, FounderIsLeaderWithValidPassport) {
  GroupFixture f(20, 1);
  auto* g = f.members[0]->group(kGroup);
  ASSERT_NE(g, nullptr);
  EXPECT_TRUE(g->is_leader());
  EXPECT_TRUE(g->joined());
  EXPECT_TRUE(g->keyring().verify_passport(g->passport()));
}

TEST(Ppss, JoinersReceivePassports) {
  GroupFixture f(25, 5);
  f.tb.run_for(2 * net::kMinute);
  for (WhisperNode* m : f.members) {
    auto* g = m->group(kGroup);
    ASSERT_NE(g, nullptr);
    EXPECT_TRUE(g->joined()) << m->id().str();
    EXPECT_TRUE(g->keyring().verify_passport(g->passport()));
  }
}

TEST(Ppss, PrivateViewsFillWithMembers) {
  GroupFixture f(30, 8);
  f.tb.run_for(10 * net::kMinute);
  std::unordered_set<NodeId> member_ids;
  for (WhisperNode* m : f.members) member_ids.insert(m->id());
  std::size_t views_ok = 0;
  for (WhisperNode* m : f.members) {
    auto* g = m->group(kGroup);
    if (g->private_view().size() >= 2) ++views_ok;
    // Private views contain only group members.
    for (const auto& e : g->private_view().entries()) {
      EXPECT_TRUE(member_ids.contains(e.id())) << "non-member leaked into private view";
    }
  }
  EXPECT_GE(views_ok, f.members.size() - 1);
}

TEST(Ppss, NonMembersDropGroupTraffic) {
  GroupFixture f(25, 4);
  f.tb.run_for(5 * net::kMinute);
  // Non-member nodes must have no instance and no knowledge of the group.
  for (WhisperNode* n : f.tb.alive_nodes()) {
    const bool is_member =
        std::find(f.members.begin(), f.members.end(), n) != f.members.end();
    if (!is_member) {
      EXPECT_EQ(n->group(kGroup), nullptr);
    }
  }
}

TEST(Ppss, InvalidAccreditationRejected) {
  GroupFixture f(20, 1);
  auto nodes = f.tb.alive_nodes();
  WhisperNode* founder = f.members[0];
  WhisperNode* impostor = nodes[10];
  // Self-made accreditation signed by the impostor's own key.
  Accreditation fake;
  fake.group = kGroup;
  fake.node = impostor->id();
  fake.epoch = 1;
  fake.signature = crypto::rsa_sign(
      impostor->keypair(), GroupKeyring::accreditation_message(kGroup, impostor->id(), 1));
  auto& g = impostor->join_group(kGroup, fake,
                                 founder->group(kGroup)->self_descriptor());
  f.tb.run_for(3 * net::kMinute);
  EXPECT_FALSE(g.joined());
}

TEST(Ppss, AppMessagesFlowBetweenMembers) {
  GroupFixture f(25, 4);
  f.tb.run_for(8 * net::kMinute);
  auto* ga = f.members[1]->group(kGroup);
  auto* gb = f.members[2]->group(kGroup);
  ASSERT_NE(ga, nullptr);
  ASSERT_NE(gb, nullptr);

  Bytes got;
  wcl::RemotePeer got_from;
  gb->on_app_message = [&](const wcl::RemotePeer& from, BytesView p) {
    got_from = from;
    got.assign(p.begin(), p.end());
  };
  ASSERT_TRUE(ga->send_app_to(gb->self_descriptor(), to_bytes("private hello")));
  f.tb.run_for(30 * net::kSecond);
  EXPECT_EQ(got, to_bytes("private hello"));
  EXPECT_EQ(got_from.card.id, f.members[1]->id());
}

TEST(Ppss, AppReplyViaShippedDescriptor) {
  GroupFixture f(25, 4);
  f.tb.run_for(8 * net::kMinute);
  auto* ga = f.members[1]->group(kGroup);
  auto* gb = f.members[3]->group(kGroup);

  Bytes reply_received;
  ga->on_app_message = [&](const wcl::RemotePeer&, BytesView p) {
    reply_received.assign(p.begin(), p.end());
  };
  gb->on_app_message = [&](const wcl::RemotePeer& from, BytesView) {
    gb->send_app_to(from, to_bytes("pong"));
  };
  ga->send_app_to(gb->self_descriptor(), to_bytes("ping"));
  f.tb.run_for(60 * net::kSecond);
  EXPECT_EQ(reply_received, to_bytes("pong"));
}

TEST(Ppss, PersistentPeersRefreshed) {
  GroupFixture f(25, 4);
  f.tb.run_for(8 * net::kMinute);
  auto* ga = f.members[1]->group(kGroup);
  auto* gb = f.members[2]->group(kGroup);
  ga->make_persistent(gb->self_descriptor());
  EXPECT_EQ(ga->pcp_size(), 1u);
  f.tb.run_for(10 * net::kMinute);
  // Still pinned (pings answered), descriptor available.
  EXPECT_EQ(ga->pcp_size(), 1u);
  EXPECT_TRUE(ga->persistent_peer(f.members[2]->id()).has_value());
}

TEST(Ppss, PersistentPeerDroppedWhenDead) {
  GroupFixture f(25, 4);
  f.tb.run_for(8 * net::kMinute);
  auto* ga = f.members[1]->group(kGroup);
  auto* gb = f.members[2]->group(kGroup);
  ga->make_persistent(gb->self_descriptor());
  f.tb.kill_node(f.tb.index_of(f.members[2]->id()));
  f.tb.run_for(15 * net::kMinute);
  EXPECT_EQ(ga->pcp_size(), 0u);
}

TEST(Ppss, ExchangeRttReported) {
  GroupFixture f(25, 5);
  f.tb.flight(0).set_enabled(true);
  f.tb.run_for(10 * net::kMinute);
  // Completed exchange roots in the flight log carry the RTTs.
  const std::vector<std::uint64_t> rtts =
      telemetry::exchange_delays(f.tb.flight(0).assemble()).rtt_us;
  EXPECT_GT(rtts.size(), 3u);
  for (std::uint64_t rtt : rtts) {
    EXPECT_GT(rtt, 0u);
    EXPECT_LT(rtt, 15 * net::kSecond);
  }
}

TEST(Ppss, LeaderElectionAfterLeaderDeath) {
  GroupFixture f(30, 6, /*seed=*/43);
  f.tb.run_for(10 * net::kMinute);
  const std::uint64_t epoch_before = f.members[1]->group(kGroup)->leader_epoch();
  // Kill the founding leader.
  f.tb.kill_node(f.tb.index_of(f.members[0]->id()));
  // Leader timeout (5 min) + election convergence (3 cycles of 30 s) + slack.
  f.tb.run_for(25 * net::kMinute);
  // Some surviving member becomes leader and rotates the key.
  std::size_t leaders = 0;
  std::uint64_t max_epoch = 0;
  for (std::size_t i = 1; i < f.members.size(); ++i) {
    auto* g = f.members[i]->group(kGroup);
    if (g->is_leader()) ++leaders;
    max_epoch = std::max(max_epoch, g->leader_epoch());
  }
  EXPECT_GE(leaders, 1u);
  EXPECT_GT(max_epoch, epoch_before);
  // The new epoch propagates to (most) members.
  std::size_t upgraded = 0;
  for (std::size_t i = 1; i < f.members.size(); ++i) {
    if (f.members[i]->group(kGroup)->leader_epoch() == max_epoch) ++upgraded;
  }
  EXPECT_GE(upgraded, f.members.size() - 2);
}

TEST(Ppss, MultiGroupIsolation) {
  ScaleTestbed tb(config(30, 47));
  tb.run_for(6 * net::kMinute);
  auto nodes = tb.alive_nodes();
  const GroupId g1{2001}, g2{2002};
  auto& p1 = nodes[0]->create_group(g1, fresh_group_key(1));
  auto& p2 = nodes[1]->create_group(g2, fresh_group_key(2));
  // nodes[2] joins both groups.
  nodes[2]->join_group(g1, *p1.invite(nodes[2]->id()), p1.self_descriptor());
  nodes[2]->join_group(g2, *p2.invite(nodes[2]->id()), p2.self_descriptor());
  // nodes[3] joins only g1.
  nodes[3]->join_group(g1, *p1.invite(nodes[3]->id()), p1.self_descriptor());
  tb.run_for(10 * net::kMinute);

  EXPECT_TRUE(nodes[2]->group(g1)->joined());
  EXPECT_TRUE(nodes[2]->group(g2)->joined());
  EXPECT_TRUE(nodes[3]->group(g1)->joined());
  EXPECT_EQ(nodes[3]->group(g2), nullptr);
  // g1 views never contain g2-only members.
  for (const auto& e : nodes[3]->group(g1)->private_view().entries()) {
    EXPECT_NE(e.id(), nodes[1]->id());
  }
}

}  // namespace
}  // namespace whisper::ppss
