// PPSS edge cases: join failure paths, malformed payloads, and group
// bookkeeping corners.
#include <gtest/gtest.h>

#include "whisper/scale.hpp"

namespace whisper::ppss {
namespace {

constexpr GroupId kGroup{70707};

crypto::RsaKeyPair fresh_key(std::uint64_t seed) {
  crypto::Drbg d(seed);
  return crypto::RsaKeyPair::generate(512, d);
}

struct EdgeFixture : ::testing::Test {
  ScaleConfig cfg = [] {
    ScaleConfig c;
    c.initial_nodes = 25;
    c.node.pss.pi_min_public = 3;
    c.node.wcl.pi = 3;
    c.node.ppss.cycle = 30 * net::kSecond;
    c.seed = 808;
    return c;
  }();
  ScaleTestbed tb{cfg};

  void SetUp() override { tb.run_for(6 * net::kMinute); }
};

TEST_F(EdgeFixture, JoinGivesUpAfterRetriesWhenLeaderUnreachable) {
  WhisperNode* joiner = tb.alive_nodes()[5];
  // Entry point descriptor for a node that does not exist.
  wcl::RemotePeer ghost;
  ghost.card.id = NodeId{999999};
  ghost.card.is_public = true;
  ghost.card.addr = Endpoint{0x7f000001, 1};
  ghost.key = joiner->keypair().pub;

  Accreditation accr;  // contents are irrelevant: nothing will answer
  accr.group = kGroup;
  accr.node = joiner->id();
  auto& g = joiner->join_group(kGroup, accr, ghost);
  tb.run_for(5 * net::kMinute);
  EXPECT_FALSE(g.joined());
}

// A join whose entry point never answers is given up after its retries,
// and the give-up is counted once, on the node and in the registry.
TEST_F(EdgeFixture, AbandonedJoinIsCounted) {
  WhisperNode* joiner = tb.alive_nodes()[5];
  wcl::RemotePeer ghost;  // an entry point that does not exist
  ghost.card.id = NodeId{999999};
  ghost.card.is_public = true;
  ghost.card.addr = Endpoint{0x7f000001, 1};
  ghost.key = joiner->keypair().pub;

  Accreditation accr;
  accr.group = kGroup;
  accr.node = joiner->id();
  auto& g = joiner->join_group(kGroup, accr, ghost);
  EXPECT_EQ(tb.registry(0).counter_value("ppss.joins.abandoned"), 0u);
  tb.run_for(5 * net::kMinute);
  EXPECT_FALSE(g.joined());
  EXPECT_EQ(g.stats().joins_abandoned, 1u);
  EXPECT_EQ(tb.registry(0).counter_value("ppss.joins.abandoned"), 1u);
}

TEST_F(EdgeFixture, NonLeaderDropsJoinRequests) {
  WhisperNode* founder = tb.alive_nodes()[0];
  WhisperNode* member = tb.alive_nodes()[1];
  WhisperNode* joiner = tb.alive_nodes()[2];
  auto& fg = founder->create_group(kGroup, fresh_key(1));
  auto& mg = member->join_group(kGroup, *fg.invite(member->id()), fg.self_descriptor());
  tb.run_for(2 * net::kMinute);
  ASSERT_TRUE(mg.joined());
  ASSERT_FALSE(mg.is_leader());

  // Joining through the non-leader member silently fails (it cannot issue
  // passports; the paper routes joins to leaders).
  auto& jg = joiner->join_group(kGroup, *fg.invite(joiner->id()), mg.self_descriptor());
  tb.run_for(4 * net::kMinute);
  EXPECT_FALSE(jg.joined());
}

TEST_F(EdgeFixture, MalformedGroupPayloadsIgnored) {
  WhisperNode* founder = tb.alive_nodes()[0];
  WhisperNode* member = tb.alive_nodes()[1];
  auto& fg = founder->create_group(kGroup, fresh_key(2));
  auto& mg = member->join_group(kGroup, *fg.invite(member->id()), fg.self_descriptor());
  tb.run_for(2 * net::kMinute);
  ASSERT_TRUE(mg.joined());

  // Random garbage at every PPSS message kind.
  Rng rng(3);
  for (std::uint8_t kind = 0; kind <= 9; ++kind) {
    Bytes garbage(1 + rng.next_below(80));
    rng.fill_bytes(garbage.data(), garbage.size());
    garbage.insert(garbage.begin(), kind);
    mg.handle_payload(garbage);
  }
  mg.handle_payload(Bytes{});
  tb.run_for(net::kMinute);
  // Still operational.
  EXPECT_TRUE(mg.joined());
  Bytes got;
  fg.on_app_message = [&](const wcl::RemotePeer&, BytesView p) {
    got.assign(p.begin(), p.end());
  };
  mg.send_app_to(fg.self_descriptor(), to_bytes("fine"));
  tb.run_for(net::kMinute);
  EXPECT_EQ(got, to_bytes("fine"));
}

TEST_F(EdgeFixture, SendAppToUnknownMemberFails) {
  WhisperNode* founder = tb.alive_nodes()[0];
  auto& fg = founder->create_group(kGroup, fresh_key(4));
  EXPECT_FALSE(fg.send_app(NodeId{123456}, to_bytes("hello?")));
}

TEST_F(EdgeFixture, SendAppBeforeJoiningFails) {
  WhisperNode* founder = tb.alive_nodes()[0];
  WhisperNode* outsider = tb.alive_nodes()[1];
  auto& fg = founder->create_group(kGroup, fresh_key(5));
  // Instance created but join never completes (no request sent at all).
  auto& og = outsider->join_group(kGroup, Accreditation{}, fg.self_descriptor());
  tb.run_for(net::kMinute);
  EXPECT_FALSE(og.joined());
  EXPECT_FALSE(og.send_app_to(fg.self_descriptor(), to_bytes("psst")));
}

TEST_F(EdgeFixture, InviteRequiresLeadership) {
  WhisperNode* founder = tb.alive_nodes()[0];
  WhisperNode* member = tb.alive_nodes()[1];
  auto& fg = founder->create_group(kGroup, fresh_key(6));
  auto& mg = member->join_group(kGroup, *fg.invite(member->id()), fg.self_descriptor());
  tb.run_for(2 * net::kMinute);
  ASSERT_TRUE(mg.joined());
  EXPECT_TRUE(fg.invite(NodeId{42}).has_value());
  EXPECT_FALSE(mg.invite(NodeId{42}).has_value());
}

TEST_F(EdgeFixture, DuplicateJoinIsIdempotent) {
  WhisperNode* founder = tb.alive_nodes()[0];
  WhisperNode* member = tb.alive_nodes()[1];
  auto& fg = founder->create_group(kGroup, fresh_key(7));
  auto accr = *fg.invite(member->id());
  auto& g1 = member->join_group(kGroup, accr, fg.self_descriptor());
  tb.run_for(2 * net::kMinute);
  ASSERT_TRUE(g1.joined());
  // Joining again reuses the same instance and stays joined.
  auto& g2 = member->join_group(kGroup, accr, fg.self_descriptor());
  EXPECT_EQ(&g1, &g2);
  tb.run_for(2 * net::kMinute);
  EXPECT_TRUE(g2.joined());
  EXPECT_EQ(member->group_count(), 1u);
}

}  // namespace
}  // namespace whisper::ppss
