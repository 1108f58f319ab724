// End-to-end security property tests: a wiretap on every link (the paper's
// link-observing attacker) must never see protected material.
#include <gtest/gtest.h>

#include <algorithm>

#include "whisper/scale.hpp"

namespace whisper {
namespace {

constexpr GroupId kGroup{31337};

bool contains_bytes(BytesView haystack, BytesView needle) {
  if (needle.empty() || haystack.size() < needle.size()) return false;
  return std::search(haystack.begin(), haystack.end(), needle.begin(), needle.end()) !=
         haystack.end();
}

ScaleConfig config(std::uint64_t seed) {
  ScaleConfig cfg;
  cfg.initial_nodes = 30;
  cfg.node.pss.pi_min_public = 3;
  cfg.node.wcl.pi = 3;
  cfg.node.ppss.cycle = 30 * net::kSecond;
  cfg.seed = seed;
  return cfg;
}

struct SecurityFixture : ::testing::Test {
  ScaleTestbed tb{config(777)};
  WhisperNode* alice = nullptr;
  WhisperNode* bob = nullptr;
  ppss::Ppss* alice_group = nullptr;
  ppss::Ppss* bob_group = nullptr;

  void SetUp() override {
    tb.run_for(6 * net::kMinute);
    alice = tb.alive_nodes()[0];
    bob = tb.alive_nodes()[1];
    crypto::Drbg d(1);
    alice_group = &alice->create_group(kGroup, crypto::RsaKeyPair::generate(512, d));
    bob_group = &bob->join_group(kGroup, *alice_group->invite(bob->id()),
                                 alice_group->self_descriptor());
    tb.run_for(2 * net::kMinute);
    ASSERT_TRUE(bob_group->joined());
  }
};

TEST_F(SecurityFixture, ContentNeverAppearsOnAnyLink) {
  // A distinctive 24-byte secret; watch every datagram on every link.
  const Bytes secret = to_bytes("XK-ULTRA-SECRET-PAYLOAD!");
  bool leaked = false;
  std::size_t observed = 0;
  tb.network(0).set_tap([&](const net::Datagram& d) {
    ++observed;
    if (contains_bytes(d.payload, secret)) leaked = true;
  });

  Bytes received;
  bob_group->on_app_message = [&](const wcl::RemotePeer&, BytesView p) {
    received.assign(p.begin(), p.end());
  };
  ASSERT_TRUE(alice_group->send_app_to(bob_group->self_descriptor(), secret));
  tb.run_for(net::kMinute);
  tb.network(0).set_tap(nullptr);

  EXPECT_EQ(received, secret);  // delivered end-to-end...
  EXPECT_GT(observed, 0u);
  EXPECT_FALSE(leaked);  // ...but invisible on every link, including relays
}

TEST_F(SecurityFixture, PassportNeverAppearsOnAnyLink) {
  // Membership privacy: the passport (the only proof of membership) must
  // only ever travel inside encrypted onion bodies.
  const Bytes signature = bob_group->passport().signature;
  ASSERT_GE(signature.size(), 32u);
  bool leaked = false;
  tb.network(0).set_tap([&](const net::Datagram& d) {
    if (contains_bytes(d.payload, signature)) leaked = true;
  });
  // Drive several PPSS cycles (gossip ships passports with every message).
  tb.run_for(5 * net::kMinute);
  tb.network(0).set_tap(nullptr);
  EXPECT_FALSE(leaked);
}

TEST_F(SecurityFixture, GroupKeyNeverAppearsOnAnyLink) {
  // The group public key identifies the group; it travels only inside
  // confidential channels (join responses, gossip metadata).
  const Bytes group_key = alice_group->keyring().key_for(1)->serialize();
  bool leaked = false;
  tb.network(0).set_tap([&](const net::Datagram& d) {
    if (contains_bytes(d.payload, group_key)) leaked = true;
  });
  // Fresh join while tapped: carol joins through alice.
  WhisperNode* carol = tb.alive_nodes()[2];
  auto& carol_group = carol->join_group(kGroup, *alice_group->invite(carol->id()),
                                        alice_group->self_descriptor());
  tb.run_for(3 * net::kMinute);
  tb.network(0).set_tap(nullptr);
  EXPECT_TRUE(carol_group.joined());
  EXPECT_FALSE(leaked);
}

TEST_F(SecurityFixture, NodeKeysDoAppearOnTheWire) {
  // Sanity check that the tap actually sees through cleartext: node public
  // keys are *meant* to travel openly (key sampling service), so the tap
  // must be able to find them. Guards against a vacuous leak test.
  const Bytes node_key = alice->keypair().pub.serialize();
  bool seen = false;
  tb.network(0).set_tap([&](const net::Datagram& d) {
    if (contains_bytes(d.payload, node_key)) seen = true;
  });
  tb.run_for(2 * net::kMinute);
  tb.network(0).set_tap(nullptr);
  EXPECT_TRUE(seen);
}

TEST(RelationshipAnonymity, SourceNeverTalksToDestinationDirectly) {
  // Structural relationship anonymity: with a single confidential send in
  // flight, no link on the wire connects the source and the destination
  // directly — the link-level sender (cleartext transport header / forward
  // wrapper) paired with the link-level receiver (resolved through the NAT
  // fabric) never equals (alice, bob). An observer of any one link learns
  // at most one of the two endpoints.
  ScaleTestbed tb(config(888));
  tb.run_for(6 * net::kMinute);
  WhisperNode* alice = tb.alive_nodes()[0];
  WhisperNode* bob = tb.alive_nodes()[1];

  auto resolve_receiver = [&](const net::Datagram& d) -> NodeId {
    auto internal = tb.fabric(0).inbound(d.dst, d.src);
    if (!internal) return kNilNode;
    for (WhisperNode* n : tb.alive_nodes()) {
      if (n->internal_endpoint() == *internal) return n->id();
    }
    return kNilNode;
  };
  auto parse_sender = [](const net::Datagram& d) -> NodeId {
    Reader r(d.payload);
    const std::uint8_t type = r.u8();
    if (type == 1) return r.node_id();  // transport data message: from
    return kNilNode;                    // forward wrapper: relayed below
  };

  bool linked = false;
  std::size_t wcl_datagrams = 0;
  tb.network(0).set_tap([&](const net::Datagram& d) {
    if (d.proto != net::Proto::kWcl) return;
    ++wcl_datagrams;
    if (parse_sender(d) == alice->id() && resolve_receiver(d) == bob->id()) linked = true;
  });

  bool delivered = false;
  bob->wcl().on_deliver = [&](Bytes) { delivered = true; };
  ASSERT_TRUE(alice->wcl().send_confidential(bob->wcl().self_peer(), to_bytes("unlinkable")));
  tb.run_for(net::kMinute);
  tb.network(0).set_tap(nullptr);
  bob->wcl().on_deliver = nullptr;

  EXPECT_TRUE(delivered);
  EXPECT_GE(wcl_datagrams, 3u);  // at least S->A, A->B, B->D
  EXPECT_FALSE(linked);
}

TEST_F(SecurityFixture, NonMemberNeverLearnsGroupTraffic) {
  // A non-member (even one relaying traffic) has no PPSS instance and the
  // dispatcher drops group payloads addressed to it by accident.
  for (WhisperNode* n : tb.alive_nodes()) {
    if (n == alice || n == bob) continue;
    EXPECT_EQ(n->group(kGroup), nullptr);
  }
}

TEST_F(SecurityFixture, ForgedPassportRejectedAndIgnored) {
  WhisperNode* mallory = tb.alive_nodes()[3];
  // Mallory somehow learned the group id and a member descriptor, and
  // crafts a message with a self-signed passport.
  ppss::Passport forged;
  forged.node = mallory->id();
  forged.epoch = 1;
  forged.signature = crypto::rsa_sign(
      mallory->keypair(),
      ppss::GroupKeyring::passport_message(kGroup, mallory->id(), 1));

  Writer w;
  w.group_id(kGroup);
  w.u8(7);  // kKindApp
  forged.serialize(w);
  wcl::RemotePeer mallory_desc;
  mallory_desc.card = mallory->transport().self_card();
  mallory_desc.key = mallory->keypair().pub;
  mallory_desc.serialize(w);
  w.u64(1);  // app-frame nonce
  w.u8(0);   // app channel 0
  w.bytes(to_bytes("let me in"));

  bool bob_heard = false;
  bob_group->on_app_message = [&](const wcl::RemotePeer&, BytesView) { bob_heard = true; };
  const std::uint64_t bad_before = bob_group->stats().bad_passports;
  mallory->wcl().send_confidential(bob_group->self_descriptor(), w.data());
  tb.run_for(net::kMinute);
  EXPECT_FALSE(bob_heard);
  EXPECT_GT(bob_group->stats().bad_passports, bad_before);
}

TEST_F(SecurityFixture, GarbageDatagramsDoNotCrashTheStack) {
  // Robustness: blast every node with random bytes at every protocol layer.
  Rng rng(4242);
  auto nodes = tb.alive_nodes();
  for (int i = 0; i < 300; ++i) {
    WhisperNode* victim = nodes[rng.pick_index(nodes)];
    Bytes garbage(1 + rng.next_below(200));
    rng.fill_bytes(garbage.data(), garbage.size());
    // Inject raw datagrams at the victim's public-facing endpoint.
    tb.network(0).send(alice->internal_endpoint(),
                       victim->is_public() ? victim->internal_endpoint()
                                           : victim->transport().self_card().addr,
                       garbage, net::Proto::kApp);
  }
  tb.run_for(net::kMinute);
  // Also garbage wrapped as valid transport data messages with random tags
  // and bodies reaches the upper-layer handlers.
  for (int i = 0; i < 100; ++i) {
    WhisperNode* victim = nodes[rng.pick_index(nodes)];
    Bytes garbage(1 + rng.next_below(100));
    rng.fill_bytes(garbage.data(), garbage.size());
    alice->transport().send(victim->transport().self_card(),
                            static_cast<std::uint8_t>(1 + rng.next_below(4)), garbage,
                            net::Proto::kApp);
  }
  tb.run_for(net::kMinute);
  // Still alive and gossiping.
  EXPECT_EQ(tb.alive_count(), 30u);
  std::uint64_t total_completed = 0;
  for (WhisperNode* n : nodes) total_completed += n->pss().exchanges_completed();
  EXPECT_GT(total_completed, 0u);
}

}  // namespace
}  // namespace whisper
