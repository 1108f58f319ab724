// Handler-level hostile-input tests: the defense primitives in isolation,
// then live protocol instances fed malformed, replayed and flooding frames
// directly — asserting the typed reject counters move and no protocol state
// mutates on a rejected frame.
#include <gtest/gtest.h>

#include "common/guard.hpp"
#include "whisper/scale.hpp"

namespace whisper {
namespace {

// --- Defense primitives. ---

TEST(TokenBucketGuard, EnforcesRateAndBurst) {
  TokenBucket bucket(/*rate_per_sec=*/10, /*burst=*/2, /*now_us=*/0);
  EXPECT_TRUE(bucket.allow(0));
  EXPECT_TRUE(bucket.allow(0));
  EXPECT_FALSE(bucket.allow(0));  // burst exhausted
  // 10/s refills one token per 100ms.
  EXPECT_TRUE(bucket.allow(100'000));
  EXPECT_FALSE(bucket.allow(100'000));
}

TEST(TokenBucketGuard, ZeroRateDisablesLimiting) {
  TokenBucket bucket(0, 0, 0);
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(bucket.allow(0));
}

TEST(ReplayWindowGuard, RemembersFingerprintsAndEvictsFifo) {
  ReplayWindow win(/*capacity=*/4);
  for (std::uint64_t fp = 1; fp <= 4; ++fp) EXPECT_FALSE(win.seen_or_insert(fp));
  EXPECT_TRUE(win.seen_or_insert(2));  // replay detected
  // Beyond capacity the oldest fingerprints fall out, so memory stays flat.
  for (std::uint64_t fp = 5; fp <= 8; ++fp) EXPECT_FALSE(win.seen_or_insert(fp));
  EXPECT_EQ(win.size(), 4u);
  EXPECT_EQ(win.evictions(), 4u);
  EXPECT_FALSE(win.contains(1));
  EXPECT_TRUE(win.contains(8));
}

TEST(ReplayWindowGuard, ZeroCapacityDisablesSuppression) {
  ReplayWindow win(0);
  EXPECT_FALSE(win.seen_or_insert(7));
  EXPECT_FALSE(win.seen_or_insert(7));  // never reports a replay
  EXPECT_EQ(win.size(), 0u);
}

TEST(PeerGuardScoring, ReportsExactlyAtThresholdThenResets) {
  PeerGuard guard(PeerGuardConfig{0, 0, /*decode_fail_threshold=*/3, 16});
  const NodeId mallory{66};
  EXPECT_FALSE(guard.note_decode_failure(mallory, 0));
  EXPECT_FALSE(guard.note_decode_failure(mallory, 0));
  EXPECT_TRUE(guard.note_decode_failure(mallory, 0));   // strike three
  EXPECT_FALSE(guard.note_decode_failure(mallory, 0));  // streak reset
  // A well-formed frame clears a partial streak.
  guard.note_decode_failure(mallory, 0);
  guard.note_ok(mallory);
  EXPECT_FALSE(guard.note_decode_failure(mallory, 0));
  EXPECT_FALSE(guard.note_decode_failure(mallory, 0));
}

TEST(PeerGuardScoring, TrackedPeersAreHardCapped) {
  PeerGuard guard(PeerGuardConfig{1.0, 1.0, 3, /*max_peers=*/8});
  // An id-spraying attacker cannot grow per-peer state without bound.
  for (std::uint64_t id = 1; id <= 100; ++id) {
    (void)guard.admit(NodeId{id}, 0);
  }
  EXPECT_LE(guard.tracked(), 8u);
  EXPECT_EQ(guard.evictions(), 92u);
}

// --- Live PPSS instance under hostile frames. ---

constexpr GroupId kGroup{5150};
constexpr std::uint8_t kKindApp = 7;  // mirrors ppss.cpp's frame kinds

struct HostileInputFixture : ::testing::Test {
  static ScaleConfig config() {
    ScaleConfig cfg;
    cfg.initial_nodes = 30;
    cfg.node.pss.pi_min_public = 3;
    cfg.node.wcl.pi = 3;
    cfg.node.ppss.cycle = 30 * net::kSecond;
    cfg.seed = 1234;
    return cfg;
  }

  ScaleTestbed tb{config()};
  WhisperNode* alice = nullptr;
  WhisperNode* bob = nullptr;
  ppss::Ppss* alice_group = nullptr;
  ppss::Ppss* bob_group = nullptr;
  int bob_heard = 0;

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
    bob_group->on_app_message = [this](const wcl::RemotePeer&, BytesView) { ++bob_heard; };
  }

  /// A fully valid group-stripped app frame from alice (as handle_payload
  /// receives it after the node dispatcher strips the group id).
  Bytes app_frame(std::uint64_t nonce, BytesView body = to_bytes("hi")) {
    Writer w;
    w.u8(kKindApp);
    alice_group->passport().serialize(w);
    alice->wcl().self_peer().serialize(w);
    w.u64(nonce);
    w.u8(0);  // default app channel
    w.bytes(body);
    return w.data();
  }
};

TEST_F(HostileInputFixture, ValidFrameDeliversOnceReplayIsSuppressed) {
  const Bytes frame = app_frame(/*nonce=*/900);
  bob_group->handle_payload(frame);
  EXPECT_EQ(bob_heard, 1);
  const std::uint64_t replays_before = bob_group->stats().replays_suppressed;
  // Byte-identical re-injection (a captured frame) is suppressed.
  bob_group->handle_payload(frame);
  EXPECT_EQ(bob_heard, 1);
  EXPECT_EQ(bob_group->stats().replays_suppressed, replays_before + 1);
}

TEST_F(HostileInputFixture, TrailingGarbageRejectedWithoutStateChange) {
  Bytes frame = app_frame(/*nonce=*/901);
  frame.push_back(0xee);
  const std::uint64_t rejects_before = bob_group->stats().decode_rejects;
  const std::size_t view_before = bob_group->private_view().size();
  bob_group->handle_payload(frame);
  EXPECT_EQ(bob_heard, 0);
  EXPECT_EQ(bob_group->stats().decode_rejects, rejects_before + 1);
  EXPECT_EQ(bob_group->private_view().size(), view_before);
  // The nonce of the rejected frame was never consumed: the frame still
  // delivers once the garbage is stripped.
  bob_group->handle_payload(app_frame(/*nonce=*/901));
  EXPECT_EQ(bob_heard, 1);
}

TEST_F(HostileInputFixture, EveryTruncationRejectedWithoutStateChange) {
  const Bytes frame = app_frame(/*nonce=*/902);
  const std::size_t view_before = bob_group->private_view().size();
  const std::uint64_t bad_passports_before = bob_group->stats().bad_passports;
  std::uint64_t rejects_before = bob_group->stats().decode_rejects;
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    bob_group->handle_payload(BytesView(frame.data(), cut));
    // Clean rejection: counted by reason, nothing delivered, nothing grown.
    EXPECT_EQ(bob_group->stats().decode_rejects, rejects_before + 1) << "cut=" << cut;
    rejects_before = bob_group->stats().decode_rejects;
  }
  EXPECT_EQ(bob_heard, 0);
  EXPECT_EQ(bob_group->private_view().size(), view_before);
  EXPECT_EQ(bob_group->stats().bad_passports, bad_passports_before);
  // The intact frame still works after the whole truncation barrage.
  bob_group->handle_payload(frame);
  EXPECT_EQ(bob_heard, 1);
}

TEST_F(HostileInputFixture, UnknownFrameKindIsCountedBadValue) {
  const std::uint64_t rejects_before = bob_group->stats().decode_rejects;
  bob_group->handle_payload(Bytes{0x2a});
  bob_group->handle_payload(Bytes{});
  EXPECT_EQ(bob_group->stats().decode_rejects, rejects_before + 2);
}

TEST_F(HostileInputFixture, VerifiedSenderIsRateLimitedPastBurst) {
  // 200 distinct valid frames from the same (verified) member at one
  // instant: the per-peer bucket (20/s, burst 60) absorbs the burst and
  // sheds the rest, so a compromised member cannot flood the group.
  for (std::uint64_t i = 0; i < 200; ++i) {
    bob_group->handle_payload(app_frame(/*nonce=*/2000 + i));
  }
  EXPECT_GT(bob_group->stats().rate_limited, 0u);
  EXPECT_LT(bob_heard, 70);  // burst + slack, far below 200
  EXPECT_EQ(bob_heard, 200 - static_cast<int>(bob_group->stats().rate_limited));
}

TEST_F(HostileInputFixture, ForgedGossipSenderIdIsRejected) {
  // A gossip frame whose leading view entry does not match the passport's
  // node id is a spoof: rejected as kBadValue, view untouched.
  Writer w;
  w.u8(1);  // kKindGossipReq
  w.u32(1);
  alice_group->passport().serialize(w);
  w.u64(alice_group->leader_epoch());  // leader_epoch
  w.u64(0);                            // heartbeat_age_us
  w.u64(0);                            // proposal_hash
  w.node_id(kNilNode);                 // proposal_node
  w.bytes(Bytes{});                    // no rotation announcement
  // One entry claiming to be bob (mismatching alice's passport).
  w.u16(1);
  ppss::PrivateEntry entry;
  entry.peer = bob_group->self_descriptor();
  entry.age = 0;
  entry.serialize(w);
  const std::uint64_t rejects_before = bob_group->stats().decode_rejects;
  const std::size_t view_before = bob_group->private_view().size();
  bob_group->handle_payload(w.data());
  EXPECT_EQ(bob_group->stats().decode_rejects, rejects_before + 1);
  EXPECT_EQ(bob_group->private_view().size(), view_before);
}

}  // namespace
}  // namespace whisper
