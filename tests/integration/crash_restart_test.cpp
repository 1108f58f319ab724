// Crash-restart on the simulation backend (DESIGN.md §14): the exact
// incarnation/rejoin machinery whisper_noded exercises on the UDP mesh,
// driven in virtual time. The test plays the role of the durable store:
// it captures what NodeStateStore would persist (key epochs, passport,
// accreditation, group key) before each crash and feeds it back to the
// restarted instance. Everything is deterministic — the same seed must
// produce the same recovery, byte for byte.
#include <gtest/gtest.h>

#include "whisper/scale.hpp"

namespace whisper {
namespace {

constexpr GroupId kGroup{61616};

std::vector<std::pair<std::uint64_t, crypto::RsaPublicKey>> collect_epochs(
    const ppss::GroupKeyring& keyring) {
  std::vector<std::pair<std::uint64_t, crypto::RsaPublicKey>> out;
  for (std::uint64_t e = 1; e <= keyring.latest_epoch(); ++e) {
    if (auto key = keyring.key_for(e)) out.emplace_back(e, *key);
  }
  return out;
}

struct RunResult {
  // Semantic outcomes.
  bool all_joined = false;
  bool member_restarted = false;
  bool member_rejoined = false;
  bool member_redelivered = false;
  bool leader_noticed_restart = false;
  bool leader_resumed = false;
  bool post_leader_restart_delivery = false;
  std::uint32_t member_incarnation = 0;
  // Determinism digest.
  std::uint64_t pings = 0;
  std::uint64_t pings_after_leader_restart = 0;
  std::uint64_t overlay = 0;
  std::uint64_t restarts_observed = 0;
  std::uint64_t stale_rejects = 0;

  bool operator==(const RunResult&) const = default;
};

RunResult run_once(std::uint64_t seed) {
  RunResult out;

  ScaleConfig cfg;
  cfg.initial_nodes = 25;
  cfg.node.pss.pi_min_public = 3;
  cfg.node.wcl.pi = 3;
  cfg.node.ppss.cycle = 30 * net::kSecond;
  // Every node is epoch-aware from birth, as if booted with --state-dir:
  // peers can only recognize a restart of a node whose previous life
  // advertised a nonzero incarnation.
  cfg.node.transport.incarnation = 1;
  cfg.seed = seed;
  ScaleTestbed tb(cfg);
  tb.run_for(5 * net::kMinute);

  // Found a group, enroll five members, and keep what the durable store
  // would keep: each member's accreditation and the leader's descriptor.
  auto nodes = tb.alive_nodes();
  crypto::Drbg drbg(seed ^ 0xc4a54);
  crypto::RsaKeyPair group_key = crypto::RsaKeyPair::generate(512, drbg);
  const crypto::RsaKeyPair group_key_copy = group_key;  // "persisted"
  WhisperNode* leader = nodes[0];
  auto& founded = leader->create_group(kGroup, std::move(group_key));
  const wcl::RemotePeer leader_desc = founded.self_descriptor();

  std::vector<WhisperNode*> members;
  std::vector<ppss::Accreditation> accreditations;
  for (int i = 1; i <= 5; ++i) {
    WhisperNode* m = nodes[static_cast<std::size_t>(i)];
    auto accreditation = founded.invite(m->id());
    if (!accreditation) return out;
    accreditations.push_back(*accreditation);
    m->join_group(kGroup, *accreditation, leader_desc);
    members.push_back(m);
  }
  tb.run_for(8 * net::kMinute);

  out.all_joined = true;
  for (WhisperNode* m : members) {
    auto* g = m->group(kGroup);
    if (g == nullptr || !g->joined()) out.all_joined = false;
  }
  if (!out.all_joined) return out;

  // Baseline delivery: every member pings the leader over an onion route.
  std::uint64_t pings_seen = 0;
  leader->group(kGroup)->on_app_message =
      [&pings_seen](const wcl::RemotePeer&, BytesView) { ++pings_seen; };
  for (WhisperNode* m : members) {
    m->group(kGroup)->send_app_to(leader_desc, to_bytes("ping"));
  }
  tb.run_for(2 * net::kMinute);

  // --- Crash a member. Capture what its state dir would hold, kill -9,
  // restart, resume, and re-join to re-validate the passport. ---
  WhisperNode* victim = members[2];
  const NodeId victim_id = victim->id();
  auto* victim_group = victim->group(kGroup);
  const auto epochs = collect_epochs(victim_group->keyring());
  const ppss::Passport passport = victim_group->passport();
  const ppss::Accreditation accreditation = accreditations[2];

  WhisperNode* fresh = tb.restart_node(tb.index_of(victim_id));
  if (fresh == nullptr) return out;
  out.member_restarted = true;
  out.member_incarnation = fresh->transport().incarnation();

  auto& resumed = fresh->resume_group(kGroup, epochs, passport);
  resumed.join(accreditation, leader_desc);
  tb.run_for(3 * net::kMinute);
  out.member_rejoined = resumed.joined();

  // Post-recovery delivery from the restarted incarnation.
  const std::uint64_t pings_before = pings_seen;
  resumed.send_app_to(leader_desc, to_bytes("ping"));
  tb.run_for(2 * net::kMinute);
  out.member_redelivered = pings_seen > pings_before;
  out.pings = pings_seen;

  // The leader's transport must have recognized the bumped incarnation and
  // purged the victim's stale per-peer state.
  out.leader_noticed_restart = leader->transport().peer_restarts() >= 1;

  // --- Crash the leader. Resume with the persisted group key. ---
  const auto leader_epochs = collect_epochs(founded.keyring());
  const ppss::Passport leader_passport = founded.passport();
  WhisperNode* new_leader = tb.restart_node(tb.index_of(leader->id()));
  if (new_leader == nullptr) return out;
  auto& resumed_leadership = new_leader->resume_group(
      kGroup, leader_epochs, leader_passport, group_key_copy);
  out.leader_resumed =
      resumed_leadership.is_leader() && resumed_leadership.joined();

  std::uint64_t pings_reborn = 0;
  resumed_leadership.on_app_message =
      [&pings_reborn](const wcl::RemotePeer&, BytesView) { ++pings_reborn; };
  tb.run_for(3 * net::kMinute);
  for (WhisperNode* m : members) {
    auto* g = tb.node_at(tb.index_of(m->id()))->group(kGroup);  // resolves the live instance
    if (g != nullptr) g->send_app_to(leader_desc, to_bytes("ping"));
  }
  tb.run_for(3 * net::kMinute);
  out.pings_after_leader_restart = pings_reborn;
  out.post_leader_restart_delivery = pings_reborn >= 4;  // 5 senders, allow 1 straggler

  for (WhisperNode* n : tb.alive_nodes()) {
    for (const auto& e : n->pss().view().entries()) {
      out.overlay = out.overlay * 1099511628211ull + e.id().value;
      out.overlay = out.overlay * 1099511628211ull + e.age;
    }
    out.restarts_observed += n->transport().peer_restarts();
    out.stale_rejects += n->transport().stale_incarnation_rejects();
  }
  return out;
}

TEST(CrashRestart, MemberAndLeaderRecoverWithSameIdentity) {
  const RunResult r = run_once(4242);
  EXPECT_TRUE(r.all_joined);
  EXPECT_TRUE(r.member_restarted);
  EXPECT_EQ(r.member_incarnation, 2u);
  EXPECT_TRUE(r.member_rejoined);
  EXPECT_TRUE(r.member_redelivered);
  EXPECT_TRUE(r.leader_noticed_restart);
  EXPECT_TRUE(r.leader_resumed);
  EXPECT_TRUE(r.post_leader_restart_delivery);
  // Restarts propagate: multiple peers eventually observe each bump.
  EXPECT_GE(r.restarts_observed, 2u);
}

TEST(CrashRestart, SameSeedSameRecovery) {
  const RunResult a = run_once(9191);
  const RunResult b = run_once(9191);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a.member_rejoined);
  EXPECT_TRUE(a.leader_resumed);
}

TEST(CrashRestart, DifferentSeedsDiverge) {
  const RunResult a = run_once(9191);
  const RunResult b = run_once(9192);
  EXPECT_NE(a.overlay, b.overlay);
}

}  // namespace
}  // namespace whisper
