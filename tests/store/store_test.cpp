// Durable-store tests (DESIGN.md §14): snapshot atomicity across a crash
// before the rename, every commit surviving a reopen, the peer-hint cap on
// write, and full NodeState round-trips including keys that must keep
// signing after restore.
#include "store/state.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <unistd.h>

#include "common/file.hpp"
#include "crypto/random.hpp"
#include "crypto/rsa.hpp"
#include "ppss/group.hpp"

namespace whisper::store {
namespace {

/// Fresh scratch directory per test, removed on teardown.
struct StoreTest : ::testing::Test {
  std::string dir;

  void SetUp() override {
    char tmpl[] = "/tmp/whisper_store_test.XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir = tmpl;
  }
  void TearDown() override {
    const std::string cmd = "rm -rf '" + dir + "'";
    if (dir.rfind("/tmp/whisper_store_test.", 0) == 0) (void)!std::system(cmd.c_str());
  }

  std::string path(const std::string& base) const { return dir + "/" + base; }

  static Bytes file_bytes(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    Bytes out((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    return out;
  }

  static void write_bytes(const std::string& p, BytesView data) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
  }
};

// --- Atomic file writes. ---

TEST_F(StoreTest, AtomicWriteFileRoundTrips) {
  const std::string p = path("blob.bin");
  const Bytes data{1, 2, 3, 250, 251, 252};
  std::string error;
  ASSERT_TRUE(atomic_write_file(p, data, &error)) << error;
  EXPECT_EQ(read_file(p), std::optional<Bytes>(data));
  // Overwrite atomically; no temp file debris survives.
  const Bytes next{9, 9, 9};
  ASSERT_TRUE(atomic_write_file(p, next, &error)) << error;
  EXPECT_EQ(read_file(p), std::optional<Bytes>(next));
  EXPECT_NE(::access(p.c_str(), F_OK), -1);
  EXPECT_EQ(::access((p + ".tmp").c_str(), F_OK), -1);
}

// --- NodeState serialization. ---

NodeState sample_state(std::uint64_t seed) {
  crypto::Drbg drbg(seed);
  NodeState st;
  st.id = NodeId{42};
  st.is_public = true;
  st.endpoint = Endpoint{(127u << 24) | 1, 40123};
  st.incarnation = 3;
  st.identity = crypto::RsaKeyPair::generate(512, drbg);

  crypto::RsaKeyPair group_key = crypto::RsaKeyPair::generate(512, drbg);
  StoredGroup leader_side;
  leader_side.group = GroupId{7};
  leader_side.is_leader = true;
  leader_side.epochs.emplace_back(1, group_key.pub);
  leader_side.passport = ppss::issue_passport(GroupId{7}, 1, NodeId{42}, group_key);
  leader_side.group_key = group_key;
  st.groups.push_back(leader_side);

  StoredGroup member_side;
  member_side.group = GroupId{8};
  member_side.epochs.emplace_back(1, group_key.pub);
  member_side.epochs.emplace_back(2, st.identity.pub);
  member_side.passport = ppss::issue_passport(GroupId{8}, 1, NodeId{42}, group_key);
  member_side.accreditation =
      ppss::issue_accreditation(GroupId{8}, 1, NodeId{42}, group_key);
  wcl::RemotePeer entry;
  entry.card.id = NodeId{1};
  entry.card.addr = Endpoint{(127u << 24) | 1, 40001};
  entry.card.is_public = true;
  entry.key = group_key.pub;
  st.groups.push_back(member_side);
  st.groups.back().entry_point = entry;

  st.peer_hints.push_back(pss::ContactCard{NodeId{5},
                                           Endpoint{(10u << 24) | 9, 5555},
                                           false, NodeId{6}});
  return st;
}

TEST_F(StoreTest, NodeStateRoundTripsEveryField) {
  const NodeState st = sample_state(101);
  DecodeError why = DecodeError::kNone;
  const auto back = NodeState::deserialize(st.serialize(), &why);
  ASSERT_TRUE(back.has_value()) << static_cast<int>(why);
  EXPECT_EQ(back->id, st.id);
  EXPECT_EQ(back->is_public, st.is_public);
  EXPECT_EQ(back->endpoint, st.endpoint);
  EXPECT_EQ(back->incarnation, st.incarnation);
  ASSERT_EQ(back->groups.size(), 2u);
  const StoredGroup& lg = back->groups[0];
  EXPECT_TRUE(lg.is_leader);
  ASSERT_TRUE(lg.group_key.has_value());
  EXPECT_FALSE(lg.accreditation.has_value());
  const StoredGroup& mg = back->groups[1];
  EXPECT_FALSE(mg.is_leader);
  ASSERT_EQ(mg.epochs.size(), 2u);
  EXPECT_EQ(mg.epochs[1].first, 2u);
  ASSERT_TRUE(mg.accreditation.has_value());
  ASSERT_TRUE(mg.entry_point.has_value());
  EXPECT_EQ(mg.entry_point->card.id, NodeId{1});
  ASSERT_EQ(back->peer_hints.size(), 1u);
  EXPECT_EQ(back->peer_hints[0], st.peer_hints[0]);

  // Restored passports must still verify against the restored keyring —
  // that is the whole point of persisting the epoch history.
  ppss::GroupKeyring keyring(mg.group);
  for (const auto& [epoch, key] : mg.epochs) keyring.add_epoch(epoch, key);
  EXPECT_TRUE(keyring.verify_passport(mg.passport));
}

TEST_F(StoreTest, RestoredIdentityKeypairStillSigns) {
  const NodeState st = sample_state(202);
  const auto back = NodeState::deserialize(st.serialize());
  ASSERT_TRUE(back.has_value());
  // Sign with the restored private key, verify with the ORIGINAL public
  // key: all CRT components survived the round trip.
  const Bytes msg = to_bytes("still me after kill -9");
  const Bytes sig = crypto::rsa_sign(back->identity, msg);
  EXPECT_TRUE(crypto::rsa_verify(st.identity.pub, msg, sig));
}

TEST_F(StoreTest, NodeStateRejectsDamage) {
  const NodeState st = sample_state(303);
  const Bytes good = st.serialize();
  DecodeError why = DecodeError::kNone;

  Bytes bad_magic = good;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(NodeState::deserialize(bad_magic, &why).has_value());

  Bytes trailing = good;
  trailing.push_back(0);
  EXPECT_FALSE(NodeState::deserialize(trailing, &why).has_value());

  Bytes truncated(good.begin(), good.begin() + static_cast<long>(good.size() / 2));
  EXPECT_FALSE(NodeState::deserialize(truncated, &why).has_value());

  EXPECT_FALSE(NodeState::deserialize(Bytes{}, &why).has_value());
}

TEST_F(StoreTest, DamagedIdentityIsRejected) {
  // The snapshot has no whole-file checksum: a damaged keypair must fail
  // to decode rather than restore a key that signs and decrypts wrongly.
  const NodeState st = sample_state(404);
  auto rejected = [](const NodeState& damaged) {
    DecodeError why = DecodeError::kNone;
    return !NodeState::deserialize(damaged.serialize(), &why).has_value() &&
           why == DecodeError::kBadValue;
  };
  NodeState even_p = st;
  even_p.identity.p = st.identity.p - crypto::BigInt{1};  // one flipped low bit
  EXPECT_TRUE(rejected(even_p));
  NodeState wrong_q = st;
  wrong_q.identity.q = st.identity.q + crypto::BigInt{2};  // odd, but p*q != n
  EXPECT_TRUE(rejected(wrong_q));
  NodeState even_n = st;
  even_n.identity.pub.n = st.identity.pub.n - crypto::BigInt{1};
  EXPECT_TRUE(rejected(even_n));
  NodeState unit_n = st;
  unit_n.identity.pub.n = crypto::BigInt{1};
  unit_n.identity.p = unit_n.identity.q = crypto::BigInt{};
  EXPECT_TRUE(rejected(unit_n));
  NodeState damaged_group_key = st;
  damaged_group_key.groups[0].group_key->p = st.identity.p;  // p*q != n
  EXPECT_TRUE(rejected(damaged_group_key));
  // One flipped low bit in any other field (dp, dq and qinv are used by
  // every private op; e and d are checked through them and a probe).
  auto flip_low_bit = [](crypto::BigInt& v) {
    v = v.is_odd() ? v - crypto::BigInt{1} : v + crypto::BigInt{1};
  };
  for (std::size_t f = 0; f < 5; ++f) {
    NodeState damaged = st;
    crypto::RsaKeyPair& k = damaged.identity;
    crypto::BigInt* fields[] = {&k.dp, &k.dq, &k.qinv, &k.d, &k.pub.e};
    flip_low_bit(*fields[f]);
    EXPECT_TRUE(rejected(damaged)) << "field " << f;
  }

  // A keypair without CRT material (n, e, d only) still restores.
  NodeState plain = st;
  plain.identity.p = plain.identity.q = crypto::BigInt{};
  plain.identity.dp = plain.identity.dq = plain.identity.qinv = crypto::BigInt{};
  const auto back = NodeState::deserialize(plain.serialize());
  ASSERT_TRUE(back.has_value());
  const Bytes msg = to_bytes("no CRT, same signature");
  EXPECT_EQ(crypto::rsa_sign(back->identity, msg), crypto::rsa_sign(st.identity, msg));
  NodeState plain_bad_d = plain;
  flip_low_bit(plain_bad_d.identity.d);
  EXPECT_TRUE(rejected(plain_bad_d));

  // And open() reports the damage instead of trusting the snapshot.
  {
    NodeStateStore store;
    ASSERT_TRUE(store.open(dir));
    store.state() = even_p;
    ASSERT_TRUE(store.commit());
  }
  NodeStateStore store;
  EXPECT_FALSE(store.open(dir));
  EXPECT_NE(store.last_error().find("badvalue"), std::string::npos) << store.last_error();
}

// --- NodeStateStore: one snapshot file over a directory. ---

TEST_F(StoreTest, FreshDirectoryHasNoState) {
  NodeStateStore store;
  ASSERT_TRUE(store.open(dir + "/fresh")) << store.last_error();
  EXPECT_FALSE(store.has_state());
}

TEST_F(StoreTest, SnapshotCommitSurvivesReopen) {
  {
    NodeStateStore store;
    ASSERT_TRUE(store.open(dir)) << store.last_error();
    store.state() = sample_state(404);
    ASSERT_TRUE(store.commit()) << store.last_error();
  }
  NodeStateStore store;
  ASSERT_TRUE(store.open(dir)) << store.last_error();
  ASSERT_TRUE(store.has_state());
  EXPECT_EQ(store.state().id, NodeId{42});
  EXPECT_EQ(store.state().incarnation, 3u);
  ASSERT_EQ(store.state().groups.size(), 2u);
}

TEST_F(StoreTest, EveryCommitSurvivesReopen) {
  {
    NodeStateStore store;
    ASSERT_TRUE(store.open(dir)) << store.last_error();
    store.state() = sample_state(505);
    store.state().incarnation = 1;
    ASSERT_TRUE(store.commit());
    // The writes a node makes after its first boot: a restart bump, a group
    // update, fresh hints — each one a whole-state commit.
    store.state().incarnation = 2;
    ASSERT_TRUE(store.commit()) << store.last_error();
    store.state().groups[1].epochs.emplace_back(3, store.state().identity.pub);
    ASSERT_TRUE(store.commit());
    store.state().peer_hints = {pss::ContactCard{
        NodeId{77}, Endpoint{(127u << 24) | 1, 7777}, true, kNilNode}};
    ASSERT_TRUE(store.commit());
  }
  NodeStateStore store;
  ASSERT_TRUE(store.open(dir)) << store.last_error();
  ASSERT_TRUE(store.has_state());
  EXPECT_EQ(store.state().incarnation, 2u);
  ASSERT_EQ(store.state().groups.size(), 2u);
  EXPECT_EQ(store.state().groups[1].epochs.size(), 3u);
  ASSERT_EQ(store.state().peer_hints.size(), 1u);
  EXPECT_EQ(store.state().peer_hints[0].id, NodeId{77});
  // The directory holds the snapshot and nothing else.
  std::vector<std::string> files;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    files.push_back(e.path().filename().string());
  }
  EXPECT_EQ(files, std::vector<std::string>{"snapshot.bin"});
}

TEST_F(StoreTest, CrashBeforeRenameKeepsPreviousSnapshot) {
  {
    NodeStateStore store;
    ASSERT_TRUE(store.open(dir));
    store.state() = sample_state(606);
    store.state().incarnation = 2;
    ASSERT_TRUE(store.commit());
  }
  // Crash between the temp write and the rename: a half-written temp file
  // lies beside the valid snapshot.
  write_bytes(dir + "/snapshot.bin.tmp", Bytes{0x4e, 0x53, 0x57, 0x01, 0xde, 0xad});

  NodeStateStore store;
  ASSERT_TRUE(store.open(dir)) << store.last_error();
  ASSERT_TRUE(store.has_state());
  EXPECT_EQ(store.state().incarnation, 2u);
  EXPECT_EQ(store.state().groups.size(), 2u);
  // The next commit overwrites the debris and lands.
  store.state().incarnation = 3;
  ASSERT_TRUE(store.commit()) << store.last_error();
  NodeStateStore reopened;
  ASSERT_TRUE(reopened.open(dir)) << reopened.last_error();
  EXPECT_EQ(reopened.state().incarnation, 3u);
}

// The decoder rejects more than kMaxStoredPeerHints hints, so the encoder
// must never write more: an unreadable snapshot would stop every restart
// of a node in a mesh of 258 or more.
TEST_F(StoreTest, OversizedHintListIsCappedOnCommit) {
  {
    NodeStateStore store;
    ASSERT_TRUE(store.open(dir));
    store.state() = sample_state(909);
    store.state().peer_hints.clear();
    for (std::uint16_t i = 1; i <= 300; ++i) {
      store.state().peer_hints.push_back(
          pss::ContactCard{NodeId{i}, Endpoint{(127u << 24) | 1, i}, true, kNilNode});
    }
    ASSERT_TRUE(store.commit()) << store.last_error();
  }
  NodeStateStore store;
  ASSERT_TRUE(store.open(dir)) << store.last_error();
  ASSERT_EQ(store.state().peer_hints.size(), kMaxStoredPeerHints);
  EXPECT_EQ(store.state().peer_hints.front().id, NodeId{1});
  EXPECT_EQ(store.state().peer_hints.back().id, NodeId{256});
  EXPECT_NE(store.state().find_group(GroupId{8}), nullptr);
}

TEST_F(StoreTest, CorruptSnapshotIsReportedNotTrusted) {
  {
    NodeStateStore store;
    ASSERT_TRUE(store.open(dir));
    store.state() = sample_state(707);
    ASSERT_TRUE(store.commit());
  }
  // Structural damage is what open() can detect (there is no whole-file
  // checksum on the snapshot): a truncated file and a clobbered magic.
  const Bytes raw = file_bytes(dir + "/snapshot.bin");
  write_bytes(dir + "/snapshot.bin", BytesView(raw.data(), raw.size() / 2));
  {
    NodeStateStore store;
    EXPECT_FALSE(store.open(dir));
    EXPECT_FALSE(store.last_error().empty());
  }
  Bytes bad_magic = raw;
  bad_magic[0] ^= 0xff;
  write_bytes(dir + "/snapshot.bin", bad_magic);
  {
    NodeStateStore store;
    EXPECT_FALSE(store.open(dir));
    EXPECT_FALSE(store.last_error().empty());
  }
}

TEST_F(StoreTest, UpsertGroupReplacesById) {
  NodeState st = sample_state(808);
  StoredGroup replacement = st.groups[0];
  replacement.is_leader = false;
  replacement.group_key.reset();
  st.upsert_group(replacement);
  ASSERT_EQ(st.groups.size(), 2u);
  EXPECT_FALSE(st.groups[0].is_leader);
  EXPECT_FALSE(st.find_group(GroupId{7})->group_key.has_value());
  StoredGroup novel;
  novel.group = GroupId{99};
  st.upsert_group(novel);
  EXPECT_EQ(st.groups.size(), 3u);
  EXPECT_NE(st.find_group(GroupId{99}), nullptr);
  EXPECT_EQ(st.find_group(GroupId{1000}), nullptr);
}

}  // namespace
}  // namespace whisper::store
