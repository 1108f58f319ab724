#include "store/state.hpp"

#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/file.hpp"

namespace whisper::store {

namespace {

// StoredGroup presence flags.
constexpr std::uint8_t kFlagLeader = 1u << 0;
constexpr std::uint8_t kFlagGroupKey = 1u << 1;
constexpr std::uint8_t kFlagAccreditation = 1u << 2;
constexpr std::uint8_t kFlagEntryPoint = 1u << 3;

void serialize_bigint(Writer& w, const crypto::BigInt& v) {
  w.bytes(v.to_bytes());
}

std::optional<crypto::BigInt> deserialize_bigint(Reader& r) {
  Bytes raw = r.bytes(crypto::kMaxKeyComponentBytes);
  if (!r.ok()) return std::nullopt;
  return crypto::BigInt::from_bytes(raw);
}

}  // namespace

void serialize_keypair(Writer& w, const crypto::RsaKeyPair& kp) {
  serialize_bigint(w, kp.pub.n);
  serialize_bigint(w, kp.pub.e);
  serialize_bigint(w, kp.d);
  serialize_bigint(w, kp.p);
  serialize_bigint(w, kp.q);
  serialize_bigint(w, kp.dp);
  serialize_bigint(w, kp.dq);
  serialize_bigint(w, kp.qinv);
}

std::optional<crypto::RsaKeyPair> deserialize_keypair(Reader& r) {
  crypto::RsaKeyPair kp;
  crypto::BigInt* fields[] = {&kp.pub.n, &kp.pub.e, &kp.d, &kp.p,
                              &kp.q,     &kp.dp,    &kp.dq, &kp.qinv};
  for (crypto::BigInt* f : fields) {
    auto v = deserialize_bigint(r);
    if (!v) return std::nullopt;
    *f = std::move(*v);
  }
  // snapshot.bin has no whole-file checksum, so check the key itself: a
  // Montgomery context needs an odd modulus > 1, and one flipped bit in any
  // field would otherwise restore a key that signs and decrypts wrongly.
  const crypto::BigInt one{1};
  auto odd_above_one = [&](const crypto::BigInt& v) { return v.is_odd() && v != one; };
  bool valid = odd_above_one(kp.pub.n);
  if (valid && (!kp.p.is_zero() || !kp.q.is_zero())) {
    // The CRT fields must be the ones generate() derives from p, q and d.
    valid = odd_above_one(kp.p) && odd_above_one(kp.q) && kp.p * kp.q == kp.pub.n &&
            kp.dp == kp.d % (kp.p - one) && kp.dq == kp.d % (kp.q - one) &&
            (kp.q * kp.qinv) % kp.p == one;
  }
  // e must undo the private op (c^d, or its CRT form) on a fixed value.
  const crypto::BigInt probe{2};
  if (valid) valid = crypto::rsa_private_op(kp, probe.modexp(kp.pub.e, kp.pub.n)) == probe;
  if (!valid) {
    r.fail(DecodeError::kBadValue);
    return std::nullopt;
  }
  return kp;
}

void StoredGroup::serialize(Writer& w) const {
  w.group_id(group);
  std::uint8_t flags = 0;
  if (is_leader) flags |= kFlagLeader;
  if (group_key) flags |= kFlagGroupKey;
  if (accreditation) flags |= kFlagAccreditation;
  if (entry_point) flags |= kFlagEntryPoint;
  w.u8(flags);
  w.u16(static_cast<std::uint16_t>(epochs.size()));
  for (const auto& [epoch, key] : epochs) {
    w.u64(epoch);
    w.bytes(key.serialize());
  }
  passport.serialize(w);
  if (group_key) serialize_keypair(w, *group_key);
  if (accreditation) accreditation->serialize(w);
  if (entry_point) entry_point->serialize(w);
}

std::optional<StoredGroup> StoredGroup::deserialize(Reader& r) {
  StoredGroup g;
  g.group = r.group_id();
  const std::uint8_t flags = r.u8();
  if (r.ok() && (flags & ~(kFlagLeader | kFlagGroupKey | kFlagAccreditation |
                           kFlagEntryPoint)) != 0) {
    r.fail(DecodeError::kBadValue);
    return std::nullopt;
  }
  g.is_leader = (flags & kFlagLeader) != 0;
  const std::uint32_t n_epochs = r.count16(kMaxStoredEpochs);
  for (std::uint32_t i = 0; i < n_epochs; ++i) {
    const std::uint64_t epoch = r.u64();
    Bytes key_blob = r.bytes(crypto::kMaxKeyWireBytes);
    if (!r.ok()) return std::nullopt;
    auto key = crypto::RsaPublicKey::deserialize(key_blob);
    if (!key) {
      r.fail(DecodeError::kBadValue);
      return std::nullopt;
    }
    g.epochs.emplace_back(epoch, std::move(*key));
  }
  auto passport = ppss::Passport::deserialize(r);
  if (!passport) return std::nullopt;
  g.passport = std::move(*passport);
  if (flags & kFlagGroupKey) {
    auto kp = deserialize_keypair(r);
    if (!kp) return std::nullopt;
    g.group_key = std::move(*kp);
  }
  if (flags & kFlagAccreditation) {
    auto acc = ppss::Accreditation::deserialize(r);
    if (!acc) return std::nullopt;
    g.accreditation = std::move(*acc);
  }
  if (flags & kFlagEntryPoint) {
    auto entry = wcl::RemotePeer::deserialize(r);
    if (!entry) return std::nullopt;
    g.entry_point = std::move(*entry);
  }
  if (!r.ok()) return std::nullopt;
  return g;
}

Bytes NodeState::serialize() const {
  Writer w;
  w.u32(kSnapshotMagic);
  w.node_id(id);
  w.boolean(is_public);
  w.endpoint(endpoint);
  w.u32(incarnation);
  serialize_keypair(w, identity);
  w.u16(static_cast<std::uint16_t>(groups.size()));
  for (const auto& g : groups) g.serialize(w);
  // The decoder rejects more than kMaxStoredPeerHints, so never write more:
  // a snapshot that cannot be read back would stop every restart.
  const std::size_t n_hints = std::min(peer_hints.size(), kMaxStoredPeerHints);
  w.u16(static_cast<std::uint16_t>(n_hints));
  for (std::size_t i = 0; i < n_hints; ++i) peer_hints[i].serialize(w);
  return std::move(w).take();
}

std::optional<NodeState> NodeState::deserialize(BytesView data, DecodeError* why) {
  Reader r(data);
  auto reject = [&](DecodeError fallback) -> std::optional<NodeState> {
    if (why) *why = r.reject_reason() != DecodeError::kNone ? r.reject_reason() : fallback;
    return std::nullopt;
  };

  NodeState s;
  if (r.u32() != kSnapshotMagic) {
    r.fail(DecodeError::kBadValue);
    return reject(DecodeError::kBadValue);
  }
  s.id = r.node_id();
  s.is_public = r.boolean();
  s.endpoint = r.endpoint();
  s.incarnation = r.u32();
  if (r.ok() && (s.id.is_nil() || s.incarnation == 0)) {
    r.fail(DecodeError::kBadValue);
    return reject(DecodeError::kBadValue);
  }
  auto identity = deserialize_keypair(r);
  if (!identity) return reject(DecodeError::kTruncated);
  s.identity = std::move(*identity);
  const std::uint32_t n_groups = r.count16(kMaxStoredGroups);
  for (std::uint32_t i = 0; i < n_groups; ++i) {
    auto g = StoredGroup::deserialize(r);
    if (!g) return reject(DecodeError::kTruncated);
    s.groups.push_back(std::move(*g));
  }
  const std::uint32_t n_hints = r.count16(kMaxStoredPeerHints);
  for (std::uint32_t i = 0; i < n_hints; ++i) {
    s.peer_hints.push_back(pss::ContactCard::deserialize(r));
  }
  if (!r.expect_done()) return reject(DecodeError::kTrailingBytes);
  return s;
}

StoredGroup* NodeState::find_group(GroupId g) {
  for (auto& sg : groups) {
    if (sg.group == g) return &sg;
  }
  return nullptr;
}

void NodeState::upsert_group(StoredGroup g) {
  if (StoredGroup* existing = find_group(g.group)) {
    *existing = std::move(g);
  } else if (groups.size() < kMaxStoredGroups) {
    groups.push_back(std::move(g));
  }
}

bool NodeStateStore::open(const std::string& dir) {
  dir_ = dir;
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    error_ = std::string("mkdir: ") + std::strerror(errno);
    return false;
  }

  has_state_ = false;
  state_ = NodeState{};
  if (auto snap = read_file(snapshot_path())) {
    DecodeError why = DecodeError::kNone;
    auto s = NodeState::deserialize(*snap, &why);
    if (!s) {
      error_ = std::string("corrupt snapshot: ") + decode_error_name(why);
      return false;
    }
    state_ = std::move(*s);
    has_state_ = true;
  }
  return true;
}

bool NodeStateStore::commit() {
  if (!atomic_write_file(snapshot_path(), state_.serialize(), &error_)) return false;
  has_state_ = true;
  return true;
}

}  // namespace whisper::store
