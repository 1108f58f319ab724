// Durable node state: what a whisper_noded process must remember across a
// kill -9 to come back as *itself* (DESIGN.md §14).
//
//  - identity: node id, public flag, bound endpoint, RSA keypair (all CRT
//    components, so private ops stay fast after restore);
//  - incarnation: the transport/WCL epoch, bumped on every boot from
//    existing state so peers can tell a restart from a replay;
//  - groups: per-group PPSS membership — key epoch history, our passport,
//    and (leader) the group private key or (member) the accreditation and
//    entry point needed to re-join and re-validate the passport.
//
// One file on disk under --state-dir:
//   snapshot.bin   the whole NodeState, rewritten atomically on every
//                  commit (tmp + fsync + rename + directory fsync)
//
// A node commits a handful of times in its life (first boot or the
// incarnation bump, bootstrap hints, group upserts), so every commit
// writes the whole state. Decoding goes through Reader with explicit
// caps; a corrupt store is reported, never trusted.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/serialize.hpp"
#include "crypto/rsa.hpp"
#include "pss/contact.hpp"
#include "ppss/group.hpp"
#include "wcl/wcl.hpp"

namespace whisper::store {

/// Snapshot format magic + version ("WSN" + 1).
inline constexpr std::uint32_t kSnapshotMagic = 0x0157534eu;

/// Caps for store decoding (a node's own state, not hostile wire input —
/// but the file may be damaged, so bounds still apply).
inline constexpr std::size_t kMaxStoredGroups = 64;
inline constexpr std::size_t kMaxStoredEpochs = 256;
inline constexpr std::size_t kMaxStoredPeerHints = 256;

/// Everything needed to resume one group membership.
struct StoredGroup {
  GroupId group;
  bool is_leader = false;
  /// Group key epoch history (epoch -> public key), for passport
  /// verification across re-keys.
  std::vector<std::pair<std::uint64_t, crypto::RsaPublicKey>> epochs;
  /// Our passport (may be empty-signature if we crashed mid-join).
  ppss::Passport passport;
  /// Leader only: the group private key (all components).
  std::optional<crypto::RsaKeyPair> group_key;
  /// Member only: the invitation we joined with (re-sent on rejoin to
  /// re-validate our passport with the group).
  std::optional<ppss::Accreditation> accreditation;
  /// Member only: the leader's WCL descriptor used as the rejoin entry.
  std::optional<wcl::RemotePeer> entry_point;

  void serialize(Writer& w) const;
  static std::optional<StoredGroup> deserialize(Reader& r);
};

/// The full durable state of one node.
struct NodeState {
  NodeId id;
  bool is_public = true;
  /// The endpoint we were bound to; restart re-binds the same port so
  /// peers' contact cards and punched routes stay valid.
  Endpoint endpoint;
  /// Transport/WCL incarnation epoch. 1 on first boot; bumped before the
  /// node touches the network on every boot from existing state.
  std::uint32_t incarnation = 1;
  crypto::RsaKeyPair identity;
  std::vector<StoredGroup> groups;
  /// Last known contact cards of peers (bootstrap hints for rejoin).
  /// serialize() writes at most the first kMaxStoredPeerHints.
  std::vector<pss::ContactCard> peer_hints;

  Bytes serialize() const;
  static std::optional<NodeState> deserialize(BytesView data,
                                              DecodeError* why = nullptr);

  StoredGroup* find_group(GroupId g);
  void upsert_group(StoredGroup g);
};

/// Serialize a keypair (all 8 BigInt components) for the store.
void serialize_keypair(Writer& w, const crypto::RsaKeyPair& kp);
/// Fails with kBadValue unless n is odd and > 1; when the CRT primes are
/// present, p and q are odd, > 1, multiply to n, and dp, dq and qinv are
/// the values d, p and q give; and e inverts the private op on a probe.
std::optional<crypto::RsaKeyPair> deserialize_keypair(Reader& r);

/// Snapshot store rooted at one directory. Callers mutate state() and
/// then commit() it.
class NodeStateStore {
 public:
  NodeStateStore() = default;

  NodeStateStore(const NodeStateStore&) = delete;
  NodeStateStore& operator=(const NodeStateStore&) = delete;

  /// Open (creating the directory if needed) and load the snapshot if one
  /// exists. False on I/O failure or a corrupt snapshot.
  bool open(const std::string& dir);

  /// True when open() found existing state to resume from.
  bool has_state() const { return has_state_; }

  NodeState& state() { return state_; }
  const NodeState& state() const { return state_; }

  /// Write the whole state as the new snapshot; durable when it returns.
  /// False when it is not durable; last_error() says why.
  [[nodiscard]] bool commit();

  const std::string& last_error() const { return error_; }
  std::string snapshot_path() const { return dir_ + "/snapshot.bin"; }

 private:
  std::string dir_;
  NodeState state_;
  bool has_state_ = false;
  std::string error_;
};

}  // namespace whisper::store
