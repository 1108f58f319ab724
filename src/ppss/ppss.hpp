// PPSS: the Private Peer Sampling Service (§IV).
//
// One instance per (node, group). Provides a private partial view of group
// members, refreshed by gossip exchanges that travel exclusively over WCL
// confidential routes. View entries are RemotePeer descriptors: contact
// card, public key, and — for N-nodes — the Π P-node helpers needed to
// build a WCL path to them. Every message ships the sender's passport;
// invalid passports are silently ignored.
//
// Also implemented here:
//  - join protocol (accreditation -> leader -> passport + bootstrap view);
//  - persistent connection pool (PCP): pinned peers re-pinged periodically
//    so their helper sets stay fresh (§IV-C);
//  - leader liveness via heartbeat ages piggybacked on gossip, and leader
//    election by gossip aggregation of the maximum id-hash, followed by a
//    group-key rotation announced by the winner (§IV-A).
//  - application messaging between group members over WCL, with the
//    sender's descriptor shipped so the receiver can answer with a single
//    WCL path (used by T-Chord, §V-G).
#pragma once

#include <functional>
#include <optional>
#include "common/densemap.hpp"

#include "common/guard.hpp"
#include "ppss/group.hpp"
#include "pss/view.hpp"
#include "net/cpumeter.hpp"
#include "telemetry/scope.hpp"
#include "wcl/wcl.hpp"

namespace whisper::ppss {

struct PpssConfig {
  net::Time cycle = 1 * net::kMinute;
  net::Time response_timeout = 15 * net::kSecond;
  net::Time pcp_refresh = 2 * net::kMinute;
  /// A leader is presumed dead when no heartbeat has been observed for this
  /// long; an election then starts.
  net::Time leader_timeout = 5 * net::kMinute;
};

/// Entry of a private view: a reachable member descriptor plus gossip age.
struct PrivateEntry {
  wcl::RemotePeer peer;
  std::uint32_t age = 0;

  NodeId id() const { return peer.card.id; }
  bool is_public() const { return peer.card.is_public; }

  void serialize(Writer& w) const;
  static std::optional<PrivateEntry> deserialize(Reader& r);
};

class Ppss {
 public:
  Ppss(net::Clock& clock, wcl::Wcl& wcl, NodeId self, GroupId group, net::CpuMeter& cpu,
       PpssConfig config, Rng rng, telemetry::Scope telemetry = {});
  ~Ppss();

  Ppss(const Ppss&) = delete;
  Ppss& operator=(const Ppss&) = delete;

  GroupId group() const { return group_; }
  NodeId self() const { return self_; }

  /// Create the group: this node becomes the founding leader, holding the
  /// group private key, with a self-issued passport.
  void found_group(crypto::RsaKeyPair group_key);

  /// Leader-side: issue an invitation for `node`.
  std::optional<Accreditation> invite(NodeId node) const;

  /// Join with an accreditation through a known member of the group
  /// (the entry point; per the paper, join requests reach a leader — if the
  /// entry point is not a leader the request is forwarded to one).
  void join(const Accreditation& accreditation, const wcl::RemotePeer& entry_point);

  /// Resume membership from durable state after a crash (DESIGN.md §14):
  /// restore the key-epoch history and our passport, and for a leader the
  /// group private key. The persisted passport is re-verified against the
  /// restored keyring before being trusted — a corrupted or tampered store
  /// must not grant membership; callers check joined() afterwards. Members
  /// additionally call join() with their stored accreditation to
  /// re-validate the passport with the group and fetch a fresh view (the
  /// Pretty Private Group Management re-entry bar).
  void resume(const std::vector<std::pair<std::uint64_t, crypto::RsaPublicKey>>& epochs,
              const Passport& passport,
              std::optional<crypto::RsaKeyPair> group_key = std::nullopt);

  bool joined() const { return !passport_.signature.empty(); }
  bool is_leader() const { return group_key_.has_value(); }
  const Passport& passport() const { return passport_; }
  const GroupKeyring& keyring() const { return keyring_; }
  std::uint64_t leader_epoch() const { return keyring_.latest_epoch(); }

  void start();
  void stop();

  const pss::View<PrivateEntry>& private_view() const { return view_; }

  /// Called by the node-level dispatcher with a group-stripped WCL payload.
  void handle_payload(BytesView payload);

  // --- Persistent connection pool (§IV-C). ---
  void make_persistent(const wcl::RemotePeer& peer);
  void drop_persistent(NodeId id);
  std::optional<wcl::RemotePeer> persistent_peer(NodeId id) const;
  std::size_t pcp_size() const { return pcp_.size(); }

  // --- Application traffic. ---
  /// Sender descriptor + payload, so the app can answer with a single path.
  using AppHandler = std::function<void(const wcl::RemotePeer& from, BytesView payload)>;
  /// Handler for the default application channel (app id 0).
  AppHandler on_app_message;
  /// Several protocols can share one group: each registers under its own
  /// app id (1..255); id 0 is `on_app_message`.
  void register_app(std::uint8_t app_id, AppHandler handler);

  /// Send to a member known from the private view or the PCP.
  bool send_app(NodeId to, BytesView payload, std::uint8_t app_id = 0);
  /// Send to an explicitly known member descriptor (e.g. replying).
  bool send_app_to(const wcl::RemotePeer& to, BytesView payload, std::uint8_t app_id = 0);

  /// Resolve a member descriptor (PCP first, then private view).
  std::optional<wcl::RemotePeer> resolve(NodeId id) const;

  /// This node's own current descriptor (card, key, helpers) — what other
  /// members need to reach us with a single WCL path.
  wcl::RemotePeer self_descriptor() const;

  struct Stats {
    std::uint64_t exchanges_initiated = 0;
    std::uint64_t exchanges_completed = 0;
    std::uint64_t exchanges_timed_out = 0;
    std::uint64_t bad_passports = 0;
    std::uint64_t joins_served = 0;
    /// Joins given up once every retry went unanswered.
    std::uint64_t joins_abandoned = 0;
    std::uint64_t elections_won = 0;
    std::uint64_t elections_observed = 0;
    std::uint64_t decode_rejects = 0;
    std::uint64_t replays_suppressed = 0;
    std::uint64_t rate_limited = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Telemetry handle (layers stacked on PPSS — e.g. T-Chord — inherit it).
  const telemetry::Scope& telemetry() const { return tel_; }

 private:
  struct GossipMeta {
    std::uint64_t leader_epoch = 0;
    /// Microseconds since the sender last observed a leader heartbeat.
    std::uint64_t heartbeat_age_us = 0;
    /// Election proposal: the max id-hash seen (0 when no election).
    std::uint64_t proposal_hash = 0;
    NodeId proposal_node;
    /// Key rotation announcement (present when epoch advanced).
    Bytes rotation;  // empty when absent
  };

  void on_cycle();
  void on_pcp_refresh();
  void handle_gossip(std::uint8_t kind, Reader& r);
  void handle_join_request(Reader& r);
  void handle_join_response(Reader& r);
  void handle_ping(std::uint8_t kind, Reader& r);
  void handle_app(Reader& r);

  /// Count (and flight-attribute) a malformed frame. PPSS frames arrive
  /// over anonymized WCL routes, so decode failures cannot be pinned on a
  /// network peer — they are counted, never fed to quarantine (blaming the
  /// claimed sender would let an attacker frame honest members).
  void reject_frame(Reader& r);
  /// True when the already-verified sender is over budget or the frame's
  /// (sender, kind, seq) fingerprint is a replay; counts the drop.
  bool suppress_or_limit(NodeId sender, std::uint8_t kind, std::uint64_t seq);

  bool verify_passport_cached(const Passport& p);
  PrivateEntry self_entry();
  Bytes encode_gossip(std::uint8_t kind, std::uint32_t seq,
                      const std::vector<PrivateEntry>& buffer);
  GossipMeta current_meta();
  void absorb_meta(const GossipMeta& meta);
  void absorb_rotation(const GossipMeta& meta);
  void maybe_elect();
  Bytes make_rotation_announcement();
  void send_join_request();

  net::Clock& clock_;
  wcl::Wcl& wcl_;
  NodeId self_;
  GroupId group_;
  net::CpuMeter& cpu_;
  PpssConfig config_;
  Rng rng_;
  crypto::Drbg drbg_;

  GroupKeyring keyring_;
  Passport passport_;
  std::optional<crypto::RsaKeyPair> group_key_;  // leaders only

  pss::View<PrivateEntry> view_;
  bool running_ = false;
  net::TimerId cycle_timer_ = 0;
  net::TimerId pcp_timer_ = 0;

  // Pending gossip exchanges (seq -> partner/timer/start time).
  struct PendingExchange {
    NodeId partner;
    net::TimerId timeout_timer = 0;
    net::Time started_at = 0;
    /// Flight-record root of this exchange (0 while tracing is off).
    std::uint64_t trace_root = 0;
  };
  DenseMap<std::uint32_t, PendingExchange> pending_;
  std::uint32_t next_seq_ = 1;

  // Join state.
  struct PendingJoin {
    Accreditation accreditation;
    wcl::RemotePeer entry_point;
    std::size_t attempts = 0;
    net::TimerId retry_timer = 0;
    /// Flight-record root spanning every join attempt (0 = untraced).
    std::uint64_t trace_root = 0;
  };
  std::optional<PendingJoin> pending_join_;

  // PCP.
  struct PinnedPeer {
    wcl::RemotePeer peer;
    int missed_pings = 0;
  };
  DenseMap<NodeId, PinnedPeer> pcp_;
  DenseMap<std::uint32_t, NodeId> pending_pings_;

  // Leader liveness & election.
  net::Time last_heartbeat_seen_ = 0;
  std::uint64_t election_proposal_hash_ = 0;
  NodeId election_proposal_node_;
  int election_stable_count_ = 0;

  // Passport verification cache (verified signature fingerprints), bounded
  // so hostile passport floods cannot grow it.
  ReplayWindow verified_passports_;
  // Replay suppression over (sender, kind, seq/nonce) fingerprints.
  ReplayWindow replay_window_;
  // Per-verified-member admission control.
  PeerGuard guard_;
  // Nonce source for our own outgoing app frames.
  std::uint64_t next_app_nonce_ = 1;

  // Registered application channels (app id 1..255).
  DenseMap<std::uint8_t, AppHandler> app_handlers_;

  Stats stats_;

  telemetry::Scope tel_;
  telemetry::Counter& m_initiated_;
  telemetry::Counter& m_completed_;
  telemetry::Counter& m_timed_out_;
  telemetry::Counter& m_passport_checks_;
  telemetry::Counter& m_passport_bad_;
  telemetry::Counter& m_joins_served_;
  telemetry::Counter& m_joins_abandoned_;
  telemetry::Counter& m_decode_rejects_;
  telemetry::Counter& m_replays_;
  telemetry::Counter& m_rate_limited_;
  telemetry::Histogram& m_rtt_;
  telemetry::Histogram& m_view_size_;
};

}  // namespace whisper::ppss
