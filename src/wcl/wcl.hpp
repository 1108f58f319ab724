// WCL: the WHISPER Communication Layer (§III).
//
// Provides a one-way confidential channel from a source S to a destination
// D through two mixes A and B (S → A → B → D):
//  - A is drawn from S's connection backlog (a NAT-valid route is open);
//  - B is one of the Π P-node "helpers" advertised alongside D (a P-node
//    that recently gossiped with D and can therefore reach it);
//  - content is AES-encrypted with a fresh key k carried to D inside the
//    layered onion header; mixes learn only their successor.
//
// Delivery feedback travels hop-by-hop back along the same links (ACK from
// the destination, NACK from a mix that cannot forward), so relationship
// anonymity is preserved: every node only ever talks to its direct
// neighbours on the path. Unanswered attempts time out. The source retries
// with alternative mixes up to Π times (paper footnote 3), then reports
// that no alternative route exists.
#pragma once

#include <functional>
#include "common/densemap.hpp"

#include "common/fifo.hpp"
#include "common/guard.hpp"
#include "crypto/onion.hpp"
#include "keysvc/keyservice.hpp"
#include "nylon/pss.hpp"
#include "nylon/transport.hpp"
#include "net/cpumeter.hpp"
#include "telemetry/scope.hpp"
#include "wcl/backlog.hpp"
#include "wcl/rtt.hpp"

namespace whisper::wcl {

/// A P-node helper: the next-to-last hop candidate for reaching some node.
struct Helper {
  pss::ContactCard card;
  crypto::RsaPublicKey key;

  void serialize(Writer& w) const;
  static std::optional<Helper> deserialize(Reader& r);
};

/// Everything needed to open a WCL path towards a node: its card, its
/// public key, and (for N-nodes) Π helpers. This is what PPSS view entries
/// carry (§IV-B).
struct RemotePeer {
  pss::ContactCard card;
  crypto::RsaPublicKey key;
  std::vector<Helper> helpers;

  void serialize(Writer& w) const;
  static std::optional<RemotePeer> deserialize(Reader& r);
};

enum class SendOutcome {
  kSuccessFirstTry,     // first constructed path delivered
  kSuccessAlternative,  // a retry with alternative mixes delivered
  kNoAlternative,       // all alternatives exhausted
};

struct WclConfig {
  std::size_t pi = 3;                          // Π
  /// Number of mixes on a path (the paper's default is 2: S → A → B → D).
  /// f mixes tolerate f−1 colluding nodes (footnote 2); values above 2 add
  /// P-node mixes between A and B. Must be >= 1.
  std::size_t mixes = 2;
  std::size_t max_retries = 3;                 // alternatives tried after the first attempt
  /// Initial per-attempt timeout, used until an RTT sample exists for the
  /// destination. After that the adaptive RTO (SRTT + 4·RTTVAR) governs,
  /// clamped to [min_rto, max_rto], doubling per retry with deterministic
  /// jitter.
  net::Time ack_timeout = 5 * net::kSecond;
  net::Time min_rto = 200 * net::kMillisecond;
  net::Time max_rto = 30 * net::kSecond;
  net::Time pending_forward_ttl = 60 * net::kSecond;
  /// Period of the mix-state sweep evicting expired pending_forwards_
  /// entries (0 disables). Without it a mix that never sees the ACK/NACK
  /// for a forwarded onion leaks an entry per loss — unbounded growth under
  /// sustained fault injection.
  net::Time sweep_interval = 30 * net::kSecond;
};

/// Wire cap on helpers per RemotePeer descriptor (honest peers ship Π ≈ 3).
inline constexpr std::size_t kMaxWireHelpers = 16;

class Wcl {
 public:
  Wcl(net::Clock& clock, nylon::Transport& transport, keysvc::KeyService& keys,
      nylon::NylonPss& pss, net::CpuMeter& cpu, WclConfig config, Rng rng,
      telemetry::Scope telemetry = {});
  ~Wcl();

  Wcl(const Wcl&) = delete;
  Wcl& operator=(const Wcl&) = delete;

  /// Feed a completed gossip exchange (wired to NylonPss::on_exchange):
  /// inserts the partner into the CB and restores the Π P-node invariant.
  void on_gossip_exchange(const pss::ContactCard& partner);

  /// Incarnation-bump proof-of-life from the transport: the peer restarted,
  /// so its RTT history describes a dead process (and its old socket). Drop
  /// the estimator; the next exchange re-seeds it.
  void note_peer_restart(NodeId peer);

  using SendCallback = std::function<void(SendOutcome)>;

  /// Send `payload` confidentially to `dest`. Returns false if no path can
  /// even be attempted (empty CB / no helpers). The callback fires once
  /// with the final outcome.
  bool send_confidential(const RemotePeer& dest, BytesView payload, SendCallback callback = {});

  /// Upcall with the decrypted payload when this node is a destination.
  std::function<void(Bytes payload)> on_deliver;

  const ConnectionBacklog& backlog() const { return cb_; }

  /// This node's own helpers: the Π freshest P-nodes of the CB, shipped in
  /// PPSS entries describing this node. Empty helpers are normal for
  /// P-nodes (any known P-node can serve as their next-to-last hop).
  std::vector<Helper> own_helpers() const;

  /// The RemotePeer descriptor other nodes can use to reach this node.
  RemotePeer self_peer() const;

  /// The node's transport, which carries its incarnation (DESIGN.md §14).
  const nylon::Transport& transport() const { return transport_; }

  struct Stats {
    std::uint64_t first_try_success = 0;
    std::uint64_t alternative_success = 0;
    std::uint64_t no_alternative = 0;
    std::uint64_t onions_forwarded = 0;
    std::uint64_t onions_delivered = 0;
    std::uint64_t forward_failures = 0;
    std::uint64_t total_attempts = 0;
    /// Mix-state entries evicted by the sweep (ACK/NACK never came back).
    std::uint64_t forwards_expired = 0;
    /// Malformed inbound frames rejected (typed DecodeError taxonomy).
    std::uint64_t decode_rejects = 0;
    /// Frames dropped by the per-peer token bucket.
    std::uint64_t rate_limited = 0;
    /// Onions dropped by the header replay window.
    std::uint64_t replays_suppressed = 0;
    /// Mix-state entries evicted by the hard cap (not the TTL sweep).
    std::uint64_t forwards_evicted = 0;
    /// Backlog entries evicted by capacity overflow.
    std::uint64_t backlog_evicted = 0;
    /// Peers reported to the PSS quarantine path for repeated garbage.
    std::uint64_t misbehavior_reports = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Per-destination RTT state (empty estimator if none yet).
  const RttEstimator& rtt_of(NodeId dest) const;
  /// The timeout the next first attempt towards `dest` would use.
  net::Time current_rto(NodeId dest) const;
  std::size_t pending_forward_count() const { return pending_forwards_.size(); }

 private:
  struct PendingSend {
    RemotePeer dest;
    Bytes payload;
    SendCallback callback;
    std::size_t attempts = 0;
    DenseSet<NodeId> tried_helpers;
    net::TimerId timeout_timer = 0;
    /// When the latest attempt's onion hit the wire (for RTT sampling).
    net::Time sent_at = 0;
    /// Causal trace of this message (invalid while tracing is off). `hop`
    /// stays 0 at the source; `attempt` tracks the current try.
    telemetry::TraceContext trace;
    /// Time of send_confidential() — the flight record's RTT is
    /// measured from here so decomposition includes the first build.
    net::Time trace_begin = 0;
  };

  void handle_message(NodeId from, BytesView payload);
  void handle_onion(NodeId from, Reader& r);
  /// Count a malformed frame from `from` (counter + flight drop + guard
  /// scoring; threshold crossings are reported to the PSS quarantine path).
  void reject_frame(NodeId from, Reader& r);
  /// Enforce the pending_forwards_ hard cap before an insert.
  void evict_forwards();
  void handle_ack(std::uint64_t msg_id, bool success);
  bool attempt(std::uint64_t msg_id, PendingSend& pending);
  void finish(std::uint64_t msg_id, SendOutcome outcome);
  void ensure_pi();
  void send_signal(const pss::ContactCard& to, bool success, std::uint64_t msg_id);
  /// Timeout for the next attempt of `pending`: adaptive RTO doubled per
  /// prior attempt, plus deterministic jitter.
  net::Time attempt_timeout(const PendingSend& pending);
  void sweep();

  net::Clock& clock_;
  nylon::Transport& transport_;
  keysvc::KeyService& keys_;
  nylon::NylonPss& pss_;
  net::CpuMeter& cpu_;
  WclConfig config_;
  Rng rng_;
  crypto::Drbg drbg_;
  ConnectionBacklog cb_;

  DenseMap<std::uint64_t, PendingSend> pending_sends_;
  /// Message ids are minted as (incarnation << 44) | (self << 20) | seq,
  /// with the transport's incarnation (DESIGN.md §14), so a restarted node
  /// can never re-mint ids its peers still hold in replay windows or
  /// pending mix state — the mis-ack path a naive restart would hit.
  std::uint64_t next_msg_id_;

  // Mix state: where an in-flight onion came from, for ACK/NACK backtracking.
  struct PendingForward {
    pss::ContactCard predecessor;
    net::Time expires = 0;
  };
  DenseMap<std::uint64_t, PendingForward> pending_forwards_;
  /// Insertion order of pending_forwards_ (expiry is monotone in insertion
  /// time, so the front is always the earliest-expiring live entry). May
  /// hold ids already acked away — eviction skips those lazily, and the
  /// sweep compacts it.
  Fifo<std::uint64_t> forward_order_;
  net::TimerId sweep_timer_ = 0;

  // Per-destination RTT estimators, fed by first-attempt ACK round-trips.
  // Capped: peer-driven (one estimator per destination ever talked to).
  DenseMap<NodeId, RttEstimator> rtt_;
  Fifo<NodeId> rtt_order_;

  // Per-peer admission + decode scoring, and the onion replay window.
  PeerGuard guard_;
  ReplayWindow replay_window_;

  // P-nodes currently being fetched to restore the Π invariant.
  DenseSet<NodeId> pnode_fetches_;

  Stats stats_;

  telemetry::Scope tel_;
  telemetry::Counter& m_first_try_;
  telemetry::Counter& m_alternative_;
  telemetry::Counter& m_no_alternative_;
  telemetry::Counter& m_forwarded_;
  telemetry::Counter& m_delivered_;
  telemetry::Counter& m_forward_failures_;
  telemetry::Counter& m_forwards_expired_;
  telemetry::Counter& m_decode_rejects_;
  telemetry::Counter& m_rate_limited_;
  telemetry::Counter& m_replays_;
  telemetry::Counter& m_forwards_evicted_;
  telemetry::Counter& m_backlog_evicted_;
  telemetry::Gauge& m_backlog_depth_;
  telemetry::Gauge& m_srtt_;
};

}  // namespace whisper::wcl
