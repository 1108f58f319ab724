// Nylon transport: NAT-resilient node-to-node datagram delivery (§II-C).
//
// Responsibilities:
//  - N-nodes register with a public relay node and keep the registration
//    alive; the relay forwards traffic to them (the Nylon RV-as-relay role).
//  - Hole punching: on learning a peer's observed external endpoint (either
//    from direct traffic or from the relay's stamp), a node probes it;
//    a probe-ack confirms a working *direct* route, which is then preferred
//    over the relay. Whether probes and acks actually traverse is decided
//    by the NAT emulation — cone/cone pairs converge to direct routes,
//    symmetric NATs keep needing the relay, as the paper observes.
//  - Demultiplexing: upper layers (PSS gossip, key sampling, WCL) register
//    per-tag handlers.
#pragma once

#include <functional>
#include <optional>

#include "common/bytes.hpp"
#include "common/densemap.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "pss/contact.hpp"
#include "net/cpumeter.hpp"
#include "net/spi.hpp"
#include "telemetry/scope.hpp"

namespace whisper::nylon {

/// Upper-layer protocol tags carried inside transport data messages.
inline constexpr std::uint8_t kTagPss = 1;
inline constexpr std::uint8_t kTagKeys = 2;
inline constexpr std::uint8_t kTagWcl = 3;
inline constexpr std::uint8_t kTagApp = 4;

struct TransportConfig {
  /// Incarnation epoch of this node's process (DESIGN.md §14), the one copy
  /// for the whole stack: WCL and PPSS read it through incarnation(). 0
  /// means "no durable state" (epochless peers are never considered stale).
  /// A node booting from a state dir bumps this before touching the
  /// network, so peers can distinguish its fresh frames from pre-crash
  /// stragglers: frames carrying an older incarnation than the highest seen
  /// from that peer are dropped, and the first frame of a *newer*
  /// incarnation purges all per-peer transport state (punched routes,
  /// probes, registrations) and fires on_peer_restart.
  std::uint32_t incarnation = 0;
  /// Relay registration refresh period (also refreshes the NAT mapping).
  net::Time keepalive_period = 30 * net::kSecond;
  /// Registrations at a relay expire after this long without a keepalive.
  net::Time registration_ttl = 2 * net::kMinute;
  /// Verified direct routes are trusted for this long after verification
  /// (must stay below the NAT lease, which keeps the hole open; the default
  /// matches TCP-style hour-scale leases).
  net::Time route_ttl = 30 * net::kMinute;
  /// Minimum interval between punch probes to the same peer.
  net::Time probe_min_interval = 5 * net::kSecond;
  /// Until the first RegisterAck from a freshly-set relay arrives,
  /// registrations retry at this cadence (doubling up to keepalive_period)
  /// instead of waiting out a full keepalive period — under loss the
  /// initial register is the one packet standing between a natted node and
  /// total unreachability. 0 disables the fast path.
  net::Time register_retry_initial = 250 * net::kMillisecond;
  /// Max per-peer incarnation epochs remembered (peer-driven, hard-capped).
  std::size_t max_peer_incarnations = 2048;
};

/// After this many unanswered keepalives the relay is declared lost.
inline constexpr int kRelayLossThreshold = 3;

class Transport {
 public:
  /// `telemetry` receives the `nylon.*` counters, summed over every node
  /// that shares its registry; the accessors below stay per node.
  Transport(net::Clock& clock, net::Stack& net, NodeId self, Endpoint internal_ep,
            bool is_public, TransportConfig config = {}, telemetry::Scope telemetry = {});
  ~Transport();

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  NodeId self() const { return self_; }
  bool is_public() const { return is_public_; }
  Endpoint internal_endpoint() const { return internal_ep_; }

  /// This node's current contact card (changes when the relay changes).
  pss::ContactCard self_card() const;

  /// Choose/replace the relay (N-nodes only; `relay` must be a P-node card).
  void set_relay(const pss::ContactCard& relay);
  /// True when an N-node has no live relay (none set, or keepalives
  /// unanswered): the node is unreachable and should pick a new relay.
  bool relay_lost() const;
  NodeId relay_id() const { return relay_.id; }

  /// Fired once each time the relay crosses the loss threshold (keepalives
  /// unanswered). The PSS wires this to its relay repair so failover starts
  /// the moment loss is detected instead of waiting for the next gossip
  /// cycle. Re-registering via set_relay() re-arms the trigger.
  std::function<void()> on_relay_lost;

  /// How many times this node's relay has been declared lost.
  std::uint64_t relays_lost() const { return relays_lost_; }

  /// Fired when a peer shows up with a *newer* incarnation than we had on
  /// record — i.e. it crashed and restarted. Transport state for the peer
  /// has already been purged when this fires; upper layers clear their own
  /// per-peer state (PSS quarantine, WCL RTT) so the rejoin counts as
  /// proof-of-life instead of being mis-acked against the old process.
  std::function<void(NodeId peer)> on_peer_restart;

  /// Peer restarts observed (incarnation bumps); nylon.peer_restarts.
  std::uint64_t peer_restarts() const { return peer_restarts_; }
  /// Frames dropped for carrying an incarnation older than the peer's
  /// highest seen (pre-crash stragglers).
  std::uint64_t stale_incarnation_rejects() const { return stale_incarnation_rejects_; }
  /// Incarnation this transport stamps into its outbound frames.
  std::uint32_t incarnation() const { return config_.incarnation; }

  using Handler = std::function<void(NodeId from, BytesView payload)>;
  void register_handler(std::uint8_t tag, Handler handler);

  /// Attribute inbound handler dispatch time (per protocol tag) to `meter`.
  /// Accounting only — measured wall time never feeds the virtual clock, so
  /// metering cannot perturb deterministic runs. nullptr disables.
  void set_cpu_meter(net::CpuMeter* meter) { cpu_ = meter; }

  /// Send `payload` to the node described by `card`, preferring a verified
  /// direct route, then the card's address (direct for P-nodes, via relay
  /// for N-nodes). Returns false if no send was possible at all.
  bool send(const pss::ContactCard& card, std::uint8_t tag, BytesView payload,
            net::Proto proto);

  /// True if a verified, fresh direct route to `peer` exists.
  bool can_send_direct(NodeId peer) const;

  // --- Traversal stats. Each counter also feeds the registry metric named
  // beside it. ---
  /// True once the current relay has acked a registration (N-nodes); P-nodes
  /// report true. nylon.registrations counts each unregistered -> registered
  /// step of an N-node.
  bool registered() const { return is_public_ || registered_; }
  /// Sends by resolved path: a verified punched route, a directly-reachable
  /// public address, or a relay hop (either side of it); nylon.sends.punched,
  /// .direct and .relayed.
  std::uint64_t sends_punched() const { return sends_punched_; }
  std::uint64_t sends_direct() const { return sends_direct_; }
  std::uint64_t sends_relayed() const { return sends_relayed_; }
  /// nylon.probes.sent.
  std::uint64_t probes_sent() const { return probes_sent_; }
  /// Punched routes dropped because the relay observed the peer at a new
  /// external address (NAT reboot / mapping expiry on the peer's side);
  /// nylon.routes.invalidated.
  std::uint64_t routes_invalidated() const { return routes_invalidated_; }

  /// Best-effort send using only local state — a verified punched route or
  /// our own relay registration for the peer. Used by the WCL when a mix
  /// must reach the next hop without a contact card (the onion carries only
  /// the node id). Returns false when no such state exists.
  bool send_by_id(NodeId to, std::uint8_t tag, BytesView payload, net::Proto proto);

  /// Stop timers and detach from the network (node shutdown/churn).
  void shutdown();
  bool running() const { return attached_; }

  /// Number of live registrations this node is relaying for (P-nodes).
  std::size_t relayed_registrations() const;

  /// Malformed frames rejected at this layer (bad type byte, truncated
  /// fields, trailing garbage, oversized forward payloads);
  /// nylon.decode.rejects.
  std::uint64_t decode_rejects() const { return decode_rejects_; }
  /// Entries evicted from peer-driven tables to enforce the hard caps.
  std::uint64_t cap_evictions() const { return cap_evictions_; }

 private:
  struct DataMsg {
    NodeId from;
    std::uint32_t incarnation = 0;
    bool relayed = false;
    Endpoint observed_src;  // stamped by the relay
    std::uint8_t tag = 0;
    Bytes payload;

    Bytes serialize() const;
    static std::optional<DataMsg> parse(Reader& r);
  };

  void on_datagram(const net::Datagram& dgram);
  void handle_data(const net::Datagram& dgram, Reader& r);
  void handle_forward(const net::Datagram& dgram, Reader& r);
  void handle_register(const net::Datagram& dgram, Reader& r);
  void handle_register_ack(Reader& r);
  void handle_probe(const net::Datagram& dgram, Reader& r);
  void handle_probe_ack(const net::Datagram& dgram, Reader& r);

  void send_keepalive();
  void consider_probe(NodeId peer, Endpoint candidate);
  void send_probe_frame(Endpoint target, std::uint32_t seq);
  /// Retransmit pending unanswered probes with per-probe backoff; one
  /// periodic timer owns all retries (simple lifecycle: cancelled in
  /// shutdown, disarmed when nothing is pending).
  void probe_sweep();
  void arm_probe_sweep();
  void note_direct_route(NodeId peer, Endpoint ep);
  /// Track `peer`'s incarnation. Returns false when the frame is stale and
  /// must be dropped; on a bump, purges per-peer state and fires
  /// on_peer_restart.
  bool observe_incarnation(NodeId peer, std::uint32_t incarnation);
  void reject_frame() {
    ++decode_rejects_;
    m_decode_rejects_.add(1);
  }

  net::Clock& clock_;
  net::Stack& net_;
  NodeId self_;
  Endpoint internal_ep_;
  bool is_public_;
  TransportConfig config_;
  bool attached_ = false;

  // Relay state (N-nodes).
  pss::ContactCard relay_;  // nil id when unset
  int unanswered_keepalives_ = 0;
  net::TimerId keepalive_timer_ = 0;
  std::uint64_t relays_lost_ = 0;
  bool registered_ = false;  // acked since the current set_relay()

  // Verified direct routes to peers.
  struct DirectRoute {
    Endpoint endpoint;
    net::Time verified_at = 0;
  };
  DenseMap<NodeId, DirectRoute> direct_routes_;

  // Punch probes in flight: peer -> (seq, target, sent_at).
  struct PendingProbe {
    std::uint32_t seq = 0;
    Endpoint target;
    net::Time sent_at = 0;
    int retries = 0;
  };
  DenseMap<NodeId, PendingProbe> probes_;
  std::uint32_t next_probe_seq_ = 1;
  net::TimerId probe_sweep_timer_ = 0;

  // Relay-side registrations (P-nodes).
  struct Registration {
    Endpoint external;
    net::Time expires = 0;
  };
  DenseMap<NodeId, Registration> registrations_;

  // Highest incarnation seen per peer (+ last-seen time for cap eviction).
  struct PeerEpoch {
    std::uint32_t incarnation = 0;
    net::Time seen = 0;
  };
  DenseMap<NodeId, PeerEpoch> peer_epochs_;

  DenseMap<std::uint8_t, Handler> handlers_;
  net::CpuMeter* cpu_ = nullptr;

  std::uint64_t decode_rejects_ = 0;
  std::uint64_t cap_evictions_ = 0;
  std::uint64_t peer_restarts_ = 0;
  std::uint64_t stale_incarnation_rejects_ = 0;
  std::uint64_t sends_punched_ = 0;
  std::uint64_t sends_direct_ = 0;
  std::uint64_t sends_relayed_ = 0;
  std::uint64_t probes_sent_ = 0;
  std::uint64_t routes_invalidated_ = 0;

  telemetry::Counter& m_sends_direct_;
  telemetry::Counter& m_sends_punched_;
  telemetry::Counter& m_sends_relayed_;
  telemetry::Counter& m_probes_sent_;
  telemetry::Counter& m_probe_retries_;
  telemetry::Counter& m_routes_invalidated_;
  telemetry::Counter& m_registrations_;
  telemetry::Counter& m_peer_restarts_;
  telemetry::Counter& m_decode_rejects_;
};

}  // namespace whisper::nylon
