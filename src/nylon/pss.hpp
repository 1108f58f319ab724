// The NAT-resilient gossip peer sampling service (Nylon, §II-B/§III-B).
//
// Implements the healer strategy: each cycle a node ages its view, selects
// the oldest entry as exchange partner, and both sides merge keeping the
// youngest entries. WHISPER's two PSS modifications live here:
//  - Π-biased truncation (delegated to pss::View::truncate_biased);
//  - the public key sampling hook: `extra_provider`/`extra_consumer` let
//    the key service piggyback each node's public key on gossip messages.
//
// Failure handling: if the partner does not answer within the timeout, its
// entry is dropped from the view (standard gossip failure detection). For
// N-nodes the protocol also repairs a lost relay by promoting a fresh
// P-node from the view.
#pragma once

#include <functional>
#include <optional>
#include "common/densemap.hpp"

#include "common/fifo.hpp"
#include "common/guard.hpp"
#include "nylon/transport.hpp"
#include "pss/view.hpp"
#include "net/spi.hpp"
#include "telemetry/scope.hpp"

namespace whisper::nylon {

struct PssConfig {
  std::size_t pi_min_public = 0;    // Π
  net::Time cycle = 10 * net::kSecond;
  net::Time response_timeout = 5 * net::kSecond;
  /// How long a peer that failed too many exchanges stays quarantined.
  net::Time quarantine_ttl = 2 * net::kMinute;
};

/// View entry of the system-wide PSS: contact card + gossip age.
struct PssEntry {
  pss::ContactCard card;
  std::uint32_t age = 0;

  NodeId id() const { return card.id; }
  bool is_public() const { return card.is_public; }

  void serialize(Writer& w) const {
    card.serialize(w);
    w.u32(age);
  }
  static PssEntry deserialize(Reader& r) {
    PssEntry e;
    e.card = pss::ContactCard::deserialize(r);
    e.age = r.u32();
    return e;
  }
};

class NylonPss {
 public:
  NylonPss(net::Clock& clock, Transport& transport, PssConfig config, Rng rng,
           telemetry::Scope telemetry = {});
  ~NylonPss();

  NylonPss(const NylonPss&) = delete;
  NylonPss& operator=(const NylonPss&) = delete;

  /// Seed the view (and, for N-nodes without a relay, pick one).
  void bootstrap(const std::vector<pss::ContactCard>& cards);

  /// Begin periodic gossip (first cycle at a random offset < cycle time).
  void start();
  void stop();

  const pss::View<PssEntry>& view() const { return view_; }

  /// Piggyback hooks (public key sampling service).
  std::function<Bytes()> extra_provider;
  std::function<void(const pss::ContactCard& from, BytesView)> extra_consumer;

  /// Invoked on every *successful* gossip exchange with the partner's card
  /// (both directions) — feeds the WCL connection backlog.
  std::function<void(const pss::ContactCard&)> on_exchange;

  std::uint64_t exchanges_initiated() const { return exchanges_initiated_; }
  std::uint64_t exchanges_completed() const { return exchanges_completed_; }
  std::uint64_t exchanges_timed_out() const { return exchanges_timed_out_; }
  std::uint64_t peers_quarantined() const { return peers_quarantined_; }
  std::uint64_t peers_rejoined() const { return peers_rejoined_; }

  /// True while `id` sits in quarantine (its descriptors are refused).
  bool quarantined(NodeId id) const;

  /// Misbehavior report from a higher layer (WCL decode scoring, PPSS via
  /// the node): counts as a suspicion strike, so repeat offenders land in
  /// quarantine exactly like peers that fail exchanges.
  void report_misbehavior(NodeId id);

  /// Incarnation-bump proof-of-life from the transport (DESIGN.md §14): the
  /// peer crashed and came back as a fresh process. Clear its suspicion and
  /// quarantine so the rejoin re-enters the view immediately instead of
  /// waiting out the quarantine TTL — the old strikes were earned by a
  /// process that no longer exists.
  void note_peer_restart(NodeId id);

  std::uint64_t decode_rejects() const { return decode_rejects_; }
  std::uint64_t rate_limited() const { return guard_.rate_limited(); }
  std::uint64_t misbehavior_reports() const { return misbehavior_reports_; }

 private:
  void on_cycle();
  void handle_message(NodeId from, BytesView payload);
  void repair_relay();
  /// Initiate one exchange toward `partner_card`. Reserve probes carry
  /// their failure count so repeat offenders age out of the reserve.
  void start_exchange(const pss::ContactCard& partner_card, bool from_reserve,
                      int reserve_attempts);
  /// Remember an evicted peer for later re-probing (healing reserve).
  void remember(const pss::ContactCard& card, int attempts);
  /// Probe the oldest non-quarantined reserve entry, if any.
  void retry_reserved();
  /// Record a failed exchange with `id`; quarantines after the threshold.
  void note_failure(NodeId id);
  /// Count a malformed frame from `id` (decode counter + flight drop +
  /// guard scoring; threshold crossings become misbehavior reports).
  void reject_frame(NodeId from, Reader& r);
  /// A live exchange with `id` clears all suspicion.
  void note_success(NodeId id);
  void purge_quarantine();
  std::vector<PssEntry> make_buffer();
  Bytes encode(std::uint8_t kind, std::uint32_t seq, const std::vector<PssEntry>& buffer);

  net::Clock& clock_;
  Transport& transport_;
  PssConfig config_;
  Rng rng_;
  pss::View<PssEntry> view_;
  bool running_ = false;
  net::TimerId cycle_timer_ = 0;
  std::uint32_t next_seq_ = 1;

  struct PendingExchange {
    NodeId partner;
    pss::ContactCard partner_card;
    bool from_reserve = false;
    int reserve_attempts = 0;
    net::TimerId timeout_timer = 0;
    net::Time started_at = 0;
  };
  DenseMap<std::uint32_t, PendingExchange> pending_;

  std::uint64_t exchanges_initiated_ = 0;
  std::uint64_t exchanges_completed_ = 0;
  std::uint64_t exchanges_timed_out_ = 0;
  std::uint64_t peers_quarantined_ = 0;
  std::uint64_t peers_rejoined_ = 0;
  std::uint64_t cycle_count_ = 0;

  // Healing reserve: FIFO of evicted peers awaiting a re-probe.
  struct ReserveEntry {
    pss::ContactCard card;
    int attempts = 0;
  };
  Fifo<ReserveEntry> reserve_;

  // Failure suspicion: consecutive failed exchanges per peer, and the
  // quarantine (peer -> expiry) entered at the threshold. Both are
  // peer-driven, so both are hard-capped (suspicion evicts oldest-tracked
  // via the FIFO below; quarantine evicts the earliest expiry).
  DenseMap<NodeId, int> suspicion_;
  Fifo<NodeId> suspicion_order_;
  DenseMap<NodeId, net::Time> quarantine_;

  // Per-peer admission + decode scoring.
  PeerGuard guard_;
  std::uint64_t decode_rejects_ = 0;
  std::uint64_t misbehavior_reports_ = 0;

  telemetry::Scope tel_;
  telemetry::Counter& m_initiated_;
  telemetry::Counter& m_completed_;
  telemetry::Counter& m_timed_out_;
  telemetry::Counter& m_quarantined_;
  telemetry::Counter& m_rejoined_;
  telemetry::Counter& m_decode_rejects_;
  telemetry::Counter& m_rate_limited_;
  telemetry::Counter& m_misbehavior_;
  telemetry::Histogram& m_rtt_;
  telemetry::Histogram& m_view_size_;
};

}  // namespace whisper::nylon
