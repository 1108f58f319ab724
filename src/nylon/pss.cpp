#include "nylon/pss.hpp"

#include <algorithm>

namespace whisper::nylon {

namespace {
constexpr std::uint8_t kKindRequest = 1;
constexpr std::uint8_t kKindResponse = 2;

constexpr std::size_t kViewSize = 10;    // c
constexpr std::size_t kGossipSize = 5;   // entries per buffer, including self
/// Consecutive failed exchanges before a peer is quarantined. Quarantined
/// descriptors are refused on merge, so a dead node's card stops
/// recirculating through gossip instead of being re-learned every cycle.
constexpr int kSuspicionThreshold = 2;
/// Healing reserve: peers evicted by exchange timeout are remembered and
/// one is re-probed every `kReserveRetryCycles` cycles. A network
/// partition turns the entire view over to same-side peers, so without
/// this a healed partition leaves the overlay permanently bisected — the
/// reserve re-seeds the first cross-side edge and gossip re-blends from
/// there. Entries are dropped for good after `kReserveMaxAttempts` failed
/// probes.
constexpr std::size_t kReserveCapacity = 8;
constexpr int kReserveRetryCycles = 3;
static_assert(kReserveRetryCycles > 0, "the healing reserve is always on");
constexpr int kReserveMaxAttempts = 8;

// Hostile-input defenses, generous enough that honest traffic never trips
// them, but a misbehaving peer is bounded and eventually reported into the
// quarantine path.
/// Wire cap on gossip entries per frame (honest buffers carry
/// `kGossipSize`; a forged count can never drive the allocation).
constexpr std::size_t kMaxGossipEntries = 64;
/// Wire cap on the key-sampling piggyback blob.
constexpr std::size_t kMaxExtraBytes = 4096;
/// Per-peer inbound frame budget (frames/sec) and burst.
constexpr double kPeerRatePerSec = 20;
constexpr double kPeerRateBurst = 60;
/// Consecutive malformed frames from one peer before it is reported as
/// misbehaving (which counts as a suspicion strike).
constexpr int kDecodeFailThreshold = 3;
/// Hard caps on peer-driven tracking state (FIFO / earliest-expiry
/// eviction beyond them).
constexpr std::size_t kGuardMaxPeers = 1024;
constexpr std::size_t kMaxSuspects = 1024;
constexpr std::size_t kMaxQuarantined = 1024;
}  // namespace

NylonPss::NylonPss(net::Clock& clock, Transport& transport, PssConfig config, Rng rng,
                   telemetry::Scope telemetry)
    : clock_(clock), transport_(transport), config_(config), rng_(rng),
      view_(kViewSize),
      guard_(PeerGuardConfig{kPeerRatePerSec, kPeerRateBurst, kDecodeFailThreshold,
                             kGuardMaxPeers}),
      tel_(telemetry),
      m_initiated_(tel_.counter("pss.exchanges.initiated")),
      m_completed_(tel_.counter("pss.exchanges.completed")),
      m_timed_out_(tel_.counter("pss.exchanges.timed_out")),
      m_quarantined_(tel_.counter("pss.peers.quarantined")),
      m_rejoined_(tel_.counter("pss.peers.rejoined")),
      m_decode_rejects_(tel_.counter("pss.decode.rejects")),
      m_rate_limited_(tel_.counter("pss.rate.limited")),
      m_misbehavior_(tel_.counter("pss.misbehavior.reports")),
      // Exchange RTT spans one-hop cluster latencies to multi-second
      // relayed paths under load.
      m_rtt_(tel_.histogram("pss.exchange.rtt_us",
                            telemetry::BucketSpec::log_spaced(100, 20'000'000))),
      m_view_size_(tel_.histogram("pss.view.size",
                                  telemetry::BucketSpec::linear(0, 64, 64))) {
  transport_.register_handler(kTagPss,
                              [this](NodeId from, BytesView p) { handle_message(from, p); });
  // Failover the moment the transport declares the relay lost, rather than
  // waiting (up to a full cycle) for the next repair_relay() pass.
  transport_.on_relay_lost = [this] { repair_relay(); };
}

NylonPss::~NylonPss() {
  stop();
  // The PSS dies before its transport (member order in WhisperNode); the
  // hook must not outlive us.
  transport_.on_relay_lost = nullptr;
}

void NylonPss::bootstrap(const std::vector<pss::ContactCard>& cards) {
  for (const auto& card : cards) {
    if (card.id == transport_.self()) continue;
    view_.insert(PssEntry{card, 0});
  }
  view_.truncate_biased(config_.pi_min_public, rng_);
  repair_relay();
}

void NylonPss::start() {
  if (running_) return;
  running_ = true;
  const net::Time offset = rng_.next_below(config_.cycle);
  cycle_timer_ = clock_.schedule_after(offset, [this] { on_cycle(); });
}

void NylonPss::stop() {
  if (!running_) return;
  running_ = false;
  if (cycle_timer_ != 0) clock_.cancel(cycle_timer_);
  for (auto&& [seq, pending] : pending_) {
    if (pending.timeout_timer != 0) clock_.cancel(pending.timeout_timer);
  }
  pending_.clear();
}

std::vector<PssEntry> NylonPss::make_buffer() {
  std::vector<PssEntry> buffer;
  buffer.push_back(PssEntry{transport_.self_card(), 0});
  auto subset = view_.random_subset(kGossipSize - 1, rng_);
  buffer.insert(buffer.end(), subset.begin(), subset.end());
  return buffer;
}

Bytes NylonPss::encode(std::uint8_t kind, std::uint32_t seq,
                       const std::vector<PssEntry>& buffer) {
  Writer w;
  w.u8(kind);
  w.u32(seq);
  w.u16(static_cast<std::uint16_t>(buffer.size()));
  for (const auto& e : buffer) e.serialize(w);
  if (extra_provider) {
    w.bytes(extra_provider());
  } else {
    w.bytes(Bytes{});
  }
  return std::move(w).take();
}

bool NylonPss::quarantined(NodeId id) const {
  auto it = quarantine_.find(id);
  return it != quarantine_.end() && it->second > clock_.now();
}

void NylonPss::note_failure(NodeId id) {
  auto it = suspicion_.find(id);
  if (it == suspicion_.end()) {
    // Suspicion is peer-driven state: cap it, evicting the oldest tracked
    // peer (lazily skipping entries already cleared by success/threshold).
    while (suspicion_.size() >= kMaxSuspects && !suspicion_order_.empty()) {
      const NodeId victim = suspicion_order_.front();
      suspicion_order_.pop_front();
      suspicion_.erase(victim);
    }
    suspicion_order_.push_back(id);
    it = suspicion_.emplace(id, 0).first;
  }
  if (++it->second < kSuspicionThreshold) return;
  suspicion_.erase(it);
  if (quarantine_.size() >= kMaxQuarantined && quarantine_.count(id) == 0) {
    // Evict the entry closest to expiry rather than refusing the new one.
    auto victim = quarantine_.begin();
    for (auto q = quarantine_.begin(); q != quarantine_.end(); ++q) {
      if (q->second < victim->second) victim = q;
    }
    quarantine_.erase(victim);
  }
  quarantine_[id] = clock_.now() + config_.quarantine_ttl;
  ++peers_quarantined_;
  m_quarantined_.add(1);
  tel_.mark("pss.peer.quarantine", clock_.now());
}

void NylonPss::report_misbehavior(NodeId id) {
  if (id.is_nil() || id == transport_.self()) return;
  ++misbehavior_reports_;
  m_misbehavior_.add(1);
  note_failure(id);
}

void NylonPss::note_peer_restart(NodeId id) {
  if (id.is_nil() || id == transport_.self()) return;
  suspicion_.erase(id);
  if (quarantine_.erase(id) > 0) {
    ++peers_rejoined_;
    m_rejoined_.add(1);
    tel_.mark("pss.peer.restart_rejoin", clock_.now());
  }
}

void NylonPss::reject_frame(NodeId from, Reader& r) {
  DecodeError err = r.reject_reason();
  if (err == DecodeError::kNone) err = DecodeError::kBadValue;
  ++decode_rejects_;
  tel_.drop_frame(m_decode_rejects_, clock_.now(),
                  std::string("decode:") + decode_error_name(err));
  if (guard_.note_decode_failure(from, clock_.now())) report_misbehavior(from);
}

void NylonPss::note_success(NodeId id) {
  suspicion_.erase(id);
  quarantine_.erase(id);
  // Proof of life: the peer no longer needs a healing re-probe.
  reserve_.erase_if([&](const ReserveEntry& e) { return e.card.id == id; });
}

void NylonPss::remember(const pss::ContactCard& card, int attempts) {
  if (attempts >= kReserveMaxAttempts) return;
  if (card.id == transport_.self()) return;
  for (auto& e : reserve_) {
    if (e.card.id == card.id) {
      e.card = card;
      e.attempts = std::max(e.attempts, attempts);
      return;
    }
  }
  if (reserve_.size() >= kReserveCapacity) reserve_.pop_front();
  reserve_.push_back(ReserveEntry{card, attempts});
}

void NylonPss::retry_reserved() {
  // Rotate past quarantined entries: their TTL has to lapse before a probe
  // can be answered with anything we would accept.
  for (std::size_t i = 0; i < reserve_.size(); ++i) {
    ReserveEntry e = reserve_.front();
    reserve_.pop_front();
    if (quarantined(e.card.id)) {
      reserve_.push_back(e);
      continue;
    }
    start_exchange(e.card, /*from_reserve=*/true, e.attempts);
    return;
  }
}

void NylonPss::purge_quarantine() {
  const net::Time now = clock_.now();
  for (auto it = quarantine_.begin(); it != quarantine_.end();) {
    it = it->second <= now ? quarantine_.erase(it) : std::next(it);
  }
}

void NylonPss::on_cycle() {
  if (!running_) return;
  cycle_timer_ = clock_.schedule_after(config_.cycle, [this] { on_cycle(); });

  repair_relay();
  purge_quarantine();
  view_.age_all();
  m_view_size_.observe(static_cast<double>(view_.size()));
  ++cycle_count_;
  if (const PssEntry* partner = view_.oldest(); partner != nullptr) {
    start_exchange(partner->card, /*from_reserve=*/false, 0);
  }
  if (!reserve_.empty() &&
      cycle_count_ % static_cast<std::uint64_t>(kReserveRetryCycles) == 0) {
    retry_reserved();
  }
}

void NylonPss::start_exchange(const pss::ContactCard& partner_card, bool from_reserve,
                              int reserve_attempts) {
  const std::uint32_t seq = next_seq_++;
  ++exchanges_initiated_;
  m_initiated_.add(1);

  // Swap the partner out of the view: it comes back fresh via the self-entry
  // of its response, and stays out if it is dead. Keeping it would pin the
  // same partners (its age is refreshed by every exchange).
  view_.remove(partner_card.id);

  transport_.send(partner_card, kTagPss, encode(kKindRequest, seq, make_buffer()),
                  net::Proto::kPss);

  PendingExchange pending;
  pending.partner = partner_card.id;
  pending.partner_card = partner_card;
  pending.from_reserve = from_reserve;
  pending.reserve_attempts = reserve_attempts;
  pending.started_at = clock_.now();
  pending.timeout_timer = clock_.schedule_after(config_.response_timeout, [this, seq] {
    auto it = pending_.find(seq);
    if (it == pending_.end()) return;
    // No response: treat the partner as failed and heal the view — but
    // remember the card, so a peer cut off by a partition (rather than
    // dead) can be re-probed once the network heals.
    view_.remove(it->second.partner);
    note_failure(it->second.partner);
    remember(it->second.partner_card,
             it->second.from_reserve ? it->second.reserve_attempts + 1 : 0);
    pending_.erase(it);
    ++exchanges_timed_out_;
    m_timed_out_.add(1);
    tel_.mark("pss.exchange.timeout", clock_.now());
  });
  pending_[seq] = pending;
}

void NylonPss::handle_message(NodeId from, BytesView payload) {
  if (!guard_.admit(from, clock_.now())) {
    tel_.drop_frame(m_rate_limited_, clock_.now(), "ratelimit");
    return;
  }
  Reader r(payload);
  const std::uint8_t kind = r.u8();
  const std::uint32_t seq = r.u32();
  const std::uint32_t count = r.count16(kMaxGossipEntries);
  std::vector<PssEntry> received;
  received.reserve(count);
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    received.push_back(PssEntry::deserialize(r));
  }
  const Bytes extra = r.bytes(kMaxExtraBytes);
  if (kind != kKindRequest && kind != kKindResponse) r.fail(DecodeError::kBadValue);
  if (r.ok() && received.empty()) r.fail(DecodeError::kBadValue);
  // The first buffer entry is the sender's own fresh card; a mismatch is a
  // spoofed frame, rejected like any other malformed input.
  if (r.ok() && received.front().card.id != from) r.fail(DecodeError::kBadValue);
  if (!r.expect_done()) {
    reject_frame(from, r);
    return;
  }
  guard_.note_ok(from);
  const pss::ContactCard sender_card = received.front().card;

  if (extra_consumer) extra_consumer(sender_card, extra);

  // A message from a quarantined peer is proof of life; otherwise drop its
  // quarantined descriptors so dead cards stop recirculating via gossip.
  note_success(from);
  std::erase_if(received, [&](const PssEntry& e) { return quarantined(e.card.id); });
  if (received.empty()) return;

  if (kind == kKindRequest) {
    // Respond with our buffer (selected before merging), then merge.
    transport_.send(sender_card, kTagPss, encode(kKindResponse, seq, make_buffer()),
                    net::Proto::kPss);
    view_.merge(received, transport_.self(), config_.pi_min_public, rng_);
    if (on_exchange) on_exchange(sender_card);
  } else if (kind == kKindResponse) {
    auto it = pending_.find(seq);
    if (it == pending_.end() || it->second.partner != from) return;
    if (it->second.timeout_timer != 0) clock_.cancel(it->second.timeout_timer);
    const net::Time rtt = clock_.now() - it->second.started_at;
    if (it->second.from_reserve) {
      // A healing probe came back: the evicted peer is reachable again.
      ++peers_rejoined_;
      m_rejoined_.add(1);
      tel_.mark("pss.peer.rejoin", clock_.now());
    }
    pending_.erase(it);
    view_.merge(received, transport_.self(), config_.pi_min_public, rng_);
    ++exchanges_completed_;
    m_completed_.add(1);
    m_rtt_.observe(static_cast<double>(rtt));
    // One timeline span per completed view exchange, request -> response.
    tel_.mark("pss.exchange", clock_.now() - rtt, rtt);
    if (on_exchange) on_exchange(sender_card);
  }
}

void NylonPss::repair_relay() {
  if (transport_.is_public() || !transport_.relay_lost()) return;
  // Pick the freshest P-node from the view as the new relay.
  const PssEntry* best = nullptr;
  for (const auto& e : view_.entries()) {
    if (!e.is_public()) continue;
    if (e.card.id == transport_.relay_id()) continue;  // the one that just died
    if (quarantined(e.card.id)) continue;
    if (best == nullptr || e.age < best->age) best = &e;
  }
  if (best != nullptr) transport_.set_relay(best->card);
}

}  // namespace whisper::nylon
