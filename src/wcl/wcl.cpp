#include "wcl/wcl.hpp"

#include <algorithm>

#include "crypto/sha256.hpp"

namespace whisper::wcl {

namespace {
constexpr std::uint8_t kKindOnion = 1;
constexpr std::uint8_t kKindAck = 2;
constexpr std::uint8_t kKindNack = 3;

/// Connection-backlog capacity (the paper's 2c).
constexpr std::size_t kCbCapacity = 20;

// Modeled onion-crypto costs, for a virtual clock only. Time stands still
// there while the crypto runs, so each step's continuation waits its
// modeled cost and its flight slice lasts that long; folding *measured*
// time into event ordering would make runs irreproducible. The values are
// fixed so that runs stay reproducible, and every golden digest depends on
// them; they are not a calibration. A PPSS gossip message carries about
// 0.70 ms of modeled crypto over its build, two peels and the open, where
// bench_fig7_delays measures 18-35 us per header build and 16-24 us per RSA
// decrypt at 512-bit keys on a 4-vCPU Xeon VM: 0.07-0.11 ms a message.
constexpr net::Time kVirtualRsaSealCost = 15;     // us per onion layer sealed
constexpr net::Time kVirtualRsaPeelCost = 160;    // us per layer peeled
constexpr net::Time kVirtualAesCostPerKb = 30;    // us per KB of body

/// Where one crypto step's cost goes: the duration of its flight `crypto`
/// slice and how long its continuation waits.
struct CryptoCost {
  net::Time slice;
  net::Time delay;
};

/// On a virtual clock both are the modeled cost. On a wall clock the work
/// already took `measured` (what CpuMeter::charge returned), so the slice
/// carries that and the continuation runs at once.
CryptoCost crypto_cost(const net::Clock& clock, net::Time modeled, net::Time measured) {
  if (clock.wall_clock()) return CryptoCost{measured, 0};
  return CryptoCost{modeled, modeled};
}

// Hostile-input defenses, generous enough that honest traffic never trips
// them.
/// Hard cap on mix forward-state entries; overflow evicts the oldest (FIFO —
/// entries expire in insertion order, so FIFO == earliest-expiry).
constexpr std::size_t kMaxPendingForwards = 4096;
/// Hard cap on per-destination RTT estimators (FIFO eviction).
constexpr std::size_t kMaxRttPeers = 512;
/// Onion-header replay window: fingerprints of recently seen headers; a
/// repeat is dropped without peeling.
constexpr std::size_t kReplayWindow = 1024;
/// Per-peer inbound WCL frame budget (frames/sec) and burst; malformed
/// frames from one peer before it is reported to the PSS quarantine path;
/// peers tracked by the guard.
constexpr double kPeerRatePerSec = 200;
constexpr double kPeerRateBurst = 400;
constexpr int kDecodeFailThreshold = 3;
constexpr std::size_t kGuardMaxPeers = 1024;
}  // namespace

void Helper::serialize(Writer& w) const {
  card.serialize(w);
  w.bytes(key.serialize());
}

std::optional<Helper> Helper::deserialize(Reader& r) {
  Helper h;
  h.card = pss::ContactCard::deserialize(r);
  auto key = crypto::RsaPublicKey::deserialize(r.bytes(crypto::kMaxKeyWireBytes));
  if (!r.ok() || !key) {
    if (r.ok()) r.fail(DecodeError::kBadValue);
    return std::nullopt;
  }
  h.key = *key;
  return h;
}

void RemotePeer::serialize(Writer& w) const {
  card.serialize(w);
  w.bytes(key.serialize());
  w.u8(static_cast<std::uint8_t>(helpers.size()));
  for (const auto& h : helpers) h.serialize(w);
}

std::optional<RemotePeer> RemotePeer::deserialize(Reader& r) {
  RemotePeer p;
  p.card = pss::ContactCard::deserialize(r);
  auto key = crypto::RsaPublicKey::deserialize(r.bytes(crypto::kMaxKeyWireBytes));
  if (!r.ok() || !key) {
    if (r.ok()) r.fail(DecodeError::kBadValue);
    return std::nullopt;
  }
  p.key = *key;
  const std::uint8_t n = r.u8();
  if (!r.ok()) return std::nullopt;
  if (n > kMaxWireHelpers) {
    r.fail(DecodeError::kOversized);
    return std::nullopt;
  }
  for (std::uint8_t i = 0; i < n; ++i) {
    auto h = Helper::deserialize(r);
    if (!h) return std::nullopt;
    p.helpers.push_back(std::move(*h));
  }
  return p;
}

Wcl::Wcl(net::Clock& clock, nylon::Transport& transport, keysvc::KeyService& keys,
         nylon::NylonPss& pss, net::CpuMeter& cpu, WclConfig config, Rng rng,
         telemetry::Scope telemetry)
    : clock_(clock), transport_(transport), keys_(keys), pss_(pss), cpu_(cpu), config_(config),
      rng_(rng), drbg_(rng_.next_u64()), cb_(kCbCapacity),
      next_msg_id_((static_cast<std::uint64_t>(transport.incarnation()) << 44) |
                   ((transport.self().value << 20) & ((1ull << 44) - 1))),
      guard_(PeerGuardConfig{kPeerRatePerSec, kPeerRateBurst, kDecodeFailThreshold,
                             kGuardMaxPeers}),
      replay_window_(kReplayWindow),
      tel_(telemetry),
      m_first_try_(tel_.counter("wcl.sends.first_try")),
      m_alternative_(tel_.counter("wcl.sends.alternative")),
      m_no_alternative_(tel_.counter("wcl.sends.no_alternative")),
      m_forwarded_(tel_.counter("wcl.onions.forwarded")),
      m_delivered_(tel_.counter("wcl.onions.delivered")),
      m_forward_failures_(tel_.counter("wcl.forward.failures")),
      m_forwards_expired_(tel_.counter("wcl.forwards.expired")),
      m_decode_rejects_(tel_.counter("wcl.decode.rejects")),
      m_rate_limited_(tel_.counter("wcl.rate.limited")),
      m_replays_(tel_.counter("wcl.replay.suppressed")),
      m_forwards_evicted_(tel_.counter("wcl.forwards.evicted")),
      m_backlog_evicted_(tel_.counter("wcl.backlog.evicted")),
      m_backlog_depth_(tel_.gauge("wcl.backlog.depth", {{"node", tel_.node_label()}})),
      m_srtt_(tel_.gauge("wcl.rtt.srtt_us", {{"node", tel_.node_label()}})) {
  transport_.register_handler(nylon::kTagWcl,
                              [this](NodeId from, BytesView p) { handle_message(from, p); });
  if (config_.sweep_interval > 0) {
    sweep_timer_ = clock_.schedule_after(config_.sweep_interval, [this] { sweep(); });
  }
}

Wcl::~Wcl() {
  for (auto&& [id, pending] : pending_sends_) {
    if (pending.timeout_timer != 0) clock_.cancel(pending.timeout_timer);
  }
  if (sweep_timer_ != 0) clock_.cancel(sweep_timer_);
}

void Wcl::sweep() {
  const net::Time now = clock_.now();
  for (auto it = pending_forwards_.begin(); it != pending_forwards_.end();) {
    if (it->second.expires <= now) {
      it = pending_forwards_.erase(it);
      ++stats_.forwards_expired;
      m_forwards_expired_.add(1);
    } else {
      ++it;
    }
  }
  // Compact the insertion-order index: drop ids whose entries were acked
  // away or expired, so the queue cannot outgrow the map.
  forward_order_.erase_if([&](std::uint64_t id) { return pending_forwards_.count(id) == 0; });
  sweep_timer_ = clock_.schedule_after(config_.sweep_interval, [this] { sweep(); });
}

void Wcl::evict_forwards() {
  while (pending_forwards_.size() >= kMaxPendingForwards &&
         !forward_order_.empty()) {
    const std::uint64_t victim = forward_order_.front();
    forward_order_.pop_front();
    if (pending_forwards_.erase(victim) != 0) {
      ++stats_.forwards_evicted;
      m_forwards_evicted_.add(1);
    }
  }
}

void Wcl::reject_frame(NodeId from, Reader& r) {
  DecodeError err = r.reject_reason();
  if (err == DecodeError::kNone) err = DecodeError::kBadValue;
  ++stats_.decode_rejects;
  tel_.drop_frame(m_decode_rejects_, clock_.now(),
                  std::string("decode:") + decode_error_name(err));
  if (guard_.note_decode_failure(from, clock_.now())) {
    ++stats_.misbehavior_reports;
    pss_.report_misbehavior(from);
  }
}

const RttEstimator& Wcl::rtt_of(NodeId dest) const {
  static const RttEstimator kEmpty{};
  auto it = rtt_.find(dest);
  return it == rtt_.end() ? kEmpty : it->second;
}

void Wcl::note_peer_restart(NodeId peer) {
  // rtt_order_ keeps the id; eviction skips entries already erased.
  rtt_.erase(peer);
}

net::Time Wcl::current_rto(NodeId dest) const {
  return rtt_of(dest).rto(config_.ack_timeout, config_.min_rto, config_.max_rto);
}

net::Time Wcl::attempt_timeout(const PendingSend& pending) {
  const net::Time base = current_rto(pending.dest.card.id);
  // Exponential backoff across this send's attempts, capped so the shift
  // cannot overflow and the wait stays within max_rto.
  const std::size_t backoffs = std::min<std::size_t>(pending.attempts, 16);
  net::Time timeout = base;
  for (std::size_t i = 1; i < backoffs && timeout < config_.max_rto; ++i) timeout *= 2;
  timeout = std::min(timeout, config_.max_rto);
  // Deterministic jitter (seeded rng) de-synchronises retry storms after a
  // partition heals.
  return timeout + rng_.next_below(timeout / 4 + 1);
}

void Wcl::on_gossip_exchange(const pss::ContactCard& partner) {
  auto key = keys_.key_of(partner.id);
  if (!key) return;  // key not piggybacked yet; the next exchange will carry it
  const std::size_t evicted = cb_.push(CbEntry{partner, *key});
  if (evicted > 0) {
    stats_.backlog_evicted += evicted;
    m_backlog_evicted_.add(static_cast<std::uint64_t>(evicted));
  }
  m_backlog_depth_.set(static_cast<double>(cb_.size()));
  ensure_pi();
}

void Wcl::ensure_pi() {
  if (cb_.count_public() + pnode_fetches_.size() >= config_.pi) return;
  // Pull fresh P-nodes from the PSS view into the CB, opening a path to
  // them by way of the key request/response exchange (§III-A).
  for (const auto& entry : pss_.view().entries()) {
    if (cb_.count_public() + pnode_fetches_.size() >= config_.pi) break;
    if (!entry.is_public()) continue;
    if (cb_.contains(entry.card.id) || pnode_fetches_.contains(entry.card.id)) continue;
    const pss::ContactCard card = entry.card;
    pnode_fetches_.insert(card.id);
    keys_.request_key(card, [this, card](std::optional<crypto::RsaPublicKey> key) {
      pnode_fetches_.erase(card.id);
      if (key) {
        const std::size_t evicted = cb_.push(CbEntry{card, *key});
        if (evicted > 0) {
          stats_.backlog_evicted += evicted;
          m_backlog_evicted_.add(static_cast<std::uint64_t>(evicted));
        }
        m_backlog_depth_.set(static_cast<double>(cb_.size()));
      } else {
        ensure_pi();  // try another candidate
      }
    });
  }
}

std::vector<Helper> Wcl::own_helpers() const {
  std::vector<Helper> out;
  for (const CbEntry* e : cb_.publics()) {
    if (out.size() >= config_.pi) break;
    out.push_back(Helper{e->card, e->key});
  }
  return out;
}

RemotePeer Wcl::self_peer() const {
  RemotePeer peer;
  peer.card = transport_.self_card();
  peer.key = keys_.own_public();
  peer.helpers = own_helpers();
  return peer;
}

bool Wcl::send_confidential(const RemotePeer& dest, BytesView payload, SendCallback callback) {
  if (dest.card.id == transport_.self()) return false;
  const std::uint64_t msg_id = next_msg_id_++;
  PendingSend pending;
  pending.dest = dest;
  pending.payload.assign(payload.begin(), payload.end());
  pending.callback = std::move(callback);
  if (telemetry::FlightRecorder* fr = tel_.flight(); fr != nullptr && fr->enabled()) {
    // Adopt the ambient root (a PPSS exchange or T-Chord lookup this message
    // serves); 0 when the message is itself the top-level operation.
    pending.trace.root = fr->context().root;
    pending.trace.trace_id = fr->new_trace(telemetry::TraceLayer::kWcl,
                                           transport_.self().value, pending.trace.root,
                                           dest.card.id.value);
    pending.trace.layer = telemetry::TraceLayer::kWcl;
    pending.trace_begin = clock_.now();
  }
  auto [it, inserted] = pending_sends_.emplace(msg_id, std::move(pending));
  if (!attempt(msg_id, it->second)) {
    // Not a single path could be constructed.
    auto cb = std::move(it->second.callback);
    if (telemetry::FlightRecorder* fr = tel_.flight();
        fr != nullptr && fr->enabled() && it->second.trace.valid()) {
      fr->end(it->second.trace.trace_id, transport_.self().value, clock_.now(), "no_path",
              static_cast<std::uint16_t>(it->second.attempts), 0);
    }
    pending_sends_.erase(it);
    ++stats_.no_alternative;
    m_no_alternative_.add(1);
    if (cb) cb(SendOutcome::kNoAlternative);
    return false;
  }
  return true;
}

bool Wcl::attempt(std::uint64_t msg_id, PendingSend& pending) {
  const NodeId self = transport_.self();
  const RemotePeer& dest = pending.dest;

  // First mix A: a random CB entry distinct from the destination and from
  // the helper we will pick.
  std::vector<const CbEntry*> a_candidates;
  for (const auto& e : cb_.entries()) {
    if (e.card.id == dest.card.id || e.card.id == self) continue;
    a_candidates.push_back(&e);
  }
  if (a_candidates.empty()) return false;

  // Second mix B: an untried helper of the destination; for P-node
  // destinations without helpers, any P-node from our CB works (§IV-B).
  std::vector<Helper> b_candidates;
  for (const auto& h : dest.helpers) {
    if (!h.card.is_public) continue;
    if (h.card.id == dest.card.id || h.card.id == self) continue;
    if (pending.tried_helpers.contains(h.card.id)) continue;
    b_candidates.push_back(h);
  }
  if (b_candidates.empty() && dest.card.is_public) {
    for (const CbEntry* e : cb_.publics()) {
      if (e->card.id == dest.card.id || e->card.id == self) continue;
      if (pending.tried_helpers.contains(e->card.id)) continue;
      b_candidates.push_back(Helper{e->card, e->key});
    }
  }
  if (b_candidates.empty()) return false;

  const Helper b = b_candidates[rng_.pick_index(b_candidates)];
  pending.tried_helpers.insert(b.card.id);

  // A must differ from B.
  std::vector<const CbEntry*> a_filtered;
  for (const CbEntry* e : a_candidates) {
    if (e->card.id != b.card.id) a_filtered.push_back(e);
  }
  if (a_filtered.empty()) return false;
  const CbEntry a = *a_filtered[rng_.pick_index(a_filtered)];

  ++pending.attempts;
  ++stats_.total_attempts;
  telemetry::FlightRecorder* fr = tel_.flight();
  const bool traced = fr != nullptr && fr->enabled() && pending.trace.valid();
  if (traced) {
    pending.trace.attempt = static_cast<std::uint16_t>(pending.attempts);
    fr->retry(pending.trace.trace_id, self.value, clock_.now(), pending.trace.attempt);
  }

  // Build the onion S -> A [-> M...] -> B -> D. Mixes after A must be
  // P-nodes (reachable without setup) and get explicit address hints; D's
  // hint is its public address when it has one, nil otherwise (B then
  // resolves D from its own backlog / relay / punched-route state).
  std::vector<crypto::OnionHop> path;
  // With a single mix the helper B is the whole path (it is the only node
  // guaranteed to reach D); anonymity towards B is forfeited.
  if (config_.mixes >= 2) {
    path.push_back(crypto::OnionHop{a.card.id, a.key, Endpoint{}});
  }
  if (config_.mixes > 2) {
    // Middle mixes: distinct P-nodes from our CB (collusion hardening,
    // paper footnote 2: f mixes tolerate f-1 colluders).
    std::vector<const CbEntry*> middle_pool;
    for (const CbEntry* e : cb_.publics()) {
      if (e->card.id == dest.card.id || e->card.id == self) continue;
      if (e->card.id == a.card.id || e->card.id == b.card.id) continue;
      middle_pool.push_back(e);
    }
    rng_.shuffle(middle_pool);
    for (std::size_t m = 0; m + 2 < config_.mixes && m < middle_pool.size(); ++m) {
      path.push_back(
          crypto::OnionHop{middle_pool[m]->card.id, middle_pool[m]->key,
                           middle_pool[m]->card.addr});
    }
  }
  path.push_back(crypto::OnionHop{b.card.id, b.key, b.card.addr});
  const Endpoint dest_hint = dest.card.is_public ? dest.card.addr : Endpoint{};
  path.push_back(crypto::OnionHop{dest.card.id, dest.key, dest_hint});

  const crypto::OnionKeys keys = crypto::onion_fresh_keys(drbg_);
  crypto::OnionPacket packet;
  const net::Time work_start = clock_.now();
  net::Time measured = cpu_.charge(net::CpuCategory::kAes, [&] {
    // The body keeps a leading cleartext byte, always 0, that the
    // destination skips.
    packet.body = crypto::onion_crypt_body(keys, pending.payload);
    packet.body.insert(packet.body.begin(), 0);
  });
  measured += cpu_.charge(net::CpuCategory::kRsaEncrypt, [&] {
    packet.header = crypto::onion_build_header(path, keys, drbg_);
  });
  const CryptoCost cost = crypto_cost(
      clock_,
      kVirtualRsaSealCost * path.size() +
          kVirtualAesCostPerKb * (pending.payload.size() / 1024 + 1),
      measured);
  if (traced) fr->crypto(pending.trace, self.value, work_start, cost.slice, "build");

  Writer w;
  w.u8(kKindOnion);
  w.u64(msg_id);
  transport_.self_card().serialize(w);
  w.raw(packet.serialize());
  // The packet leaves once the build's cost has passed (at once on a wall
  // clock). The deferred lambda re-arms this message's trace context so the
  // network stamps the outbound datagram.
  const pss::ContactCard first_hop = config_.mixes >= 2 ? a.card : b.card;
  clock_.schedule_after(cost.delay,
                      [this, card = first_hop, data = std::move(w).take(),
                       ctx = traced ? pending.trace : telemetry::TraceContext{}] {
                        telemetry::ScopedTraceContext guard(tel_.flight(), ctx);
                        transport_.send(card, nylon::kTagWcl, data, net::Proto::kWcl);
                      });

  pending.sent_at = clock_.now() + cost.delay;
  if (pending.timeout_timer != 0) clock_.cancel(pending.timeout_timer);
  pending.timeout_timer =
      clock_.schedule_after(cost.delay + attempt_timeout(pending), [this, msg_id] {
        if (telemetry::FlightRecorder* rec = tel_.flight();
            rec != nullptr && rec->enabled()) {
          if (auto it = pending_sends_.find(msg_id);
              it != pending_sends_.end() && it->second.trace.valid()) {
            rec->timeout(it->second.trace.trace_id, transport_.self().value, clock_.now(),
                         static_cast<std::uint16_t>(it->second.attempts));
          }
        }
        handle_ack(msg_id, /*success=*/false);
      });
  return true;
}

void Wcl::finish(std::uint64_t msg_id, SendOutcome outcome) {
  auto it = pending_sends_.find(msg_id);
  if (it == pending_sends_.end()) return;
  if (it->second.timeout_timer != 0) clock_.cancel(it->second.timeout_timer);
  auto cb = std::move(it->second.callback);
  if (telemetry::FlightRecorder* fr = tel_.flight();
      fr != nullptr && fr->enabled() && it->second.trace.valid()) {
    const bool ok = outcome != SendOutcome::kNoAlternative;
    const std::uint64_t rtt =
        ok && clock_.now() >= it->second.trace_begin ? clock_.now() - it->second.trace_begin : 0;
    fr->end(it->second.trace.trace_id, transport_.self().value, clock_.now(),
            ok ? "delivered" : "no_route",
            static_cast<std::uint16_t>(it->second.attempts), rtt);
  }
  pending_sends_.erase(it);
  switch (outcome) {
    case SendOutcome::kSuccessFirstTry:
      ++stats_.first_try_success;
      m_first_try_.add(1);
      break;
    case SendOutcome::kSuccessAlternative:
      ++stats_.alternative_success;
      m_alternative_.add(1);
      break;
    case SendOutcome::kNoAlternative:
      ++stats_.no_alternative;
      m_no_alternative_.add(1);
      break;
  }
  if (cb) cb(outcome);
}

void Wcl::handle_ack(std::uint64_t msg_id, bool success) {
  auto it = pending_sends_.find(msg_id);
  if (it == pending_sends_.end()) return;
  PendingSend& pending = it->second;
  if (success) {
    // Karn's algorithm: only unambiguous (first-attempt) round-trips feed
    // the estimator — a retried send's ACK could belong to any attempt.
    if (pending.attempts == 1 && pending.sent_at != 0 && clock_.now() >= pending.sent_at) {
      const NodeId dest = pending.dest.card.id;
      if (rtt_.count(dest) == 0) {
        // Estimators are per-destination state: cap them, evicting the
        // oldest-tracked destination (entries are never erased elsewhere,
        // so the FIFO front is always live).
        while (rtt_.size() >= kMaxRttPeers && !rtt_order_.empty()) {
          rtt_.erase(rtt_order_.front());
          rtt_order_.pop_front();
        }
        rtt_order_.push_back(dest);
      }
      RttEstimator& est = rtt_[dest];
      est.sample(clock_.now() - pending.sent_at);
      m_srtt_.set(static_cast<double>(est.srtt()));
    }
    finish(msg_id, pending.attempts <= 1 ? SendOutcome::kSuccessFirstTry
                                         : SendOutcome::kSuccessAlternative);
    return;
  }
  // Failed attempt: retry with an alternative path, up to Π alternatives.
  if (pending.attempts > config_.max_retries || !attempt(msg_id, pending)) {
    finish(msg_id, SendOutcome::kNoAlternative);
  }
}

void Wcl::send_signal(const pss::ContactCard& to, bool success, std::uint64_t msg_id) {
  Writer w;
  w.u8(success ? kKindAck : kKindNack);
  w.u64(msg_id);
  transport_.send(to, nylon::kTagWcl, w.data(), net::Proto::kWcl);
}

void Wcl::handle_message(NodeId from, BytesView payload) {
  if (!guard_.admit(from, clock_.now())) {
    ++stats_.rate_limited;
    tel_.drop_frame(m_rate_limited_, clock_.now(), "ratelimit");
    return;
  }
  Reader r(payload);
  const std::uint8_t kind = r.u8();
  if (!r.ok() || kind < kKindOnion || kind > kKindNack) {
    if (r.ok()) r.fail(DecodeError::kBadValue);
    reject_frame(from, r);
    return;
  }
  if (kind == kKindOnion) {
    handle_onion(from, r);
    return;
  }
  // ACK/NACK: either meant for one of our sends, or backtracking through us.
  const std::uint64_t msg_id = r.u64();
  if (!r.expect_done()) {
    reject_frame(from, r);
    return;
  }
  guard_.note_ok(from);
  if (auto fw = pending_forwards_.find(msg_id); fw != pending_forwards_.end()) {
    if (fw->second.expires > clock_.now()) {
      send_signal(fw->second.predecessor, kind == kKindAck, msg_id);
    }
    pending_forwards_.erase(fw);
    return;
  }
  if (telemetry::FlightRecorder* fr = tel_.flight(); fr != nullptr && fr->enabled()) {
    if (auto ps = pending_sends_.find(msg_id);
        ps != pending_sends_.end() && ps->second.trace.valid()) {
      fr->ack(ps->second.trace.trace_id, transport_.self().value, clock_.now(),
              kind == kKindAck);
    }
  }
  handle_ack(msg_id, kind == kKindAck);
  (void)from;
}

void Wcl::handle_onion(NodeId from, Reader& r) {
  const std::uint64_t msg_id = r.u64();
  const pss::ContactCard predecessor = pss::ContactCard::deserialize(r);
  auto packet = crypto::OnionPacket::deserialize(r.rest());
  if (!r.ok() || !packet || predecessor.id != from) {
    if (r.ok()) r.fail(DecodeError::kBadValue);
    reject_frame(from, r);
    return;
  }
  guard_.note_ok(from);

  // Replay window: a header we have already seen (a captured onion
  // re-injected by a misbehaving peer, or a network duplicate) is dropped
  // without peeling. Retries always carry a freshly built header, so this
  // never suppresses a legitimate attempt.
  if (replay_window_.seen_or_insert(crypto::fingerprint64(packet->header))) {
    ++stats_.replays_suppressed;
    tel_.drop_frame(m_replays_, clock_.now(), "replay");
    return;
  }

  std::optional<crypto::OnionPeel> peel;
  const net::Time work_start = clock_.now();
  net::Time modeled = kVirtualRsaPeelCost;
  net::Time measured = cpu_.charge(net::CpuCategory::kRsaDecrypt, [&] {
    peel = crypto::onion_peel_header(keys_.own_pair(), *packet);
  });
  if (!peel) {
    // Not addressed to us / corrupt: report failure so the source retries.
    send_signal(predecessor, /*success=*/false, msg_id);
    return;
  }

  if (peel->is_destination) {
    if (packet->body.empty()) {
      send_signal(predecessor, /*success=*/false, msg_id);
      return;
    }
    // Skip the body's leading byte (see attempt()).
    const BytesView body(packet->body.data() + 1, packet->body.size() - 1);
    Bytes content;
    modeled += kVirtualAesCostPerKb * (body.size() / 1024 + 1);
    measured += cpu_.charge(net::CpuCategory::kAes,
                            [&] { content = crypto::onion_crypt_body(peel->keys, body); });
    const CryptoCost cost = crypto_cost(clock_, modeled, measured);
    ++stats_.onions_delivered;
    m_delivered_.add(1);
    telemetry::FlightRecorder* fr = tel_.flight();
    const telemetry::TraceContext ctx =
        fr != nullptr && fr->enabled() ? fr->context() : telemetry::TraceContext{};
    if (ctx.valid()) fr->crypto(ctx, transport_.self().value, work_start, cost.slice, "open");
    // Deliver (and ack) once the open's cost has passed (at once on a wall
    // clock). Re-arm the inbound trace context so the ACK chain and
    // whatever the payload triggers (a PPSS response) stay causally linked
    // to this message.
    clock_.schedule_after(cost.delay,
                        [this, predecessor, msg_id, ctx,
                         content = std::move(content)]() mutable {
                          telemetry::ScopedTraceContext guard(tel_.flight(), ctx);
                          send_signal(predecessor, /*success=*/true, msg_id);
                          if (on_deliver) on_deliver(std::move(content));
                        });
    return;
  }

  // Mix role: resolve the next hop and forward. Resolution order: the
  // address hint baked into the onion layer (always present for the P-node
  // second mix), then our connection backlog (fresh gossip partners), then
  // transport-level state — a still-open punched route or our own relay
  // registration (we may be the destination's relay). The last two are what
  // makes the next-to-last hop work: that mix was chosen *because* it
  // recently exchanged with the destination, so the NAT state is open even
  // when the CB entry has already rotated out.
  Writer w;
  w.u8(kKindOnion);
  w.u64(msg_id);
  transport_.self_card().serialize(w);
  w.raw(peel->next_packet.serialize());

  // Resolve now, but put the packet on the wire only once the peel's cost
  // has passed (at once on a wall clock).
  std::optional<pss::ContactCard> next_card;
  if (!peel->next_addr.is_nil()) {
    pss::ContactCard card;
    card.id = peel->next_hop;
    card.addr = peel->next_addr;
    card.is_public = true;
    next_card = card;
  } else if (const CbEntry* e = cb_.find(peel->next_hop)) {
    next_card = e->card;
  }

  const NodeId next_hop = peel->next_hop;
  telemetry::FlightRecorder* fr = tel_.flight();
  const telemetry::TraceContext ctx =
      fr != nullptr && fr->enabled() ? fr->context() : telemetry::TraceContext{};
  const CryptoCost cost = crypto_cost(clock_, modeled, measured);
  if (ctx.valid()) fr->crypto(ctx, transport_.self().value, work_start, cost.slice, "peel");
  clock_.schedule_after(
      cost.delay,
      [this, predecessor, msg_id, next_hop, next_card, ctx, data = std::move(w).take()] {
        telemetry::ScopedTraceContext guard(tel_.flight(), ctx);
        const bool sent =
            next_card.has_value()
                ? transport_.send(*next_card, nylon::kTagWcl, data, net::Proto::kWcl)
                : transport_.send_by_id(next_hop, nylon::kTagWcl, data, net::Proto::kWcl);
        if (!sent) {
          ++stats_.forward_failures;
          m_forward_failures_.add(1);
          if (telemetry::FlightRecorder* rec = tel_.flight();
              rec != nullptr && rec->enabled() && ctx.valid()) {
            rec->drop(ctx, transport_.self().value, clock_.now(), "no_forward");
          }
          send_signal(predecessor, /*success=*/false, msg_id);
          return;
        }
        if (pending_forwards_.count(msg_id) == 0) {
          evict_forwards();
          forward_order_.push_back(msg_id);
        }
        pending_forwards_[msg_id] =
            PendingForward{predecessor, clock_.now() + config_.pending_forward_ttl};
        ++stats_.onions_forwarded;
        m_forwarded_.add(1);
      });
}

}  // namespace whisper::wcl
