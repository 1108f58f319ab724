#include "chord/tchord.hpp"

#include <algorithm>
#include <unordered_set>

#include "crypto/sha256.hpp"

namespace whisper::chord {

namespace {
constexpr std::uint8_t kKindGossipReq = 1;
constexpr std::uint8_t kKindGossipResp = 2;
constexpr std::uint8_t kKindLookupReq = 3;
constexpr std::uint8_t kKindLookupResp = 4;

constexpr std::size_t kCandidateCapacity = 32;
constexpr std::size_t kGossipDescriptors = 8;
constexpr std::size_t kSuccessorList = 4;
/// One finger per bit of the ring's 64-bit identifier space.
constexpr std::size_t kFingerBits = 64;
static_assert(kFingerBits <= 64, "finger offsets are 2^i on a 64-bit ring");
constexpr std::size_t kLookupHopLimit = 32;
constexpr net::Time kLookupTimeout = 20 * net::kSecond;
/// Re-dispatches after a timeout before reporting failure (stale
/// descriptors along the path heal as gossip refreshes them).
constexpr std::size_t kLookupRetries = 1;
/// Cap on descriptors accepted from one gossip frame (hostile frames
/// cannot force unbounded parsing; well above kGossipDescriptors).
constexpr std::size_t kMaxWireDescriptors = 32;
}  // namespace

ChordKey chord_key_of(NodeId id) {
  Writer w;
  w.str("chord-key");
  w.node_id(id);
  return crypto::fingerprint64(w.data());
}

void ChordDescriptor::serialize(Writer& w) const {
  w.u64(key);
  peer.serialize(w);
}

std::optional<ChordDescriptor> ChordDescriptor::deserialize(Reader& r) {
  ChordDescriptor d;
  d.key = r.u64();
  auto peer = wcl::RemotePeer::deserialize(r);
  if (!peer) return std::nullopt;
  d.peer = std::move(*peer);
  if (!r.ok()) return std::nullopt;
  return d;
}

TChord::TChord(net::Clock& clock, ppss::Ppss& ppss, TChordConfig config, Rng rng)
    : clock_(clock), ppss_(ppss), config_(config), rng_(rng),
      self_key_(chord_key_of(ppss.self())),
      next_lookup_id_(ppss.self().value << 16),
      tel_(ppss.telemetry()),
      m_sent_(tel_.counter("chord.lookups.sent")),
      m_answered_(tel_.counter("chord.lookups.answered")),
      m_timed_out_(tel_.counter("chord.lookups.timed_out")),
      m_served_(tel_.counter("chord.lookups.served")),
      m_forwards_(tel_.counter("chord.lookups.forwards")),
      m_decode_rejects_(tel_.counter("chord.decode.rejects")),
      m_hops_(tel_.histogram("chord.lookup.hops",
                             telemetry::BucketSpec::linear(0, 33, 33))),
      m_rtt_(tel_.histogram("chord.lookup.rtt_us",
                            telemetry::BucketSpec::log_spaced(1'000, 60'000'000))) {
  ppss_.register_app(kChordAppId, [this](const wcl::RemotePeer& from, BytesView p) {
    handle_app(from, p);
  });
}

TChord::~TChord() { stop(); }

void TChord::start() {
  if (running_) return;
  running_ = true;
  cycle_timer_ = clock_.schedule_after(rng_.next_below(config_.cycle), [this] { on_cycle(); });
}

void TChord::stop() {
  if (!running_) return;
  running_ = false;
  if (cycle_timer_ != 0) clock_.cancel(cycle_timer_);
  for (auto&& [id, p] : pending_lookups_) {
    if (p.timeout_timer != 0) clock_.cancel(p.timeout_timer);
  }
  pending_lookups_.clear();
}

ChordDescriptor TChord::self_descriptor() {
  return ChordDescriptor{self_key_, ppss_.self_descriptor()};
}

void TChord::absorb(const ChordDescriptor& d) {
  if (d.id() == ppss_.self() || d.id().is_nil()) return;
  candidates_[d.key] = d;
  if (candidates_.size() <= kCandidateCapacity) return;
  // Evict the candidate least useful for ring structure: the one with the
  // largest minimum distance to any finger target (approximate by evicting
  // the entry furthest from self in both directions but not a finger/
  // successor/predecessor pick).
  std::unordered_set<NodeId> keep;
  if (auto s = successor()) keep.insert(s->id());
  if (auto p = predecessor()) keep.insert(p->id());
  for (const auto& f : fingers()) keep.insert(f.id());
  // Also keep a successor list.
  std::size_t listed = 0;
  for (auto it = candidates_.upper_bound(self_key_);
       listed < kSuccessorList && it != candidates_.end(); ++it, ++listed) {
    keep.insert(it->second.id());
  }
  for (auto it = candidates_.begin(); it != candidates_.end();) {
    if (candidates_.size() <= kCandidateCapacity) break;
    if (!keep.contains(it->second.id())) {
      it = candidates_.erase(it);
    } else {
      ++it;
    }
  }
  // Still over capacity (everything protected): drop arbitrary tail.
  while (candidates_.size() > kCandidateCapacity) {
    candidates_.erase(std::prev(candidates_.end()));
  }
}

std::optional<ChordDescriptor> TChord::successor() const {
  if (candidates_.empty()) return std::nullopt;
  auto it = candidates_.upper_bound(self_key_);
  if (it == candidates_.end()) it = candidates_.begin();  // wrap
  return it->second;
}

std::optional<ChordDescriptor> TChord::predecessor() const {
  if (candidates_.empty()) return std::nullopt;
  auto it = candidates_.lower_bound(self_key_);
  if (it == candidates_.begin()) it = candidates_.end();  // wrap
  return std::prev(it)->second;
}

std::vector<ChordDescriptor> TChord::fingers() const {
  std::vector<ChordDescriptor> out;
  std::unordered_set<NodeId> seen;
  for (std::size_t i = 0; i < kFingerBits; ++i) {
    if (candidates_.empty()) break;
    const ChordKey target = self_key_ + (ChordKey{1} << i);
    auto it = candidates_.lower_bound(target);
    if (it == candidates_.end()) it = candidates_.begin();
    if (seen.insert(it->second.id()).second) out.push_back(it->second);
  }
  return out;
}

std::vector<ChordDescriptor> TChord::best_for(ChordKey target_key) const {
  // Rank candidates by ring distance to the target (both directions), so
  // the partner receives the descriptors most useful for its neighbourhood.
  std::vector<ChordDescriptor> all;
  all.reserve(candidates_.size());
  for (const auto& [k, d] : candidates_) all.push_back(d);
  std::sort(all.begin(), all.end(), [&](const ChordDescriptor& a, const ChordDescriptor& b) {
    const ChordKey da = std::min(ring_distance(target_key, a.key),
                                 ring_distance(a.key, target_key));
    const ChordKey db = std::min(ring_distance(target_key, b.key),
                                 ring_distance(b.key, target_key));
    return da < db;
  });
  if (all.size() > kGossipDescriptors) all.resize(kGossipDescriptors);
  return all;
}

void TChord::on_cycle() {
  if (!running_) return;
  cycle_timer_ = clock_.schedule_after(config_.cycle, [this] { on_cycle(); });

  // Seed candidates from the PPSS private view.
  for (const auto& e : ppss_.private_view().entries()) {
    absorb(ChordDescriptor{chord_key_of(e.id()), e.peer});
  }
  if (candidates_.empty()) return;

  // T-Man selection: gossip with the ring-closest candidate half the time,
  // a random one otherwise (diversity keeps the ring connected).
  const ChordDescriptor* partner = nullptr;
  if (rng_.next_bool(0.5)) {
    if (auto s = successor()) {
      partner = &candidates_.find(s->key)->second;
    }
  }
  if (partner == nullptr) {
    auto it = candidates_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rng_.next_below(candidates_.size())));
    partner = &it->second;
  }

  Writer w;
  w.u8(kKindGossipReq);
  auto buffer = best_for(partner->key);
  w.u16(static_cast<std::uint16_t>(buffer.size()));
  for (const auto& d : buffer) d.serialize(w);
  ppss_.send_app_to(partner->peer, w.data(), kChordAppId);
}

void TChord::reject_frame(Reader& r) {
  DecodeError err = r.reject_reason();
  if (err == DecodeError::kNone) err = DecodeError::kBadValue;
  ++stats_.decode_rejects;
  tel_.drop_frame(m_decode_rejects_, clock_.now(),
                  std::string("decode:") + decode_error_name(err));
}

void TChord::handle_app(const wcl::RemotePeer& from, BytesView payload) {
  Reader r(payload);
  const std::uint8_t kind = r.u8();
  if (!r.ok()) {
    reject_frame(r);
    return;
  }
  switch (kind) {
    case kKindGossipReq:
    case kKindGossipResp:
      handle_gossip(kind, from, r);
      break;
    case kKindLookupReq:
      handle_lookup_request(r);
      break;
    case kKindLookupResp:
      handle_lookup_response(r);
      break;
    default:
      r.fail(DecodeError::kBadValue);
      reject_frame(r);
      break;
  }
}

void TChord::handle_gossip(std::uint8_t kind, const wcl::RemotePeer& from, Reader& r) {
  const std::uint16_t count = r.count16(kMaxWireDescriptors);
  std::vector<ChordDescriptor> received;
  for (std::uint16_t i = 0; i < count && r.ok(); ++i) {
    auto d = ChordDescriptor::deserialize(r);
    if (!d) break;
    received.push_back(std::move(*d));
  }
  if (!r.ok() || received.size() != count || !r.expect_done()) {
    reject_frame(r);
    return;
  }

  // The sender itself is a candidate too.
  absorb(ChordDescriptor{chord_key_of(from.card.id), from});
  for (const auto& d : received) absorb(d);

  if (kind == kKindGossipReq) {
    Writer w;
    w.u8(kKindGossipResp);
    auto buffer = best_for(chord_key_of(from.card.id));
    w.u16(static_cast<std::uint16_t>(buffer.size()));
    for (const auto& d : buffer) d.serialize(w);
    ppss_.send_app_to(from, w.data(), kChordAppId);
  }
}

bool TChord::owns(ChordKey key) const {
  auto pred = predecessor();
  if (!pred) return true;  // alone on the ring
  // key in (pred, self] going clockwise.
  return ring_distance(pred->key, key) <= ring_distance(pred->key, self_key_) &&
         key != pred->key;
}

const ChordDescriptor* TChord::closest_preceding(ChordKey key) const {
  // The candidate with the largest clockwise distance from self while still
  // strictly preceding `key` — standard Chord greedy step over our
  // candidate set (which includes fingers and successors).
  const ChordDescriptor* best = nullptr;
  ChordKey best_dist = 0;
  for (const auto& [k, d] : candidates_) {
    const ChordKey dist = ring_distance(self_key_, k);
    if (dist == 0) continue;
    // d strictly precedes key: distance(self,d) < distance(self,key)
    if (dist < ring_distance(self_key_, key) && dist > best_dist) {
      best = &d;
      best_dist = dist;
    }
  }
  return best;
}

void TChord::lookup(ChordKey key, LookupCallback callback) {
  const std::uint64_t lookup_id = next_lookup_id_++;
  PendingLookup pending;
  pending.key = key;
  pending.callback = std::move(callback);
  pending.started_at = clock_.now();
  pending.attempts = 1;
  if (telemetry::FlightRecorder* fr = tel_.flight(); fr != nullptr && fr->enabled()) {
    pending.trace_root =
        fr->new_root(telemetry::TraceLayer::kChord, ppss_.self().value,
                     "key=" + std::to_string(key));
  }
  const std::uint64_t trace_root = pending.trace_root;
  pending_lookups_[lookup_id] = std::move(pending);
  arm_lookup_timer(lookup_id);
  ++stats_.lookups_sent;
  m_sent_.add(1);
  telemetry::TraceContext root_ctx;
  root_ctx.root = trace_root;
  telemetry::ScopedTraceContext guard(tel_.flight(), root_ctx);
  route_or_serve(key, lookup_id, self_descriptor(), 0);
}

void TChord::arm_lookup_timer(std::uint64_t lookup_id) {
  auto& pending = pending_lookups_[lookup_id];
  pending.timeout_timer = clock_.schedule_after(kLookupTimeout, [this, lookup_id] {
    auto it = pending_lookups_.find(lookup_id);
    if (it == pending_lookups_.end()) return;
    if (it->second.attempts <= kLookupRetries) {
      // Retry: descriptors refresh with every gossip cycle, so a second
      // dispatch often routes around the stale hop.
      ++it->second.attempts;
      const ChordKey key = it->second.key;
      const std::uint64_t trace_root = it->second.trace_root;
      arm_lookup_timer(lookup_id);
      telemetry::TraceContext root_ctx;
      root_ctx.root = trace_root;
      telemetry::ScopedTraceContext guard(tel_.flight(), root_ctx);
      route_or_serve(key, lookup_id, self_descriptor(), 0);
      return;
    }
    auto cb = std::move(it->second.callback);
    if (telemetry::FlightRecorder* fr = tel_.flight();
        fr != nullptr && fr->enabled() && it->second.trace_root != 0) {
      fr->end(it->second.trace_root, ppss_.self().value, clock_.now(), "timeout",
              static_cast<std::uint16_t>(it->second.attempts), 0);
    }
    pending_lookups_.erase(it);
    ++stats_.lookups_timed_out;
    m_timed_out_.add(1);
    cb(std::nullopt);
  });
}

void TChord::route_or_serve(ChordKey key, std::uint64_t lookup_id,
                            const ChordDescriptor& origin, std::uint32_t hops) {
  const bool we_are_origin = origin.id() == ppss_.self();

  if (owns(key) || hops >= kLookupHopLimit) {
    if (we_are_origin) {
      // Local hit: we own the key ourselves; complete immediately.
      auto it = pending_lookups_.find(lookup_id);
      if (it == pending_lookups_.end()) return;
      if (it->second.timeout_timer != 0) clock_.cancel(it->second.timeout_timer);
      auto cb = std::move(it->second.callback);
      const net::Time rtt = clock_.now() - it->second.started_at;
      if (telemetry::FlightRecorder* fr = tel_.flight();
          fr != nullptr && fr->enabled() && it->second.trace_root != 0) {
        fr->end(it->second.trace_root, ppss_.self().value, clock_.now(), "completed",
                static_cast<std::uint16_t>(it->second.attempts), rtt);
      }
      pending_lookups_.erase(it);
      ++stats_.lookups_answered;
      m_answered_.add(1);
      m_hops_.observe(static_cast<double>(hops));
      m_rtt_.observe(static_cast<double>(rtt));
      cb(LookupResult{self_descriptor(), hops, rtt});
      return;
    }
    // We are the owner: answer the origin directly with one WCL path (its
    // descriptor, including helpers, travelled with the query).
    ++stats_.lookups_served;
    m_served_.add(1);
    Writer w;
    w.u8(kKindLookupResp);
    w.u64(lookup_id);
    w.u32(hops);
    self_descriptor().serialize(w);
    ppss_.send_app_to(origin.peer, w.data(), kChordAppId);
    return;
  }

  const ChordDescriptor* next = closest_preceding(key);
  if (next == nullptr) {
    auto s = successor();
    if (!s) return;
    next = &candidates_.find(s->key)->second;
  }

  Writer w;
  w.u8(kKindLookupReq);
  w.u64(lookup_id);
  w.u64(key);
  w.u32(hops + 1);
  origin.serialize(w);
  ++stats_.forwards;
  m_forwards_.add(1);
  // Prefer the PPSS private view's descriptor when it knows the hop: its
  // helper set is refreshed every PPSS cycle, while ring candidates can
  // carry helpers from several cycles ago.
  if (auto fresh = ppss_.resolve(next->id())) {
    ppss_.send_app_to(*fresh, w.data(), kChordAppId);
  } else {
    ppss_.send_app_to(next->peer, w.data(), kChordAppId);
  }
}

void TChord::handle_lookup_request(Reader& r) {
  const std::uint64_t lookup_id = r.u64();
  const ChordKey key = r.u64();
  const std::uint32_t hops = r.u32();
  auto origin = ChordDescriptor::deserialize(r);
  if (!origin || !r.expect_done()) {
    reject_frame(r);
    return;
  }
  route_or_serve(key, lookup_id, *origin, hops);
}

void TChord::handle_lookup_response(Reader& r) {
  const std::uint64_t lookup_id = r.u64();
  const std::uint32_t hops = r.u32();
  auto owner = ChordDescriptor::deserialize(r);
  if (!owner || !r.expect_done()) {
    reject_frame(r);
    return;
  }
  auto it = pending_lookups_.find(lookup_id);
  if (it == pending_lookups_.end()) return;
  if (it->second.timeout_timer != 0) clock_.cancel(it->second.timeout_timer);
  auto cb = std::move(it->second.callback);
  const net::Time rtt = clock_.now() - it->second.started_at;
  if (telemetry::FlightRecorder* fr = tel_.flight();
      fr != nullptr && fr->enabled() && it->second.trace_root != 0) {
    fr->end(it->second.trace_root, ppss_.self().value, clock_.now(), "completed",
            static_cast<std::uint16_t>(it->second.attempts), rtt);
  }
  pending_lookups_.erase(it);
  ++stats_.lookups_answered;
  m_answered_.add(1);
  m_hops_.observe(static_cast<double>(hops));
  m_rtt_.observe(static_cast<double>(rtt));
  cb(LookupResult{*owner, hops, rtt});
}

}  // namespace whisper::chord
