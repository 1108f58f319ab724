#include "faults/faults.hpp"

#include <algorithm>
#include <cmath>

#include "common/serialize.hpp"
#include "pss/contact.hpp"

namespace whisper::faults {

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kPartition: return "partition";
    case FaultKind::kLoss: return "loss";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kDuplicate: return "duplicate";
    case FaultKind::kReorder: return "reorder";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kPause: return "pause";
    case FaultKind::kNatReset: return "natreset";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kByzTruncate: return "byztruncate";
    case FaultKind::kByzOversize: return "byzoversize";
    case FaultKind::kByzBitflip: return "byzbitflip";
    case FaultKind::kByzReplay: return "byzreplay";
    case FaultKind::kByzFlood: return "byzflood";
    case FaultKind::kByzFabricate: return "byzfabricate";
  }
  return "unknown";
}

bool is_byzantine(FaultKind k) {
  return k >= FaultKind::kByzTruncate && k <= FaultKind::kByzFabricate;
}

namespace {

bool is_oneshot(FaultKind k) {
  return k == FaultKind::kNatReset || k == FaultKind::kCrash;
}

/// Captured frames a kByzReplay actor remembers (per active fault).
constexpr std::size_t kReplayRingCap = 128;

// Wire-format constants mirrored from nylon::Transport. The fabric models an
// *attacker* that understands the public framing of the stack it attacks —
// it parses frames with its own knowledge of the format rather than linking
// against the protocol code, exactly like a real hostile implementation.
constexpr std::uint8_t kNylonMsgData = 1;  // nylon MsgType::kData
constexpr std::uint8_t kNylonTagPss = 1;   // nylon kTagPss

/// kByzFabricate: if `payload` is a transport-framed PSS gossip message,
/// rewrite every view entry after the sender's own leading card with an
/// invented member id, and re-serialize in place. The leading entry is kept
/// intact because receivers reject frames whose first card does not match
/// the transport-level sender. Returns false (payload untouched) when the
/// frame is not PSS gossip.
bool fabricate_pss_entries(Bytes& payload, Rng& rng) {
  Reader r(payload);
  if (r.u8() != kNylonMsgData) return false;
  const NodeId from = r.node_id();
  const std::uint32_t incarnation = r.u32();  // sender's restart epoch
  const bool relayed = r.boolean();
  const Endpoint observed = r.endpoint();
  if (r.u8() != kNylonTagPss) return false;
  if (!r.ok()) return false;

  const std::uint8_t kind = r.u8();
  const std::uint32_t seq = r.u32();
  const std::uint32_t count = r.u16();
  std::vector<pss::ContactCard> cards;
  std::vector<std::uint32_t> ages;
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    cards.push_back(pss::ContactCard::deserialize(r));
    ages.push_back(r.u32());
  }
  const Bytes extra = r.bytes();
  if (!r.expect_done() || cards.size() < 2) return false;

  for (std::size_t i = 1; i < cards.size(); ++i) {
    // Invented identities in a range no honest deployment allocates; the
    // reachability info stays plausible so receivers waste view slots and
    // exchange attempts on them.
    cards[i].id = NodeId{0x8000000000000000ull | rng.next_u64()};
    ages[i] = 0;  // look freshly gossiped
  }

  Writer w;
  w.u8(kNylonMsgData);
  w.node_id(from);
  w.u32(incarnation);  // preserved: a mismatch would out the forgery
  w.boolean(relayed);
  w.endpoint(observed);
  w.u8(kNylonTagPss);
  w.u8(kind);
  w.u32(seq);
  w.u16(static_cast<std::uint16_t>(cards.size()));
  for (std::size_t i = 0; i < cards.size(); ++i) {
    cards[i].serialize(w);
    w.u32(ages[i]);
  }
  w.bytes(extra);
  payload = std::move(w).take();
  return true;
}

/// Deterministic order for set-valued state (unordered containers iterate in
/// hash order, which must never leak into scheduling decisions).
std::vector<Endpoint> sorted(std::vector<Endpoint> eps) {
  std::sort(eps.begin(), eps.end());
  return eps;
}

}  // namespace

FaultFabric::FaultFabric(net::Clock& clock, net::Stack& net, Environment env, Rng rng,
                         telemetry::Scope telemetry)
    : clock_(clock), net_(net), env_(std::move(env)), rng_(rng), tel_(telemetry),
      m_dropped_(tel_.counter("faults.packets.dropped")),
      m_delayed_(tel_.counter("faults.packets.delayed")),
      m_duplicated_(tel_.counter("faults.packets.duplicated")),
      m_corrupted_(tel_.counter("faults.packets.corrupted")),
      m_queued_(tel_.counter("faults.packets.queued")),
      m_flushed_(tel_.counter("faults.packets.flushed")),
      m_crashes_(tel_.counter("faults.nodes.crashed")),
      m_nat_resets_(tel_.counter("faults.nat.resets")),
      m_activations_(tel_.counter("faults.activations")),
      m_byz_mutated_(tel_.counter("faults.byz.mutated")),
      m_byz_replayed_(tel_.counter("faults.byz.replayed")),
      m_byz_flooded_(tel_.counter("faults.byz.flooded")),
      m_byz_fabricated_(tel_.counter("faults.byz.fabricated")) {
  net_.set_fault_interposer(this);
}

FaultFabric::~FaultFabric() {
  for (net::TimerId t : timers_) clock_.cancel(t);
  for (ActiveFault& f : active_) {
    if (f.tick_timer != 0) clock_.cancel(f.tick_timer);
  }
  net_.set_fault_interposer(nullptr);
}

void FaultFabric::schedule(const FaultSpec& spec) {
  timers_.push_back(clock_.schedule_at(spec.start, [this, spec] {
    if (is_oneshot(spec.kind)) {
      fire_oneshot(spec);
    } else {
      activate(spec);
    }
  }));
}

void FaultFabric::schedule_all(const std::vector<FaultSpec>& specs) {
  for (const auto& s : specs) schedule(s);
}

std::vector<Endpoint> FaultFabric::pick_victims(const FaultSpec& spec,
                                                std::vector<Endpoint> pool) {
  if (!spec.targets_a.empty()) return spec.targets_a;
  pool = sorted(std::move(pool));
  rng_.shuffle(pool);
  if (pool.size() > spec.count) pool.resize(spec.count);
  return pool;
}

void FaultFabric::activate(FaultSpec spec) {
  ActiveFault f;
  f.id = next_id_++;
  f.spec = spec;

  if (spec.kind == FaultKind::kPartition && spec.targets_a.empty()) {
    // Bisection: deterministic split of the live population at activation
    // time. Nodes joining mid-window land in neither side (unaffected).
    std::vector<Endpoint> pool =
        sorted(env_.live_endpoints ? env_.live_endpoints() : std::vector<Endpoint>{});
    rng_.shuffle(pool);
    const std::size_t cut =
        static_cast<std::size_t>(static_cast<double>(pool.size()) * spec.fraction);
    for (std::size_t i = 0; i < pool.size(); ++i) {
      (i < cut ? f.side_a : f.side_b).insert(pool[i]);
    }
  } else if (spec.kind == FaultKind::kPause) {
    for (Endpoint ep :
         pick_victims(spec, env_.live_endpoints ? env_.live_endpoints()
                                                : std::vector<Endpoint>{})) {
      f.side_a.insert(ep);
      pause(ep);
    }
  } else if (is_byzantine(spec.kind) && spec.targets_a.empty()) {
    // Draw the misbehaving actors deterministically from the live
    // population: `count` nodes, or ceil(fraction * live) when count is 0
    // (the natural way to say "10% of the deployment is hostile").
    std::vector<Endpoint> pool =
        sorted(env_.live_endpoints ? env_.live_endpoints() : std::vector<Endpoint>{});
    rng_.shuffle(pool);
    const std::size_t n =
        spec.count > 0
            ? spec.count
            : static_cast<std::size_t>(
                  std::ceil(static_cast<double>(pool.size()) * spec.fraction));
    if (pool.size() > n) pool.resize(n);
    f.side_a.insert(pool.begin(), pool.end());
  } else {
    f.side_a.insert(spec.targets_a.begin(), spec.targets_a.end());
    f.side_b.insert(spec.targets_b.begin(), spec.targets_b.end());
  }

  m_activations_.add(1);
  tel_.mark("fault.activate", clock_.now(), 0, "kind", fault_kind_name(spec.kind));

  const std::uint64_t id = f.id;
  active_.push_back(std::move(f));
  if (spec.end > spec.start) {
    timers_.push_back(clock_.schedule_at(spec.end, [this, id] { deactivate(id); }));
  }
  // Actors that *originate* traffic (replay re-injection, garbage floods)
  // run on a per-fault periodic timer derived from spec.rate.
  if ((spec.kind == FaultKind::kByzReplay || spec.kind == FaultKind::kByzFlood) &&
      spec.rate > 0) {
    const auto interval = std::max<net::Time>(
        1, static_cast<net::Time>(static_cast<double>(net::kSecond) / spec.rate));
    active_.back().tick_timer =
        clock_.schedule_after(interval, [this, id] { byz_tick(id); });
  }
}

void FaultFabric::deactivate(std::uint64_t id) {
  auto it = std::find_if(active_.begin(), active_.end(),
                         [&](const ActiveFault& f) { return f.id == id; });
  if (it == active_.end()) return;
  if (it->spec.kind == FaultKind::kPause) {
    for (Endpoint ep : sorted({it->side_a.begin(), it->side_a.end()})) resume(ep);
  }
  if (it->tick_timer != 0) clock_.cancel(it->tick_timer);
  tel_.mark("fault.deactivate", clock_.now(), 0, "kind", fault_kind_name(it->spec.kind));
  active_.erase(it);
}

void FaultFabric::byz_tick(std::uint64_t id) {
  auto it = std::find_if(active_.begin(), active_.end(),
                         [&](const ActiveFault& f) { return f.id == id; });
  if (it == active_.end()) return;
  ActiveFault& f = *it;
  f.tick_timer = 0;

  // Deterministic actor order (side_a is hash-ordered).
  for (Endpoint actor : sorted({f.side_a.begin(), f.side_a.end()})) {
    if (f.spec.kind == FaultKind::kByzFlood) {
      // Flood the relay population — the WCL's scarce resource — falling
      // back to arbitrary live nodes before any relaying starts.
      std::vector<Endpoint> pool =
          env_.relay_endpoints ? env_.relay_endpoints() : std::vector<Endpoint>{};
      if (pool.empty() && env_.live_endpoints) pool = env_.live_endpoints();
      pool = sorted(std::move(pool));
      if (pool.empty()) continue;
      const Endpoint target = pool[rng_.pick_index(pool)];
      if (target == actor) continue;
      Bytes garbage(64 + rng_.next_below(1337));
      rng_.fill_bytes(garbage.data(), garbage.size());
      net_.send(actor, target, std::move(garbage), net::Proto::kWcl);
      ++stats_.byz_flooded;
      m_byz_flooded_.add(1);
    } else if (f.spec.kind == FaultKind::kByzReplay) {
      if (f.ring.empty()) continue;
      const CapturedFrame& cap = f.ring[rng_.pick_index(f.ring)];
      net_.send(cap.src, cap.dst, cap.payload, cap.proto);
      ++stats_.byz_replayed;
      m_byz_replayed_.add(1);
    }
  }

  if (f.spec.rate > 0) {
    const auto interval = std::max<net::Time>(
        1, static_cast<net::Time>(static_cast<double>(net::kSecond) / f.spec.rate));
    f.tick_timer = clock_.schedule_after(interval, [this, id] { byz_tick(id); });
  }
}

void FaultFabric::fire_oneshot(const FaultSpec& spec) {
  m_activations_.add(1);
  tel_.mark("fault.activate", clock_.now(), 0, "kind", fault_kind_name(spec.kind));
  if (spec.kind == FaultKind::kCrash) {
    if (!env_.crash_node) return;
    // Crash relays in priority: the nodes whose loss actually exercises
    // failover. Fall back to arbitrary live nodes when none relay yet.
    std::vector<Endpoint> pool =
        env_.relay_endpoints ? env_.relay_endpoints() : std::vector<Endpoint>{};
    if (pool.empty() && env_.live_endpoints) pool = env_.live_endpoints();
    for (Endpoint ep : pick_victims(spec, std::move(pool))) {
      env_.crash_node(ep);
      ++stats_.nodes_crashed;
      m_crashes_.add(1);
    }
  } else if (spec.kind == FaultKind::kNatReset) {
    if (!env_.reset_nat) return;
    for (Endpoint ep : pick_victims(spec, env_.live_endpoints
                                              ? env_.live_endpoints()
                                              : std::vector<Endpoint>{})) {
      env_.reset_nat(ep);
      ++stats_.nat_resets;
      m_nat_resets_.add(1);
    }
  }
}

void FaultFabric::pause(Endpoint ep) {
  if (paused_.insert(ep).second) ++stats_.nodes_paused;
}

void FaultFabric::resume(Endpoint ep) {
  if (paused_.erase(ep) == 0) return;
  auto it = pause_queues_.find(ep);
  if (it == pause_queues_.end()) return;
  // Flush in arrival order: the node processes its backlog on recovery.
  std::deque<QueuedPacket> queue = std::move(it->second);
  pause_queues_.erase(it);
  for (auto& q : queue) {
    ++stats_.packets_flushed;
    m_flushed_.add(1);
    net_.redeliver(q.internal_dst, std::move(q.dgram));
  }
}

void FaultFabric::note_fault(const net::Datagram& dgram, Endpoint node, FaultKind kind) {
  telemetry::FlightRecorder* fr = tel_.flight();
  if (fr == nullptr || !fr->enabled() || !dgram.trace.valid()) return;
  fr->fault(dgram.trace, fr->node_of(node), clock_.now(), fault_kind_name(kind));
}

bool FaultFabric::matches(const ActiveFault& f, Endpoint src, Endpoint dst) {
  const bool src_a = f.side_a.empty() || f.side_a.contains(src);
  const bool dst_b = f.side_b.empty() || f.side_b.contains(dst);
  if (src_a && dst_b) return true;
  if (!f.spec.symmetric) return false;
  const bool src_b = f.side_b.empty() || f.side_b.contains(src);
  const bool dst_a = f.side_a.empty() || f.side_a.contains(dst);
  return src_b && dst_a;
}

FaultFabric::WireVerdict FaultFabric::on_wire(Endpoint internal_src, net::Datagram& dgram) {
  WireVerdict verdict;
  if (active_.empty()) return verdict;
  for (ActiveFault& f : active_) {
    // Wire-stage kinds target the *sender* side (side_a; empty = any):
    // congestion, duplication and corruption happen on the uplink. The
    // Byzantine kinds also act here — a misbehaving peer mangles its own
    // outbound frames.
    if (!f.side_a.empty() && !f.side_a.contains(internal_src)) continue;
    switch (f.spec.kind) {
      case FaultKind::kDelay:
        if (rng_.next_bool(f.spec.probability)) {
          verdict.extra_delay += f.spec.delay;
          ++stats_.packets_delayed;
          m_delayed_.add(1);
          note_fault(dgram, internal_src, FaultKind::kDelay);
        }
        break;
      case FaultKind::kReorder:
        // Random extra delay reorders packets relative to later sends.
        if (f.spec.delay > 0 && rng_.next_bool(f.spec.probability)) {
          verdict.extra_delay += rng_.next_below(f.spec.delay);
          ++stats_.packets_delayed;
          m_delayed_.add(1);
          note_fault(dgram, internal_src, FaultKind::kReorder);
        }
        break;
      case FaultKind::kDuplicate:
        if (rng_.next_bool(f.spec.probability)) {
          ++verdict.copies;
          ++stats_.packets_duplicated;
          m_duplicated_.add(1);
          note_fault(dgram, internal_src, FaultKind::kDuplicate);
        }
        break;
      case FaultKind::kCorrupt:
        if (!dgram.payload.empty() && rng_.next_bool(f.spec.probability)) {
          const std::uint64_t bit = rng_.next_below(dgram.payload.size() * 8);
          dgram.payload[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
          ++stats_.packets_corrupted;
          m_corrupted_.add(1);
          note_fault(dgram, internal_src, FaultKind::kCorrupt);
        }
        break;
      case FaultKind::kByzTruncate:
        // Emit a strict prefix: exercises every kTruncated decode path.
        if (!dgram.payload.empty() && rng_.next_bool(f.spec.probability)) {
          dgram.payload.resize(rng_.next_below(dgram.payload.size()));
          ++stats_.byz_truncated;
          m_byz_mutated_.add(1);
          note_fault(dgram, internal_src, FaultKind::kByzTruncate);
        }
        break;
      case FaultKind::kByzOversize:
        if (rng_.next_bool(f.spec.probability)) {
          if (!dgram.payload.empty() && rng_.next_bool(0.5)) {
            // Clobber four bytes with 0xFF — forges huge length prefixes,
            // exercising the kOversized / kBadLength caps.
            const std::size_t at = rng_.next_below(dgram.payload.size());
            const std::size_t stop = std::min(at + 4, dgram.payload.size());
            for (std::size_t i = at; i < stop; ++i) dgram.payload[i] = 0xFF;
          } else {
            // Append trailing junk — exercises kTrailingBytes rejection.
            const std::size_t extra = 16 + rng_.next_below(497);
            const std::size_t old = dgram.payload.size();
            dgram.payload.resize(old + extra);
            rng_.fill_bytes(dgram.payload.data() + old, extra);
          }
          ++stats_.byz_oversized;
          m_byz_mutated_.add(1);
          note_fault(dgram, internal_src, FaultKind::kByzOversize);
        }
        break;
      case FaultKind::kByzBitflip:
        // Heavier than kCorrupt's single bit: 1-8 flips per frame.
        if (!dgram.payload.empty() && rng_.next_bool(f.spec.probability)) {
          const std::uint64_t flips = 1 + rng_.next_below(8);
          for (std::uint64_t i = 0; i < flips; ++i) {
            const std::uint64_t bit = rng_.next_below(dgram.payload.size() * 8);
            dgram.payload[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
          }
          ++stats_.byz_bitflipped;
          m_byz_mutated_.add(1);
          note_fault(dgram, internal_src, FaultKind::kByzBitflip);
        }
        break;
      case FaultKind::kByzReplay: {
        // Capture now, re-inject later from byz_tick. Bounded ring: the
        // newest frame overwrites the oldest once full.
        CapturedFrame cap{internal_src, dgram.dst, dgram.payload, dgram.proto};
        if (f.ring.size() < kReplayRingCap) {
          f.ring.push_back(std::move(cap));
        } else {
          f.ring[f.ring_next] = std::move(cap);
          f.ring_next = (f.ring_next + 1) % kReplayRingCap;
        }
        ++stats_.byz_captured;
        break;
      }
      case FaultKind::kByzFabricate:
        if (rng_.next_bool(f.spec.probability) &&
            fabricate_pss_entries(dgram.payload, rng_)) {
          ++stats_.byz_fabricated;
          m_byz_fabricated_.add(1);
          note_fault(dgram, internal_src, FaultKind::kByzFabricate);
        }
        break;
      default:
        break;  // partition/loss/pause act at delivery; oneshots never here
    }
  }
  return verdict;
}

FaultFabric::Gate FaultFabric::on_deliver(Endpoint internal_src, Endpoint internal_dst,
                                          const net::Datagram& dgram) {
  if (paused_.contains(internal_dst)) {
    pause_queues_[internal_dst].push_back(QueuedPacket{internal_dst, dgram});
    ++stats_.packets_queued;
    m_queued_.add(1);
    note_fault(dgram, internal_dst, FaultKind::kPause);
    return Gate::kQueue;
  }
  for (const ActiveFault& f : active_) {
    switch (f.spec.kind) {
      case FaultKind::kPartition:
        // Cut both directions between the two sides. A bisection fills both
        // sides; a pairwise cut lists the exact endpoints.
        if ((f.side_a.contains(internal_src) && f.side_b.contains(internal_dst)) ||
            (f.side_a.contains(internal_dst) && f.side_b.contains(internal_src))) {
          ++stats_.packets_dropped;
          m_dropped_.add(1);
          note_fault(dgram, internal_dst, FaultKind::kPartition);
          return Gate::kDrop;
        }
        break;
      case FaultKind::kLoss:
        if (matches(f, internal_src, internal_dst) &&
            rng_.next_bool(f.spec.probability)) {
          ++stats_.packets_dropped;
          m_dropped_.add(1);
          note_fault(dgram, internal_dst, FaultKind::kLoss);
          return Gate::kDrop;
        }
        break;
      default:
        break;
    }
  }
  return Gate::kDeliver;
}

}  // namespace whisper::faults
