// Hostile-peer defense primitives shared by the protocol layers.
//
//  - TokenBucket: classic rate limiter over virtual-time microseconds.
//  - ReplayWindow: bounded FIFO set of 64-bit fingerprints — the "nonce
//    window" used to suppress replayed onion headers and passports, and to
//    cap any fingerprint cache that grows with peer-driven input.
//  - PeerGuard: per-peer admission control (token bucket per sender) plus
//    decode-failure scoring that tells the caller when a peer has crossed
//    the misbehavior threshold and should be reported to the PSS
//    suspicion/quarantine path. Tracked-peer state itself is hard-capped
//    with FIFO eviction so an id-spraying attacker cannot grow it.
//
// Everything here is deterministic and allocation-bounded: no wall clock,
// no randomness, O(1) amortized per packet.
#pragma once

#include <cstdint>
#include "common/densemap.hpp"
#include "common/fifo.hpp"

#include "common/ids.hpp"

namespace whisper {

/// Token bucket over virtual time. rate_per_sec == 0 disables limiting
/// (always allows) so defenses can default-on without a config sweep.
class TokenBucket {
 public:
  TokenBucket() = default;
  TokenBucket(double rate_per_sec, double burst, std::uint64_t now_us)
      : rate_(rate_per_sec), burst_(burst), tokens_(burst), last_us_(now_us) {}

  bool allow(std::uint64_t now_us) {
    if (rate_ <= 0) return true;
    if (now_us > last_us_) {
      tokens_ += rate_ * static_cast<double>(now_us - last_us_) / 1e6;
      if (tokens_ > burst_) tokens_ = burst_;
      last_us_ = now_us;
    }
    if (tokens_ < 1.0) return false;
    tokens_ -= 1.0;
    return true;
  }

 private:
  double rate_ = 0;
  double burst_ = 0;
  double tokens_ = 0;
  std::uint64_t last_us_ = 0;
};

/// Bounded FIFO set of fingerprints. seen_or_insert() returns true when the
/// fingerprint was already present (a replay); otherwise inserts it,
/// evicting the oldest entry once the window is full.
class ReplayWindow {
 public:
  explicit ReplayWindow(std::size_t capacity = 1024) : capacity_(capacity) {}

  bool seen_or_insert(std::uint64_t fp) {
    if (capacity_ == 0) return false;  // window disabled
    if (seen_.count(fp) != 0) return true;
    if (order_.size() >= capacity_) {
      seen_.erase(order_.front());
      order_.pop_front();
      ++evictions_;
    }
    seen_.insert(fp);
    order_.push_back(fp);
    return false;
  }

  bool contains(std::uint64_t fp) const { return seen_.count(fp) != 0; }
  std::size_t size() const { return seen_.size(); }
  std::uint64_t evictions() const { return evictions_; }

 private:
  std::size_t capacity_;
  DenseSet<std::uint64_t> seen_;
  Fifo<std::uint64_t> order_;
  std::uint64_t evictions_ = 0;
};

struct PeerGuardConfig {
  /// Per-peer inbound frame budget; 0 disables rate limiting.
  double rate_per_sec = 0;
  double burst = 0;
  /// Consecutive decode failures before the peer is reported as
  /// misbehaving (note_ok resets the score).
  int decode_fail_threshold = 3;
  /// Hard cap on tracked peers (FIFO eviction beyond it).
  std::size_t max_peers = 1024;
};

/// Per-peer admission + decode-failure scoring. The guard never quarantines
/// by itself: it only answers "is this frame within budget" and "did this
/// peer just cross the misbehavior threshold" — the caller decides how to
/// report (WCL/PSS feed the PSS suspicion path).
class PeerGuard {
 public:
  PeerGuard() = default;
  explicit PeerGuard(PeerGuardConfig config) : config_(config) {}

  /// False when the peer is over its inbound rate budget.
  bool admit(NodeId peer, std::uint64_t now_us) {
    if (config_.rate_per_sec <= 0) return true;
    State& st = track(peer, now_us);
    const bool ok = st.bucket.allow(now_us);
    if (!ok) ++rate_limited_;
    return ok;
  }

  /// Score a decode failure; true exactly when the failure streak reaches
  /// the threshold (caller reports the peer, score resets).
  bool note_decode_failure(NodeId peer, std::uint64_t now_us) {
    State& st = track(peer, now_us);
    if (++st.decode_failures < config_.decode_fail_threshold) return false;
    st.decode_failures = 0;
    return true;
  }

  /// A well-formed frame clears the peer's failure streak.
  void note_ok(NodeId peer) {
    auto it = peers_.find(peer);
    if (it != peers_.end()) it->second.decode_failures = 0;
  }

  std::size_t tracked() const { return peers_.size(); }
  std::uint64_t rate_limited() const { return rate_limited_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  struct State {
    TokenBucket bucket;
    int decode_failures = 0;
  };

  State& track(NodeId peer, std::uint64_t now_us) {
    auto it = peers_.find(peer);
    if (it != peers_.end()) return it->second;
    if (peers_.size() >= config_.max_peers && !order_.empty()) {
      peers_.erase(order_.front());
      order_.pop_front();
      ++evictions_;
    }
    order_.push_back(peer);
    State st;
    st.bucket = TokenBucket(config_.rate_per_sec, config_.burst, now_us);
    return peers_.emplace(peer, st).first->second;
  }

  PeerGuardConfig config_;
  DenseMap<NodeId, State> peers_;
  Fifo<NodeId> order_;
  std::uint64_t rate_limited_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace whisper
