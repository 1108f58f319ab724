// T-Chord: gossip-based construction of a Chord ring inside a private
// group (§V-G), following the T-Man framework: nodes gossip candidate
// descriptors with ring-proximity-biased selection and converge to the
// Chord successor/predecessor/finger structure in a few cycles.
//
// All communication goes through the PPSS application channel, i.e. over
// WCL confidential routes. Lookup queries ship the querying node's
// descriptor so the owner can answer with a single WCL path (the exact
// mechanism the paper describes for its Fig. 9 experiment).
#pragma once

#include <functional>
#include <map>
#include <optional>

#include "common/densemap.hpp"
#include "ppss/ppss.hpp"

namespace whisper::chord {

/// Position on the Chord ring (64-bit identifier space).
using ChordKey = std::uint64_t;

/// The ring identifier of a node: a hash of its node id.
ChordKey chord_key_of(NodeId id);

/// PPSS application channel used by T-Chord messages.
inline constexpr std::uint8_t kChordAppId = 1;

/// Clockwise distance from `a` to `b` on the ring.
inline ChordKey ring_distance(ChordKey a, ChordKey b) { return b - a; }

/// A routable ring member: its key and how to reach it confidentially.
struct ChordDescriptor {
  ChordKey key = 0;
  wcl::RemotePeer peer;

  NodeId id() const { return peer.card.id; }
  void serialize(Writer& w) const;
  static std::optional<ChordDescriptor> deserialize(Reader& r);
};

struct TChordConfig {
  net::Time cycle = 30 * net::kSecond;
};

class TChord {
 public:
  TChord(net::Clock& clock, ppss::Ppss& ppss, TChordConfig config, Rng rng);
  ~TChord();

  TChord(const TChord&) = delete;
  TChord& operator=(const TChord&) = delete;

  void start();
  void stop();

  ChordKey self_key() const { return self_key_; }
  std::optional<ChordDescriptor> successor() const;
  std::optional<ChordDescriptor> predecessor() const;
  /// Finger i: the known node minimizing clockwise distance from
  /// self + 2^i, for every i of the 64-bit ring. Deduplicated; may be
  /// fewer than 64 entries.
  std::vector<ChordDescriptor> fingers() const;
  std::size_t candidate_count() const { return candidates_.size(); }

  struct LookupResult {
    ChordDescriptor owner;
    std::uint32_t hops = 0;
    net::Time rtt = 0;
  };
  using LookupCallback = std::function<void(std::optional<LookupResult>)>;

  /// Resolve the successor of `key` by greedy finger routing; the owner
  /// answers directly. The callback fires once (nullopt on timeout).
  void lookup(ChordKey key, LookupCallback callback);

  struct Stats {
    std::uint64_t lookups_sent = 0;
    std::uint64_t lookups_answered = 0;
    std::uint64_t lookups_timed_out = 0;
    std::uint64_t lookups_served = 0;  // we were the owner
    std::uint64_t forwards = 0;
    std::uint64_t decode_rejects = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  void on_cycle();
  void handle_app(const wcl::RemotePeer& from, BytesView payload);
  void handle_gossip(std::uint8_t kind, const wcl::RemotePeer& from, Reader& r);
  void handle_lookup_request(Reader& r);
  void handle_lookup_response(Reader& r);
  /// Count a malformed app frame (already passport-authenticated by PPSS,
  /// so rejects are counted and flight-attributed, not quarantined).
  void reject_frame(Reader& r);
  void absorb(const ChordDescriptor& d);
  std::vector<ChordDescriptor> best_for(ChordKey target_key) const;
  /// True if this node owns `key` (key in (predecessor, self]).
  bool owns(ChordKey key) const;
  const ChordDescriptor* closest_preceding(ChordKey key) const;
  void route_or_serve(ChordKey key, std::uint64_t lookup_id,
                      const ChordDescriptor& origin, std::uint32_t hops);
  ChordDescriptor self_descriptor();

  net::Clock& clock_;
  ppss::Ppss& ppss_;
  TChordConfig config_;
  Rng rng_;
  ChordKey self_key_;
  bool running_ = false;
  net::TimerId cycle_timer_ = 0;

  /// Candidate set ordered by ring position (key -> descriptor).
  std::map<ChordKey, ChordDescriptor> candidates_;

  struct PendingLookup {
    ChordKey key = 0;
    LookupCallback callback;
    net::Time started_at = 0;
    net::TimerId timeout_timer = 0;
    std::size_t attempts = 0;
    /// Flight-record root spanning dispatch, retries, and the answer.
    std::uint64_t trace_root = 0;
  };
  void arm_lookup_timer(std::uint64_t lookup_id);
  DenseMap<std::uint64_t, PendingLookup> pending_lookups_;
  std::uint64_t next_lookup_id_;

  Stats stats_;

  // Inherited from the underlying PPSS instance (same node, same group).
  telemetry::Scope tel_;
  telemetry::Counter& m_sent_;
  telemetry::Counter& m_answered_;
  telemetry::Counter& m_timed_out_;
  telemetry::Counter& m_served_;
  telemetry::Counter& m_forwards_;
  telemetry::Counter& m_decode_rejects_;
  telemetry::Histogram& m_hops_;
  telemetry::Histogram& m_rtt_;
};

}  // namespace whisper::chord
