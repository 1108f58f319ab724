// Causal message tracing: per-message flight records with per-hop latency
// decomposition (Fig. 7's RTT breakdown, reproduced from a live run).
//
// A TraceContext travels as *simulator-side metadata* on net::Datagram —
// never inside protocol wire bytes, so ciphertexts are byte-identical with
// tracing on or off (asserted by test). Propagation is ambient: the network
// arms the recorder's current context around each delivery handler, layers
// that defer work across virtual time (onion crypto, retry timers) capture
// the context and re-arm it with ScopedTraceContext inside the deferred
// lambda. Every layer reaches the recorder through telemetry::Scope, so a
// stand-alone unit test pays one null check and nothing else.
//
// The recorder is an append-only event log (wire emissions/arrivals, crypto
// charges, retries, drops, fault attributions, outcomes, and node-timeline
// marks for protocol events that belong to no message). assemble() folds
// the log into one FlightRecord per message: the hop list with
// queue/propagation split, crypto/retry totals, drop reasons, and the
// Karn-ambiguity flag for retransmitted sends. Records round-trip through
// JSONL (parse_flight_jsonl) for the whisper_trace CLI and the adversary's
// -view auditor (telemetry/audit.hpp); the raw log renders as a Chrome
// trace (to_chrome_trace in telemetry/export.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.hpp"

namespace whisper::telemetry {

/// Layer that originated a causal trace (the root's protocol).
enum class TraceLayer : std::uint8_t {
  kNone = 0,
  kWcl = 1,    // one confidential message (onion + ACK path)
  kPpss = 2,   // a private view exchange / join (spans request + response)
  kChord = 3,  // a T-Chord lookup (spans every routing hop)
  kNylon = 4,  // transport-level traffic
  kApp = 5,
};
const char* trace_layer_name(TraceLayer l);
TraceLayer trace_layer_from_name(std::string_view name);

/// The context stamped on in-flight datagrams and armed ambiently around
/// handlers. `trace_id` identifies one message-level trace (a WCL send);
/// `root` the top-level causal operation it serves (a PPSS exchange, a
/// T-Chord lookup), 0 when the message itself is the root.
struct TraceContext {
  std::uint64_t root = 0;
  std::uint64_t trace_id = 0;
  std::uint32_t hop = 0;       // wire transmissions so far on this chain
  std::uint32_t seq = 0;       // per-wire-copy sequence (duplication-safe)
  std::uint16_t attempt = 0;   // WCL attempt number (1 = first try)
  TraceLayer layer = TraceLayer::kNone;

  bool valid() const { return trace_id != 0; }
  TraceContext next_hop() const {
    TraceContext c = *this;
    ++c.hop;
    c.seq = 0;
    return c;
  }
};

/// Event kinds in the flight log.
enum class FlightKind : std::uint8_t {
  kBegin = 0,    // trace/root created (node = source, peer = destination)
  kWireOut = 1,  // datagram hit the wire (dur = fault-injected extra delay)
  kWireIn = 2,   // datagram reached the destination handler
  kQueued = 3,   // held by a pause-queue fault until flushed
  kCrypto = 4,   // onion crypto: modeled cost (virtual clock) or measured
                 // time (wall clock), from ts (detail: build/peel/open)
  kRetry = 5,    // attempt started (attempt number; 1 = first)
  kTimeout = 6,  // attempt timer expired at the source
  kDrop = 7,     // packet positively dead (detail: loss/filter/detach/fault)
  kFault = 8,    // fault fabric touched the packet (detail: fault kind)
  kAck = 9,      // ACK/NACK observed at the source (detail: ack/nack)
  kEnd = 10,     // outcome determined (detail: delivered/no_route/...)
  kMark = 11,    // node-timeline mark (detail: name [key=value]; dur: span or 0)
};
const char* flight_kind_name(FlightKind k);
FlightKind flight_kind_from_name(std::string_view name);

struct FlightEventRec {
  std::uint64_t trace = 0;
  std::uint64_t root = 0;
  FlightKind kind = FlightKind::kBegin;
  std::uint32_t hop = 0;
  std::uint32_t seq = 0;
  std::uint16_t attempt = 0;
  std::uint64_t node = 0;  // node id (0 = unknown)
  std::uint64_t peer = 0;  // destination node for kBegin; 0 otherwise
  std::uint64_t ts = 0;    // virtual microseconds
  std::uint64_t dur = 0;   // crypto cost / injected delay / rtt for kEnd / mark span
  TraceLayer layer = TraceLayer::kNone;
  std::string detail;
};

/// One wire segment of an assembled flight record.
struct FlightHop {
  std::uint16_t attempt = 0;
  std::uint32_t hop = 0;
  std::uint32_t seq = 0;
  std::uint64_t from = 0;
  std::uint64_t to = 0;          // 0 until delivered
  std::uint64_t sent_ts = 0;
  std::uint64_t recv_ts = 0;     // 0 when never delivered
  std::uint64_t prop_us = 0;     // in-flight time minus queueing
  std::uint64_t queue_us = 0;    // fault-injected delay + pause-queue hold
  std::string status;            // "ok", or the drop reason
  std::string fault;             // fault kind that touched this segment
};

/// One message (or root operation) assembled from the event log.
struct FlightRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t root = 0;  // parent root id; 0 when this record is a root
  TraceLayer layer = TraceLayer::kNone;
  std::uint64_t src = 0;
  std::uint64_t dst = 0;
  std::uint64_t begin_ts = 0;
  std::uint64_t end_ts = 0;
  std::string outcome;  // empty = still unresolved at export time
  std::uint16_t attempts = 0;
  /// Retransmitted sends: the final ACK could belong to any attempt, so the
  /// RTT must not feed an estimator (Karn's rule) and the per-hop
  /// decomposition below covers only the final attempt's path.
  bool karn_ambiguous = false;
  std::uint64_t rtt_us = 0;
  // Decomposition of rtt_us (final attempt + its ACK path):
  std::uint64_t crypto_us = 0;
  std::uint64_t prop_us = 0;
  std::uint64_t queue_us = 0;
  /// Time burned on earlier failed attempts (begin -> final attempt start).
  std::uint64_t retry_us = 0;
  /// Critical-path time no other component accounts for: the residual
  /// rtt - (crypto+prop+queue+retry) whenever the critical-path chain
  /// closed and covers less than the RTT, on either clock. On the real
  /// backend it is handler and stack time. On the virtual clock, where
  /// handlers are free, it is usually 0 but not always: the delivered WCL
  /// records under completed exchanges in bench_fig7_delays' default
  /// planetlab run average 14 us of it (ROADMAP item 4's inexact records).
  std::uint64_t proc_us = 0;
  std::string group;  // group label for PPSS roots ("g7000"), else empty
  std::vector<std::string> faults;  // fault kinds encountered, in order
  std::vector<FlightHop> hops;

  /// Sum of the decomposition components; the integration test asserts
  /// |rtt_us - decomposed_us()| <= 1ms for delivered WCL records.
  std::uint64_t decomposed_us() const {
    return crypto_us + prop_us + queue_us + retry_us + proc_us;
  }
};

/// Append-only event log with ambient-context propagation. Disabled (the
/// default) it costs one branch per call site.
class FlightRecorder {
 public:
  void set_clock(std::function<std::uint64_t()> now) { now_ = std::move(now); }
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_ && static_cast<bool>(now_); }
  std::uint64_t now() const { return now_ ? now_() : 0; }

  /// Internal endpoint -> node id, installed by the testbed so network-level
  /// events carry node identities. Unresolvable endpoints record as 0.
  void set_node_resolver(std::function<std::uint64_t(Endpoint)> fn) {
    node_resolver_ = std::move(fn);
  }
  std::uint64_t node_of(Endpoint ep) const {
    return node_resolver_ ? node_resolver_(ep) : 0;
  }

  /// Bound on retained events; beyond it events are dropped (and counted).
  void set_capacity(std::size_t cap) { capacity_ = cap; }
  std::uint64_t dropped() const { return dropped_; }

  /// Namespace this recorder's trace ids: the sharded testbed gives shard s
  /// the base (s << 48), so a trace created on one shard stays unique when
  /// its wire events land on another shard's recorder. Call before any
  /// trace is created.
  void set_id_base(std::uint64_t base) { next_id_ = base + 1; }

  // --- Ambient context (single-threaded, like the simulator). ---
  const TraceContext& context() const { return ctx_; }
  TraceContext exchange_context(TraceContext ctx) {
    TraceContext prev = ctx_;
    ctx_ = ctx;
    return prev;
  }

  // --- Trace creation. ---
  /// Root operation (PPSS exchange, T-Chord lookup). `detail` is free-form
  /// ("group=g7000"). Returns 0 when disabled.
  std::uint64_t new_root(TraceLayer layer, std::uint64_t node, std::string detail = {});
  /// Message-level trace (one WCL send), optionally parented to a root.
  std::uint64_t new_trace(TraceLayer layer, std::uint64_t node, std::uint64_t root,
                          std::uint64_t dst_node);
  /// Namespace this recorder's wire seqs, as set_id_base() does for trace
  /// ids: whisper_noded passes its node id, ScaleTestbed the shard. Two
  /// recorders then never give copies of one trace the same (attempt, hop,
  /// seq) key, which assembly and the Chrome flows pair wire events by. A
  /// seq is (ns << 22) | counter, so namespaces 1,024 apart coincide.
  void set_seq_namespace(std::uint32_t ns) { seq_ns_ = ns << kSeqCounterBits; }
  /// Sequence number for one wire emission (duplication-safe hop pairing).
  /// The counter runs 1 .. 2^22 - 1, then wraps to 1: 4,194,303 copies,
  /// within the default capacity, so a log that dropped nothing never
  /// reuses a seq.
  std::uint32_t next_wire_seq() {
    if (next_seq_ > kSeqCounterMask) next_seq_ = 1;
    return seq_ns_ | next_seq_++;
  }

  // --- Event helpers (all no-ops while disabled or for invalid contexts). ---
  void wire_out(const TraceContext& ctx, std::uint64_t src_node, std::uint64_t ts,
                std::uint64_t extra_delay_us);
  void wire_in(const TraceContext& ctx, std::uint64_t dst_node, std::uint64_t ts);
  void queued(const TraceContext& ctx, std::uint64_t dst_node, std::uint64_t ts,
              std::string detail);
  void crypto(const TraceContext& ctx, std::uint64_t node, std::uint64_t ts,
              std::uint64_t dur, std::string stage);
  void retry(std::uint64_t trace, std::uint64_t node, std::uint64_t ts,
             std::uint16_t attempt);
  void timeout(std::uint64_t trace, std::uint64_t node, std::uint64_t ts,
               std::uint16_t attempt);
  void drop(const TraceContext& ctx, std::uint64_t node, std::uint64_t ts,
            std::string reason);
  void fault(const TraceContext& ctx, std::uint64_t node, std::uint64_t ts,
             std::string kind);
  void ack(std::uint64_t trace, std::uint64_t node, std::uint64_t ts, bool success);
  void end(std::uint64_t trace, std::uint64_t node, std::uint64_t ts,
           std::string outcome, std::uint16_t attempts, std::uint64_t rtt_us);
  /// A protocol event on `node`'s timeline that belongs to no message (a PSS
  /// view exchange, a fault window opening). `dur` > 0 makes it a span
  /// starting at `ts`; the optional key/value pair annotates it. Carries the
  /// ambient trace id, if any, but assembly skips marks: flight records are
  /// the same with or without them.
  void mark(std::uint64_t node, std::uint64_t ts, std::uint64_t dur, std::string_view name,
            std::string_view key = {}, std::string_view value = {});

  const std::vector<FlightEventRec>& events() const { return events_; }
  void clear();

  /// Fold the event log into per-message records (deterministic: order
  /// depends only on trace creation order).
  std::vector<FlightRecord> assemble() const;

 private:
  static constexpr std::uint32_t kSeqCounterBits = 22;
  static constexpr std::uint32_t kSeqCounterMask = (1u << kSeqCounterBits) - 1;

  void push(FlightEventRec ev);

  std::function<std::uint64_t()> now_;
  std::function<std::uint64_t(Endpoint)> node_resolver_;
  bool enabled_ = false;
  std::size_t capacity_ = 1u << 22;
  std::vector<FlightEventRec> events_;
  std::uint64_t dropped_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint32_t seq_ns_ = 0;
  std::uint32_t next_seq_ = 1;
  TraceContext ctx_;
};

/// RAII ambient-context arm/restore; tolerates a null or disabled recorder.
class ScopedTraceContext {
 public:
  ScopedTraceContext() = default;
  ScopedTraceContext(FlightRecorder* rec, TraceContext ctx)
      : rec_(rec != nullptr && rec->enabled() ? rec : nullptr) {
    if (rec_ != nullptr) prev_ = rec_->exchange_context(ctx);
  }
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;
  ~ScopedTraceContext() {
    if (rec_ != nullptr) rec_->exchange_context(prev_);
  }

 private:
  FlightRecorder* rec_ = nullptr;
  TraceContext prev_;
};

/// One JSON object per record. Deterministic: content-ordered, fixed number
/// formats (same contract as the metric exporters).
std::string to_jsonl(const std::vector<FlightRecord>& records);

/// Inverse of to_jsonl, tolerant of unknown keys. Returns false and sets
/// `err` on malformed input.
bool parse_flight_jsonl(std::string_view jsonl, std::vector<FlightRecord>* out,
                        std::string* err);

/// FNV-1a digest of an export — the golden-trace CI gate compares this
/// across same-seed runs.
std::uint64_t flight_digest(std::string_view text);

/// Assembly over an explicit event stream (what FlightRecorder::assemble
/// runs on its own log); per-trace event order is taken from the stream.
/// Marks belong to no record and are skipped.
std::vector<FlightRecord> assemble_flight_events(
    const std::vector<FlightEventRec>& events);

/// Merge per-shard flight logs into one shard-count-invariant record list.
/// Requires each recorder to have a distinct set_id_base(). Events merge
/// into one content-ordered stream (a cross-shard message's events span two
/// recorders), assembly runs over it, then allocation artifacts are erased:
/// records sort by content, trace ids become ordinals of that order, root
/// references are rewritten through the same mapping, and hop seqs become
/// per-record ordinals. Two same-seed runs then export byte-identical JSONL
/// for any shard count — the S=1-vs-S=8 CI gate.
std::vector<FlightRecord> canonical_flight_records(
    const std::vector<const FlightRecorder*>& recorders);

/// Same canonicalization over an explicit merged event stream — the
/// cross-process path: each whisper_noded exports its raw event log
/// (to_events_jsonl), whisper_trace concatenates the per-process files and
/// merges them here. Trace ids must already be globally unique (noded
/// namespaces them with set_id_base(node_id << 48), mirroring the sharded
/// engine's per-shard bases).
std::vector<FlightRecord> canonical_flight_records(
    std::vector<FlightEventRec> events);

/// The canonical tail alone: content-sort already-assembled records,
/// renumber trace ids to ordinals of that order (roots rewritten through
/// the same map, out-of-log roots collapse to 0), hop seqs become
/// per-record ordinals. What whisper_trace runs when merging multiple
/// record-format exports (no raw events available).
std::vector<FlightRecord> canonicalize_flight_records(
    std::vector<FlightRecord> records);

/// One JSON object per raw event (the cross-process interchange format;
/// distinguishable from record JSONL by its "kind" key).
std::string to_events_jsonl(const std::vector<FlightEventRec>& events);

/// Inverse of to_events_jsonl. Returns false and sets `err` on malformed
/// input.
bool parse_flight_events_jsonl(std::string_view jsonl,
                               std::vector<FlightEventRec>* out, std::string* err);

}  // namespace whisper::telemetry
