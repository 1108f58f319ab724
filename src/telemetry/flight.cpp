#include "telemetry/flight.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <tuple>
#include <utility>

namespace whisper::telemetry {

const char* trace_layer_name(TraceLayer l) {
  switch (l) {
    case TraceLayer::kNone: return "none";
    case TraceLayer::kWcl: return "wcl";
    case TraceLayer::kPpss: return "ppss";
    case TraceLayer::kChord: return "chord";
    case TraceLayer::kNylon: return "nylon";
    case TraceLayer::kApp: return "app";
  }
  return "none";
}

TraceLayer trace_layer_from_name(std::string_view name) {
  if (name == "wcl") return TraceLayer::kWcl;
  if (name == "ppss") return TraceLayer::kPpss;
  if (name == "chord") return TraceLayer::kChord;
  if (name == "nylon") return TraceLayer::kNylon;
  if (name == "app") return TraceLayer::kApp;
  return TraceLayer::kNone;
}

const char* flight_kind_name(FlightKind k) {
  switch (k) {
    case FlightKind::kBegin: return "begin";
    case FlightKind::kWireOut: return "wire_out";
    case FlightKind::kWireIn: return "wire_in";
    case FlightKind::kQueued: return "queued";
    case FlightKind::kCrypto: return "crypto";
    case FlightKind::kRetry: return "retry";
    case FlightKind::kTimeout: return "timeout";
    case FlightKind::kDrop: return "drop";
    case FlightKind::kFault: return "fault";
    case FlightKind::kAck: return "ack";
    case FlightKind::kEnd: return "end";
    case FlightKind::kMark: return "mark";
  }
  return "unknown";
}

FlightKind flight_kind_from_name(std::string_view name) {
  if (name == "wire_out") return FlightKind::kWireOut;
  if (name == "wire_in") return FlightKind::kWireIn;
  if (name == "queued") return FlightKind::kQueued;
  if (name == "crypto") return FlightKind::kCrypto;
  if (name == "retry") return FlightKind::kRetry;
  if (name == "timeout") return FlightKind::kTimeout;
  if (name == "drop") return FlightKind::kDrop;
  if (name == "fault") return FlightKind::kFault;
  if (name == "ack") return FlightKind::kAck;
  if (name == "end") return FlightKind::kEnd;
  if (name == "mark") return FlightKind::kMark;
  return FlightKind::kBegin;
}

void FlightRecorder::push(FlightEventRec ev) {
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(ev));
}

void FlightRecorder::clear() {
  events_.clear();
  dropped_ = 0;
  next_id_ = 1;
  next_seq_ = 1;
  ctx_ = TraceContext{};
}

std::uint64_t FlightRecorder::new_root(TraceLayer layer, std::uint64_t node,
                                       std::string detail) {
  if (!enabled()) return 0;
  const std::uint64_t id = next_id_++;
  FlightEventRec ev;
  ev.trace = id;
  ev.kind = FlightKind::kBegin;
  ev.node = node;
  ev.ts = now();
  ev.layer = layer;
  ev.detail = std::move(detail);
  push(std::move(ev));
  return id;
}

std::uint64_t FlightRecorder::new_trace(TraceLayer layer, std::uint64_t node,
                                        std::uint64_t root, std::uint64_t dst_node) {
  if (!enabled()) return 0;
  const std::uint64_t id = next_id_++;
  FlightEventRec ev;
  ev.trace = id;
  ev.root = root;
  ev.kind = FlightKind::kBegin;
  ev.node = node;
  ev.peer = dst_node;
  ev.ts = now();
  ev.layer = layer;
  push(std::move(ev));
  return id;
}

void FlightRecorder::wire_out(const TraceContext& ctx, std::uint64_t src_node,
                              std::uint64_t ts, std::uint64_t extra_delay_us) {
  if (!enabled() || !ctx.valid()) return;
  push(FlightEventRec{ctx.trace_id, ctx.root, FlightKind::kWireOut, ctx.hop, ctx.seq,
                      ctx.attempt, src_node, 0, ts, extra_delay_us, ctx.layer, {}});
}

void FlightRecorder::wire_in(const TraceContext& ctx, std::uint64_t dst_node,
                             std::uint64_t ts) {
  if (!enabled() || !ctx.valid()) return;
  push(FlightEventRec{ctx.trace_id, ctx.root, FlightKind::kWireIn, ctx.hop, ctx.seq,
                      ctx.attempt, dst_node, 0, ts, 0, ctx.layer, {}});
}

void FlightRecorder::queued(const TraceContext& ctx, std::uint64_t dst_node,
                            std::uint64_t ts, std::string detail) {
  if (!enabled() || !ctx.valid()) return;
  push(FlightEventRec{ctx.trace_id, ctx.root, FlightKind::kQueued, ctx.hop, ctx.seq,
                      ctx.attempt, dst_node, 0, ts, 0, ctx.layer, std::move(detail)});
}

void FlightRecorder::crypto(const TraceContext& ctx, std::uint64_t node, std::uint64_t ts,
                            std::uint64_t dur, std::string stage) {
  if (!enabled() || !ctx.valid()) return;
  push(FlightEventRec{ctx.trace_id, ctx.root, FlightKind::kCrypto, ctx.hop, 0, ctx.attempt,
                      node, 0, ts, dur, ctx.layer, std::move(stage)});
}

void FlightRecorder::retry(std::uint64_t trace, std::uint64_t node, std::uint64_t ts,
                           std::uint16_t attempt) {
  if (!enabled() || trace == 0) return;
  push(FlightEventRec{trace, 0, FlightKind::kRetry, 0, 0, attempt, node, 0, ts, 0,
                      TraceLayer::kNone, {}});
}

void FlightRecorder::timeout(std::uint64_t trace, std::uint64_t node, std::uint64_t ts,
                             std::uint16_t attempt) {
  if (!enabled() || trace == 0) return;
  push(FlightEventRec{trace, 0, FlightKind::kTimeout, 0, 0, attempt, node, 0, ts, 0,
                      TraceLayer::kNone, {}});
}

void FlightRecorder::drop(const TraceContext& ctx, std::uint64_t node, std::uint64_t ts,
                          std::string reason) {
  if (!enabled() || !ctx.valid()) return;
  push(FlightEventRec{ctx.trace_id, ctx.root, FlightKind::kDrop, ctx.hop, ctx.seq,
                      ctx.attempt, node, 0, ts, 0, ctx.layer, std::move(reason)});
}

void FlightRecorder::fault(const TraceContext& ctx, std::uint64_t node, std::uint64_t ts,
                           std::string kind) {
  if (!enabled() || !ctx.valid()) return;
  push(FlightEventRec{ctx.trace_id, ctx.root, FlightKind::kFault, ctx.hop, ctx.seq,
                      ctx.attempt, node, 0, ts, 0, ctx.layer, std::move(kind)});
}

void FlightRecorder::ack(std::uint64_t trace, std::uint64_t node, std::uint64_t ts,
                         bool success) {
  if (!enabled() || trace == 0) return;
  push(FlightEventRec{trace, 0, FlightKind::kAck, 0, 0, 0, node, 0, ts, 0,
                      TraceLayer::kNone, success ? "ack" : "nack"});
}

void FlightRecorder::end(std::uint64_t trace, std::uint64_t node, std::uint64_t ts,
                         std::string outcome, std::uint16_t attempts,
                         std::uint64_t rtt_us) {
  if (!enabled() || trace == 0) return;
  push(FlightEventRec{trace, 0, FlightKind::kEnd, 0, 0, attempts, node, 0, ts, rtt_us,
                      TraceLayer::kNone, std::move(outcome)});
}

void FlightRecorder::mark(std::uint64_t node, std::uint64_t ts, std::uint64_t dur,
                          std::string_view name, std::string_view key,
                          std::string_view value) {
  if (!enabled()) return;
  std::string detail(name);
  if (!key.empty()) {
    detail += ' ';
    detail += key;
    detail += '=';
    detail += value;
  }
  push(FlightEventRec{ctx_.trace_id, ctx_.root, FlightKind::kMark, 0, 0, 0, node, 0, ts, dur,
                      TraceLayer::kNone, std::move(detail)});
}

std::vector<FlightRecord> FlightRecorder::assemble() const {
  return assemble_flight_events(events_);
}

std::vector<FlightRecord> assemble_flight_events(
    const std::vector<FlightEventRec>& events) {
  // Trace ids are minted sequentially, so a sorted map yields records in
  // creation order — deterministic across same-seed runs. Per-trace event
  // order is the caller's: the recorder passes its time-ordered log; the
  // canonical multi-shard path passes a content-sorted merge.
  std::map<std::uint64_t, std::vector<const FlightEventRec*>> by_trace;
  for (const FlightEventRec& ev : events) {
    if (ev.kind != FlightKind::kMark) by_trace[ev.trace].push_back(&ev);
  }

  std::vector<FlightRecord> out;
  out.reserve(by_trace.size());
  for (const auto& [trace_id, evs] : by_trace) {
    FlightRecord rec;
    rec.trace_id = trace_id;

    // Hop segments keyed by (attempt, hop, seq) — duplication-safe: every
    // wire copy got its own seq at emission time.
    std::map<std::tuple<std::uint16_t, std::uint32_t, std::uint32_t>, FlightHop> hops;
    std::map<std::tuple<std::uint16_t, std::uint32_t, std::uint32_t>, std::uint64_t>
        queued_at;
    std::uint16_t max_retry_attempt = 0;
    std::uint64_t last_retry_ts = 0;

    // Traffic sent from inside a delivery handler inherits the ambient
    // context, so causally-downstream sends (backlog drains, piggybacked
    // replies) land in this trace's log after its kEnd. The log is
    // time-ordered: everything past kEnd is downstream effect, not part of
    // the message's own flight — excluded from hops and decomposition.
    bool ended = false;

    for (const FlightEventRec* ev : evs) {
      const auto key = std::make_tuple(ev->attempt, ev->hop, ev->seq);
      if (ended && ev->kind != FlightKind::kEnd) continue;
      switch (ev->kind) {
        case FlightKind::kBegin:
          rec.root = ev->root;
          rec.layer = ev->layer;
          rec.src = ev->node;
          rec.dst = ev->peer;
          rec.begin_ts = ev->ts;
          if (ev->detail.rfind("group=", 0) == 0) rec.group = ev->detail.substr(6);
          break;
        case FlightKind::kWireOut: {
          FlightHop& h = hops[key];
          h.attempt = ev->attempt;
          h.hop = ev->hop;
          h.seq = ev->seq;
          h.from = ev->node;
          h.sent_ts = ev->ts;
          h.queue_us += ev->dur;  // fault-injected extra delay
          if (h.status.empty()) h.status = "in_flight";
          break;
        }
        case FlightKind::kWireIn: {
          FlightHop& h = hops[key];
          h.attempt = ev->attempt;
          h.hop = ev->hop;
          h.seq = ev->seq;
          h.to = ev->node;
          h.recv_ts = ev->ts;
          h.status = "ok";
          break;
        }
        case FlightKind::kQueued:
          queued_at[key] = ev->ts;
          break;
        case FlightKind::kCrypto:
          break;  // summed below once the final attempt is known
        case FlightKind::kRetry:
          if (ev->attempt > max_retry_attempt) {
            max_retry_attempt = ev->attempt;
            last_retry_ts = ev->ts;
          }
          rec.attempts = std::max(rec.attempts, ev->attempt);
          break;
        case FlightKind::kTimeout:
          break;
        case FlightKind::kDrop: {
          FlightHop& h = hops[key];
          h.attempt = ev->attempt;
          h.hop = ev->hop;
          h.seq = ev->seq;
          if (h.from == 0) h.from = ev->node;
          if (h.sent_ts == 0) h.sent_ts = ev->ts;
          h.status = ev->detail;
          break;
        }
        case FlightKind::kFault: {
          rec.faults.push_back(ev->detail);
          // Attach to the matching segment; fall back to (attempt, hop)
          // when the fault fired before a seq was stamped.
          auto it = hops.find(key);
          if (it == hops.end()) {
            for (auto& [k, h] : hops) {
              if (std::get<0>(k) == ev->attempt && std::get<1>(k) == ev->hop) {
                it = hops.find(k);
                break;
              }
            }
          }
          if (it != hops.end() && it->second.fault.empty()) it->second.fault = ev->detail;
          break;
        }
        case FlightKind::kAck:
          break;
        case FlightKind::kEnd:
          rec.end_ts = ev->ts;
          rec.outcome = ev->detail;
          rec.attempts = std::max(rec.attempts, ev->attempt);
          rec.rtt_us = ev->dur;
          ended = true;
          break;
        case FlightKind::kMark:
          break;  // filtered out above
      }
    }

    // Late fault events may precede their segment in map order; attach any
    // still-unmatched fault names to segments missing one.
    for (auto& [key, hop] : hops) {
      const std::uint64_t queued_ts =
          queued_at.contains(key) ? queued_at.at(key) : 0;
      if (queued_ts != 0 && hop.recv_ts >= queued_ts) {
        hop.queue_us += hop.recv_ts - queued_ts;
      }
      if (hop.recv_ts > hop.sent_ts) {
        const std::uint64_t total = hop.recv_ts - hop.sent_ts;
        hop.prop_us = total > hop.queue_us ? total - hop.queue_us : 0;
      }
    }

    const std::uint16_t final_attempt = max_retry_attempt;
    if (rec.attempts == 0 && final_attempt > 0) rec.attempts = final_attempt;
    rec.karn_ambiguous = rec.attempts > 1;

    // Decomposition over the final attempt's causal chain (attempt 0 events
    // come from layers that do not track attempts — count them when the
    // trace never retried).
    // When each node's crypto at each hop depth ended, for the chain search
    // below.
    std::map<std::pair<std::uint64_t, std::uint32_t>, std::uint64_t> crypto_end;
    ended = false;
    for (const FlightEventRec* ev : evs) {
      if (ev->kind == FlightKind::kEnd) ended = true;
      if (ended) continue;
      const bool in_final = final_attempt == 0 || ev->attempt == final_attempt ||
                            (ev->attempt == 0 && final_attempt <= 1);
      if (ev->kind == FlightKind::kCrypto && in_final) {
        rec.crypto_us += ev->dur;
        std::uint64_t& end = crypto_end[{ev->node, ev->hop}];
        end = std::max(end, ev->ts + ev->dur);
      }
    }
    std::vector<const FlightHop*> final_ok;
    for (const auto& [key, hop] : hops) {
      const bool in_final = final_attempt == 0 || std::get<0>(key) == final_attempt ||
                            (std::get<0>(key) == 0 && final_attempt <= 1);
      if (in_final && hop.status == "ok") final_ok.push_back(&hop);
      rec.hops.push_back(hop);
    }

    // Propagation/queueing over the *critical path*: the single causal
    // chain src -> ... -> src whose last hop lands on the kEnd timestamp.
    // Handlers emit unrelated traffic under the ambient context (transport
    // echoes, piggybacked replies), so one hop depth can hold parallel
    // branches; summing them all would overshoot the RTT. Depth-first
    // search over (hop index, emitter, time-contiguity) recovers the chain
    // deterministically — hop fan-out is tiny.
    bool chained = false;
    if (rec.outcome == "delivered" && rec.end_ts > 0) {
      std::vector<const FlightHop*> chain;
      std::vector<bool> used(final_ok.size(), false);
      // `seen_dst` forces the chain through the true destination — echo
      // branches can close a src -> src loop without ever reaching it.
      // `exact` requires the closing hop to land on the kEnd timestamp —
      // true under the virtual clock, where delivery and outcome share an
      // instant. On the real backend the outcome is stamped inside the ack
      // handler, microseconds *after* the final wire_in, so a second pass
      // relaxes the close to recv_ts <= end_ts (still through dst, still
      // ending at src). The exact pass always runs first, so sim behavior
      // is unchanged. The relaxed pass also lets a hop leave a node only
      // once that node's crypto at the same depth has ended: the onion
      // moves on after its peel, the ACK after the open. Otherwise a route
      // probe the transport sends beside the onion, with its reply, forms a
      // shortcut whose flight overlaps the crypto.
      auto dfs = [&](auto&& self, std::uint64_t node, std::uint32_t depth,
                     std::uint64_t t, bool seen_dst, bool exact) -> bool {
        std::uint64_t leave = t;
        if (auto c = crypto_end.find({node, depth}); !exact && c != crypto_end.end()) {
          leave = std::max(leave, c->second);
        }
        for (std::size_t i = 0; i < final_ok.size(); ++i) {
          const FlightHop* h = final_ok[i];
          if (used[i] || h->hop != depth || h->from != node || h->sent_ts < leave) continue;
          used[i] = true;
          chain.push_back(h);
          const bool arrived = seen_dst || h->to == rec.dst;
          const bool closes = exact ? h->recv_ts == rec.end_ts
                                    : h->recv_ts <= rec.end_ts;
          if ((arrived && h->to == rec.src && closes) ||
              self(self, h->to, depth + 1, h->recv_ts, arrived, exact)) {
            return true;
          }
          chain.pop_back();
          used[i] = false;
        }
        return false;
      };
      if (dfs(dfs, rec.src, 0, rec.begin_ts, false, true) ||
          (chain.clear(), used.assign(final_ok.size(), false),
           dfs(dfs, rec.src, 0, rec.begin_ts, false, false))) {
        for (const FlightHop* h : chain) {
          rec.prop_us += h->prop_us;
          rec.queue_us += h->queue_us;
        }
        chained = true;
      }
    }
    if (!chained) {
      for (const FlightHop* h : final_ok) {
        rec.prop_us += h->prop_us;
        rec.queue_us += h->queue_us;
      }
    }
    if (final_attempt > 1 && last_retry_ts > rec.begin_ts) {
      rec.retry_us = last_retry_ts - rec.begin_ts;
    }
    // Critical-path residual: time the other components can't see (handler
    // and stack time on the real backend). It closes the decomposition, so
    // decomposed_us() == rtt_us for every chained delivery whose components
    // sum to less than the RTT, on either clock.
    if (chained && rec.rtt_us > 0) {
      const std::uint64_t sum =
          rec.crypto_us + rec.prop_us + rec.queue_us + rec.retry_us;
      if (rec.rtt_us > sum) rec.proc_us = rec.rtt_us - sum;
    }
    std::sort(rec.hops.begin(), rec.hops.end(), [](const FlightHop& a, const FlightHop& b) {
      if (a.attempt != b.attempt) return a.attempt < b.attempt;
      if (a.hop != b.hop) return a.hop < b.hop;
      return a.seq < b.seq;
    });
    out.push_back(std::move(rec));
  }
  return out;
}

// --- JSONL export / parse ------------------------------------------------

namespace {

std::string fmt_u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

void append_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

std::string to_jsonl(const std::vector<FlightRecord>& records) {
  std::string out;
  for (const FlightRecord& r : records) {
    out += "{\"trace\":" + fmt_u64(r.trace_id);
    out += ",\"root\":" + fmt_u64(r.root);
    out += ",\"layer\":\"";
    out += trace_layer_name(r.layer);
    out += "\",\"src\":" + fmt_u64(r.src);
    out += ",\"dst\":" + fmt_u64(r.dst);
    out += ",\"begin\":" + fmt_u64(r.begin_ts);
    out += ",\"end\":" + fmt_u64(r.end_ts);
    out += ",\"outcome\":\"";
    append_escaped(out, r.outcome);
    out += "\",\"attempts\":" + fmt_u64(r.attempts);
    out += ",\"karn\":";
    out += r.karn_ambiguous ? "true" : "false";
    out += ",\"rtt_us\":" + fmt_u64(r.rtt_us);
    out += ",\"crypto_us\":" + fmt_u64(r.crypto_us);
    out += ",\"prop_us\":" + fmt_u64(r.prop_us);
    out += ",\"queue_us\":" + fmt_u64(r.queue_us);
    out += ",\"retry_us\":" + fmt_u64(r.retry_us);
    out += ",\"proc_us\":" + fmt_u64(r.proc_us);
    out += ",\"group\":\"";
    append_escaped(out, r.group);
    out += "\",\"faults\":[";
    for (std::size_t i = 0; i < r.faults.size(); ++i) {
      if (i) out += ',';
      out += '"';
      append_escaped(out, r.faults[i]);
      out += '"';
    }
    out += "],\"hops\":[";
    for (std::size_t i = 0; i < r.hops.size(); ++i) {
      const FlightHop& h = r.hops[i];
      if (i) out += ',';
      out += "{\"attempt\":" + fmt_u64(h.attempt);
      out += ",\"hop\":" + fmt_u64(h.hop);
      out += ",\"seq\":" + fmt_u64(h.seq);
      out += ",\"from\":" + fmt_u64(h.from);
      out += ",\"to\":" + fmt_u64(h.to);
      out += ",\"sent\":" + fmt_u64(h.sent_ts);
      out += ",\"recv\":" + fmt_u64(h.recv_ts);
      out += ",\"prop_us\":" + fmt_u64(h.prop_us);
      out += ",\"queue_us\":" + fmt_u64(h.queue_us);
      out += ",\"status\":\"";
      append_escaped(out, h.status);
      out += "\",\"fault\":\"";
      append_escaped(out, h.fault);
      out += "\"}";
    }
    out += "]}\n";
  }
  return out;
}

namespace {

/// Minimal JSON value for the flight-record parser. Only what our own
/// exporter emits (objects, arrays, strings, unsigned numbers, booleans).
struct JsonV {
  enum class Type { kNull, kBool, kNum, kStr, kArr, kObj };
  Type type = Type::kNull;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<JsonV> arr;
  std::vector<std::pair<std::string, JsonV>> obj;

  const JsonV* get(std::string_view key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  std::uint64_t u64(std::string_view key) const {
    const JsonV* v = get(key);
    return v != nullptr && v->type == Type::kNum ? static_cast<std::uint64_t>(v->num) : 0;
  }
  std::string str_of(std::string_view key) const {
    const JsonV* v = get(key);
    return v != nullptr && v->type == Type::kStr ? v->str : std::string{};
  }
  bool bool_of(std::string_view key) const {
    const JsonV* v = get(key);
    return v != nullptr && v->type == Type::kBool && v->b;
  }
};

class JsonParser {
 public:
  JsonParser(std::string_view text, std::string* err) : s_(text), err_(err) {}

  bool parse(JsonV* out) { return value(out) && (skip_ws(), true); }
  std::size_t pos() const { return pos_; }

 private:
  bool fail(const char* what) {
    if (err_ != nullptr && err_->empty()) {
      *err_ = std::string(what) + " at offset " + std::to_string(pos_);
    }
    return false;
  }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool string(std::string* out) {
    skip_ws();
    if (pos_ >= s_.size() || s_[pos_] != '"') return fail("expected string");
    ++pos_;
    out->clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        const char e = s_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return fail("bad \\u escape");
            unsigned v = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = s_[pos_++];
              v <<= 4;
              if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad \\u escape");
            }
            c = static_cast<char>(v & 0xff);
            break;
          }
          default: c = e;
        }
      }
      *out += c;
    }
    if (pos_ >= s_.size()) return fail("unterminated string");
    ++pos_;  // closing quote
    return true;
  }
  bool value(JsonV* out) {
    skip_ws();
    if (pos_ >= s_.size()) return fail("unexpected end");
    const char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      out->type = JsonV::Type::kObj;
      skip_ws();
      if (consume('}')) return true;
      while (true) {
        std::string key;
        if (!string(&key)) return false;
        if (!consume(':')) return fail("expected ':'");
        JsonV v;
        if (!value(&v)) return false;
        out->obj.emplace_back(std::move(key), std::move(v));
        if (consume(',')) continue;
        if (consume('}')) return true;
        return fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      ++pos_;
      out->type = JsonV::Type::kArr;
      skip_ws();
      if (consume(']')) return true;
      while (true) {
        JsonV v;
        if (!value(&v)) return false;
        out->arr.push_back(std::move(v));
        if (consume(',')) continue;
        if (consume(']')) return true;
        return fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      out->type = JsonV::Type::kStr;
      return string(&out->str);
    }
    if (c == 't' && s_.substr(pos_, 4) == "true") {
      out->type = JsonV::Type::kBool;
      out->b = true;
      pos_ += 4;
      return true;
    }
    if (c == 'f' && s_.substr(pos_, 5) == "false") {
      out->type = JsonV::Type::kBool;
      pos_ += 5;
      return true;
    }
    if (c == 'n' && s_.substr(pos_, 4) == "null") {
      pos_ += 4;
      return true;
    }
    // Number.
    std::size_t end = pos_;
    while (end < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[end])) || s_[end] == '-' ||
            s_[end] == '+' || s_[end] == '.' || s_[end] == 'e' || s_[end] == 'E')) {
      ++end;
    }
    if (end == pos_) return fail("unexpected character");
    out->type = JsonV::Type::kNum;
    out->num = std::strtod(std::string(s_.substr(pos_, end - pos_)).c_str(), nullptr);
    pos_ = end;
    return true;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  std::string* err_;
};

}  // namespace

bool parse_flight_jsonl(std::string_view jsonl, std::vector<FlightRecord>* out,
                        std::string* err) {
  out->clear();
  std::size_t pos = 0;
  std::size_t line_no = 0;
  while (pos < jsonl.size()) {
    std::size_t nl = jsonl.find('\n', pos);
    if (nl == std::string_view::npos) nl = jsonl.size();
    const std::string_view line = jsonl.substr(pos, nl - pos);
    pos = nl + 1;
    ++line_no;
    if (line.empty()) continue;
    JsonV v;
    std::string perr;
    JsonParser parser(line, &perr);
    if (!parser.parse(&v) || v.type != JsonV::Type::kObj) {
      if (err != nullptr) {
        *err = "line " + std::to_string(line_no) + ": " +
               (perr.empty() ? "not a JSON object" : perr);
      }
      return false;
    }
    FlightRecord r;
    r.trace_id = v.u64("trace");
    r.root = v.u64("root");
    r.layer = trace_layer_from_name(v.str_of("layer"));
    r.src = v.u64("src");
    r.dst = v.u64("dst");
    r.begin_ts = v.u64("begin");
    r.end_ts = v.u64("end");
    r.outcome = v.str_of("outcome");
    r.attempts = static_cast<std::uint16_t>(v.u64("attempts"));
    r.karn_ambiguous = v.bool_of("karn");
    r.rtt_us = v.u64("rtt_us");
    r.crypto_us = v.u64("crypto_us");
    r.prop_us = v.u64("prop_us");
    r.queue_us = v.u64("queue_us");
    r.retry_us = v.u64("retry_us");
    r.proc_us = v.u64("proc_us");
    r.group = v.str_of("group");
    if (const JsonV* faults = v.get("faults"); faults != nullptr) {
      for (const JsonV& f : faults->arr) {
        if (f.type == JsonV::Type::kStr) r.faults.push_back(f.str);
      }
    }
    if (const JsonV* hops = v.get("hops"); hops != nullptr) {
      for (const JsonV& hv : hops->arr) {
        if (hv.type != JsonV::Type::kObj) continue;
        FlightHop h;
        h.attempt = static_cast<std::uint16_t>(hv.u64("attempt"));
        h.hop = static_cast<std::uint32_t>(hv.u64("hop"));
        h.seq = static_cast<std::uint32_t>(hv.u64("seq"));
        h.from = hv.u64("from");
        h.to = hv.u64("to");
        h.sent_ts = hv.u64("sent");
        h.recv_ts = hv.u64("recv");
        h.prop_us = hv.u64("prop_us");
        h.queue_us = hv.u64("queue_us");
        h.status = hv.str_of("status");
        h.fault = hv.str_of("fault");
        r.hops.push_back(std::move(h));
      }
    }
    out->push_back(std::move(r));
  }
  return true;
}

std::uint64_t flight_digest(std::string_view text) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

// Orders records by content alone — every field that is a property of the
// traffic, none that is a recorder-allocation artifact (trace_id, root,
// hop seqs). Ties mean byte-identical canonical output either way.
bool content_less(const FlightRecord& a, const FlightRecord& b) {
  auto head = [](const FlightRecord& r) {
    return std::tie(r.begin_ts, r.layer, r.src, r.dst, r.end_ts, r.outcome,
                    r.attempts, r.rtt_us, r.crypto_us, r.prop_us, r.queue_us,
                    r.retry_us, r.proc_us, r.group);
  };
  if (head(a) != head(b)) return head(a) < head(b);
  if (a.faults != b.faults) return a.faults < b.faults;
  if (a.hops.size() != b.hops.size()) return a.hops.size() < b.hops.size();
  for (std::size_t i = 0; i < a.hops.size(); ++i) {
    const FlightHop& x = a.hops[i];
    const FlightHop& y = b.hops[i];
    auto hk = [](const FlightHop& h) {
      return std::tie(h.sent_ts, h.recv_ts, h.attempt, h.hop, h.from, h.to,
                      h.prop_us, h.queue_us, h.status, h.fault);
    };
    if (hk(x) != hk(y)) return hk(x) < hk(y);
  }
  return false;
}

}  // namespace

std::vector<FlightRecord> canonical_flight_records(
    const std::vector<const FlightRecorder*>& recorders) {
  // A cross-shard message's events are split across recorders: the source
  // shard logs kBegin/kWireOut, the destination shard logs kWireIn — under
  // the same trace id, which set_id_base() keeps globally unique. Merge the
  // logs into one stream and canonicalize.
  std::vector<FlightEventRec> merged;
  for (const FlightRecorder* rec : recorders) {
    if (rec == nullptr) continue;
    merged.insert(merged.end(), rec->events().begin(), rec->events().end());
  }
  return canonical_flight_records(std::move(merged));
}

std::vector<FlightRecord> canonical_flight_records(
    std::vector<FlightEventRec> merged) {
  // Impose a *content* order on the merged stream (pure function of the
  // event fields, so independent of execution interleaving — or of which
  // process/shard logged which half of a message), then run the standard
  // assembly over it.
  std::sort(merged.begin(), merged.end(),
            [](const FlightEventRec& a, const FlightEventRec& b) {
              auto key = [](const FlightEventRec& e) {
                return std::tie(e.trace, e.ts, e.kind, e.node, e.attempt, e.hop,
                                e.seq, e.peer, e.dur, e.layer, e.root, e.detail);
              };
              return key(a) < key(b);
            });

  return canonicalize_flight_records(assemble_flight_events(merged));
}

std::vector<FlightRecord> canonicalize_flight_records(
    std::vector<FlightRecord> all) {
  // Hop lists come back sorted by (attempt, hop, seq), but seqs are
  // per-recorder allocation artifacts; re-sort parallel branches at the
  // same depth by wire content before renumbering.
  for (FlightRecord& r : all) {
    std::sort(r.hops.begin(), r.hops.end(), [](const FlightHop& a, const FlightHop& b) {
      auto hk = [](const FlightHop& h) {
        return std::tie(h.attempt, h.hop, h.sent_ts, h.recv_ts, h.from, h.to,
                        h.prop_us, h.queue_us, h.status, h.fault, h.seq);
      };
      return hk(a) < hk(b);
    });
  }

  std::vector<std::size_t> order(all.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return content_less(all[a], all[b]);
  });

  std::map<std::uint64_t, std::uint64_t> renumber;
  for (std::size_t i = 0; i < order.size(); ++i) {
    renumber[all[order[i]].trace_id] = i + 1;
  }

  std::vector<FlightRecord> out;
  out.reserve(all.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    FlightRecord r = std::move(all[order[i]]);
    r.trace_id = i + 1;
    if (r.root != 0) {
      // A root reference outside the log (capacity-dropped parent) has no
      // canonical number; exporting the stale recorder-local id would break
      // shard-count invariance, so it collapses to 0.
      auto it = renumber.find(r.root);
      r.root = it == renumber.end() ? 0 : it->second;
    }
    for (std::size_t j = 0; j < r.hops.size(); ++j) {
      r.hops[j].seq = static_cast<std::uint32_t>(j + 1);
    }
    out.push_back(std::move(r));
  }
  return out;
}

// --- Raw-event JSONL (cross-process interchange) --------------------------

std::string to_events_jsonl(const std::vector<FlightEventRec>& events) {
  std::string out;
  for (const FlightEventRec& e : events) {
    out += "{\"trace\":" + fmt_u64(e.trace);
    out += ",\"root\":" + fmt_u64(e.root);
    out += ",\"kind\":\"";
    out += flight_kind_name(e.kind);
    out += "\",\"hop\":" + fmt_u64(e.hop);
    out += ",\"seq\":" + fmt_u64(e.seq);
    out += ",\"attempt\":" + fmt_u64(e.attempt);
    out += ",\"node\":" + fmt_u64(e.node);
    out += ",\"peer\":" + fmt_u64(e.peer);
    out += ",\"ts\":" + fmt_u64(e.ts);
    out += ",\"dur\":" + fmt_u64(e.dur);
    out += ",\"layer\":\"";
    out += trace_layer_name(e.layer);
    out += "\",\"detail\":\"";
    append_escaped(out, e.detail);
    out += "\"}\n";
  }
  return out;
}

bool parse_flight_events_jsonl(std::string_view jsonl,
                               std::vector<FlightEventRec>* out, std::string* err) {
  out->clear();
  std::size_t pos = 0;
  std::size_t line_no = 0;
  while (pos < jsonl.size()) {
    std::size_t nl = jsonl.find('\n', pos);
    if (nl == std::string_view::npos) nl = jsonl.size();
    const std::string_view line = jsonl.substr(pos, nl - pos);
    pos = nl + 1;
    ++line_no;
    if (line.empty()) continue;
    JsonV v;
    std::string perr;
    JsonParser parser(line, &perr);
    if (!parser.parse(&v) || v.type != JsonV::Type::kObj) {
      if (err != nullptr) {
        *err = "line " + std::to_string(line_no) + ": " +
               (perr.empty() ? "not a JSON object" : perr);
      }
      return false;
    }
    if (v.get("kind") == nullptr) {
      if (err != nullptr) {
        *err = "line " + std::to_string(line_no) + ": not a flight event (no kind)";
      }
      return false;
    }
    FlightEventRec e;
    e.trace = v.u64("trace");
    e.root = v.u64("root");
    e.kind = flight_kind_from_name(v.str_of("kind"));
    e.hop = static_cast<std::uint32_t>(v.u64("hop"));
    e.seq = static_cast<std::uint32_t>(v.u64("seq"));
    e.attempt = static_cast<std::uint16_t>(v.u64("attempt"));
    e.node = v.u64("node");
    e.peer = v.u64("peer");
    e.ts = v.u64("ts");
    e.dur = v.u64("dur");
    e.layer = trace_layer_from_name(v.str_of("layer"));
    e.detail = v.str_of("detail");
    out->push_back(std::move(e));
  }
  return true;
}

}  // namespace whisper::telemetry
