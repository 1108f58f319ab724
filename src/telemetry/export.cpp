#include "telemetry/export.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <tuple>

namespace whisper::telemetry {

namespace {

std::string fmt_u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

void append_labels(std::string& out, LabelView labels) {
  out += "{";
  for (auto it = labels.begin(); it != labels.end(); ++it) {
    if (it != labels.begin()) out += ',';
    const auto [key, value] = *it;
    out += '"';
    out += json_escape(key);
    out += "\":\"";
    out += json_escape(value);
    out += '"';
  }
  out += "}";
}

/// One Chrome trace event; `args` holds the args object's members.
struct ChromeEvent {
  std::string_view name;
  std::string_view cat;
  char ph = 'X';  // 'X' complete, 'i' instant, 's'/'f' flow
  std::uint64_t ts = 0;
  std::uint64_t dur = 0;   // 'X' only
  std::uint64_t tid = 0;   // node id: one timeline row per node
  std::uint64_t flow = 0;  // 's'/'f' only
  std::string args;
};

void append_arg(std::string& args, std::string_view key, std::string_view value) {
  if (!args.empty()) args += ',';
  args += '"';
  args += json_escape(key);
  args += "\":\"";
  args += json_escape(value);
  args += '"';
}

void append_event(std::string& out, const ChromeEvent& ev) {
  out += "\n{\"name\":\"";
  out += json_escape(ev.name);
  out += "\",\"cat\":\"";
  out += json_escape(ev.cat);
  out += "\",\"ph\":\"";
  out += ev.ph;
  out += "\",\"ts\":";
  out += fmt_u64(ev.ts);
  if (ev.ph == 'X') {
    out += ",\"dur\":";
    out += fmt_u64(ev.dur);
  }
  if (ev.ph == 'i') out += ",\"s\":\"t\"";
  if (ev.ph == 's' || ev.ph == 'f') {
    out += ",\"id\":";
    out += fmt_u64(ev.flow);
    // "bp":"e" binds the finish to the enclosing slice so Perfetto draws
    // the arrow even when the slices don't overlap in time.
    if (ev.ph == 'f') out += ",\"bp\":\"e\"";
  }
  out += ",\"pid\":1,\"tid\":";
  out += fmt_u64(ev.tid);
  if (!ev.args.empty()) {
    out += ",\"args\":{";
    out += ev.args;
    out += '}';
  }
  out += '}';
}

/// The Chrome event a root's outcome renders as (see to_chrome_trace).
struct OutcomeEvent {
  TraceLayer layer;
  std::string_view outcome;
  char ph;
  std::string_view name;
};
constexpr OutcomeEvent kOutcomeEvents[] = {
    {TraceLayer::kPpss, "completed", 'X', "ppss.exchange"},
    {TraceLayer::kPpss, "timeout", 'i', "ppss.exchange.timeout"},
    {TraceLayer::kChord, "completed", 'X', "chord.lookup"},
    {TraceLayer::kChord, "timeout", 'i', "chord.lookup.timeout"},
    {TraceLayer::kWcl, "no_path", 'i', "wcl.send.no_path"},
};

/// One wire copy: what pairs a wire_out with its wire_in (as in assembly).
using WireKey = std::tuple<std::uint64_t, std::uint16_t, std::uint32_t, std::uint32_t>;
WireKey wire_key(const FlightEventRec& e) { return {e.trace, e.attempt, e.hop, e.seq}; }

struct Flow {
  std::uint64_t id = 0;  // 0 = the copy was never emitted in this log
  bool begun = false;
  bool ended = false;
};

}  // namespace

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
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
  return out;
}

std::string to_jsonl(const Registry& registry) {
  std::string out;
  for (const auto& [key, entry] : registry.entries()) {
    out += "{\"name\":\"";
    out += json_escape(entry.name);
    out += "\",\"labels\":";
    append_labels(out, entry.labels);
    if (const auto* c = std::get_if<Counter>(&entry.metric)) {
      out += ",\"type\":\"counter\",\"value\":";
      out += fmt_u64(c->value());
    } else if (const auto* g = std::get_if<Gauge>(&entry.metric)) {
      out += ",\"type\":\"gauge\",\"value\":";
      out += json_number(g->value());
    } else if (const auto* h = std::get_if<Histogram>(&entry.metric)) {
      out += ",\"type\":\"histogram\",\"count\":";
      out += fmt_u64(h->count());
      out += ",\"sum\":";
      out += json_number(h->sum());
      out += ",\"min\":";
      out += json_number(h->min());
      out += ",\"max\":";
      out += json_number(h->max());
      out += ",\"p50\":";
      out += json_number(h->percentile(50));
      out += ",\"p90\":";
      out += json_number(h->percentile(90));
      out += ",\"p95\":";
      out += json_number(h->percentile(95));
      out += ",\"p99\":";
      out += json_number(h->percentile(99));
      out += ",\"bounds\":[";
      const auto& bounds = h->spec().bounds;
      for (std::size_t i = 0; i < bounds.size(); ++i) {
        if (i) out += ',';
        out += json_number(bounds[i]);
      }
      out += "],\"buckets\":[";
      const auto& counts = h->bucket_counts();
      for (std::size_t i = 0; i < counts.size(); ++i) {
        if (i) out += ',';
        out += fmt_u64(counts[i]);
      }
      out += "]";
    }
    out += "}\n";
  }
  return out;
}

std::string to_chrome_trace(const std::vector<FlightEventRec>& events) {
  // Each trace's layer (from its kBegin), and the wire copies that arrived.
  std::map<std::uint64_t, TraceLayer> layer_of;
  std::map<WireKey, Flow> flows;
  for (const FlightEventRec& e : events) {
    if (e.kind == FlightKind::kBegin) layer_of.emplace(e.trace, e.layer);
    if (e.kind == FlightKind::kWireIn) flows.try_emplace(wire_key(e));
  }
  // Number the arrived copies' flows in log order of their emission. A
  // second pass, because a concatenated multi-recorder log can hold a
  // copy's wire_in before its wire_out.
  std::uint64_t next_flow = 0;
  for (const FlightEventRec& e : events) {
    if (e.kind != FlightKind::kWireOut) continue;
    auto it = flows.find(wire_key(e));
    if (it != flows.end() && it->second.id == 0) it->second.id = ++next_flow;
  }

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  std::string name;  // storage for composed names
  for (const FlightEventRec& e : events) {
    ChromeEvent ce;
    ce.ts = e.ts;
    ce.tid = e.node;
    switch (e.kind) {
      case FlightKind::kCrypto:
        name = "wcl.onion." + e.detail;
        ce.name = name;
        ce.cat = "wcl";
        ce.dur = e.dur;
        break;
      case FlightKind::kEnd: {
        auto layer = layer_of.find(e.trace);
        if (layer == layer_of.end()) continue;
        const OutcomeEvent* oe = nullptr;
        for (const OutcomeEvent& cand : kOutcomeEvents) {
          if (cand.layer == layer->second && cand.outcome == e.detail) oe = &cand;
        }
        if (oe == nullptr) continue;
        ce.name = oe->name;
        ce.cat = trace_layer_name(oe->layer);
        ce.ph = oe->ph;
        if (ce.ph == 'X') {
          // The root ends when its RTT (kEnd's dur) has elapsed.
          ce.dur = std::min(e.dur, e.ts);
          ce.ts = e.ts - ce.dur;
        }
        break;
      }
      case FlightKind::kMark: {
        const std::string_view detail = e.detail;
        const std::size_t space = detail.find(' ');
        ce.name = detail.substr(0, space);
        ce.cat = ce.name.substr(0, ce.name.find('.'));
        ce.ph = e.dur > 0 ? 'X' : 'i';
        ce.dur = e.dur;
        if (space != std::string_view::npos) {
          const std::string_view kv = detail.substr(space + 1);
          const std::size_t eq = kv.find('=');
          append_arg(ce.args, kv.substr(0, eq),
                     eq == std::string_view::npos ? std::string_view{} : kv.substr(eq + 1));
        }
        break;
      }
      case FlightKind::kWireOut:
      case FlightKind::kWireIn: {
        auto it = flows.find(wire_key(e));
        if (it == flows.end() || it->second.id == 0) continue;
        const bool out_side = e.kind == FlightKind::kWireOut;
        bool& done = out_side ? it->second.begun : it->second.ended;
        if (done) continue;  // one arrow per copy, whatever the log repeats
        done = true;
        ce.name = "net.hop";
        ce.cat = "net";
        ce.ph = out_side ? 's' : 'f';
        ce.flow = it->second.id;
        break;
      }
      default:
        continue;  // the flight records carry the rest
    }
    if (e.trace != 0) append_arg(ce.args, "trace", fmt_u64(e.trace));
    if (!first) out += ',';
    first = false;
    append_event(out, ce);
  }
  out += first ? "]}\n" : "\n]}\n";
  return out;
}

bool write_text_file(const std::string& path, std::string_view content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool ok = std::fclose(f) == 0 && written == content.size();
  return ok;
}

}  // namespace whisper::telemetry
