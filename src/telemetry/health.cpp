#include "telemetry/health.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <variant>

#include "common/crc32.hpp"
#include "telemetry/export.hpp"

namespace whisper::telemetry {

namespace {

void set_error(DecodeError* error, DecodeError e) {
  if (error) *error = e;
}

void encode_payload(Writer& w, const HealthSnapshot& s) {
  w.u64(s.node);
  w.u32(s.pid);
  w.u32(s.incarnation);
  w.u64(s.seq);
  w.u64(s.now_us);
  w.u64(s.uptime_us);
  w.u16(static_cast<std::uint16_t>(
      s.metrics.size() > kMaxHealthMetrics ? kMaxHealthMetrics : s.metrics.size()));
  std::size_t n = 0;
  for (const auto& [name, value] : s.metrics) {
    if (n++ == kMaxHealthMetrics) break;
    w.str(name);
    w.f64(value);
  }
}

}  // namespace

double HealthSnapshot::metric(std::string_view key) const {
  for (const auto& [k, v] : metrics) {
    if (k == key) return v;
  }
  return 0;
}

Bytes encode_health_record(const HealthSnapshot& snap) {
  Writer payload;
  encode_payload(payload, snap);

  Writer w;
  w.u8(kHealthMagic0);
  w.u8(kHealthMagic1);
  w.u8(kHealthVersion);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(crc32(payload.data()));
  w.raw(payload.data());
  return std::move(w).take();
}

std::optional<HealthSnapshot> decode_health_record(BytesView data, DecodeError* error) {
  set_error(error, DecodeError::kNone);
  Reader r(data);
  const std::uint8_t m0 = r.u8();
  const std::uint8_t m1 = r.u8();
  const std::uint8_t version = r.u8();
  const std::uint32_t len = r.u32();
  const std::uint32_t crc = r.u32();
  if (!r.ok()) {
    set_error(error, r.error());
    return std::nullopt;
  }
  if (m0 != kHealthMagic0 || m1 != kHealthMagic1 || version != kHealthVersion) {
    set_error(error, DecodeError::kBadValue);
    return std::nullopt;
  }
  if (len > kMaxHealthPayloadBytes) {
    set_error(error, DecodeError::kOversized);
    return std::nullopt;
  }
  if (len > r.remaining()) {
    set_error(error, DecodeError::kBadLength);
    return std::nullopt;
  }
  const Bytes payload = r.raw(len);
  if (!r.expect_done()) {
    set_error(error, r.error());
    return std::nullopt;
  }
  if (crc32(BytesView(payload)) != crc) {
    set_error(error, DecodeError::kBadValue);
    return std::nullopt;
  }

  Reader p(payload);
  HealthSnapshot s;
  s.node = p.u64();
  s.pid = p.u32();
  s.incarnation = p.u32();
  s.seq = p.u64();
  s.now_us = p.u64();
  s.uptime_us = p.u64();
  const std::uint32_t count = p.count16(kMaxHealthMetrics);
  s.metrics.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name = p.str(kMaxHealthNameBytes);
    const double value = p.f64();
    if (!p.ok()) break;
    s.metrics.emplace_back(std::move(name), value);
  }
  if (!p.expect_done()) {
    set_error(error, p.error());
    return std::nullopt;
  }
  return s;
}

std::vector<std::pair<std::string, double>> registry_values(const Registry& reg) {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(reg.size());
  for (const auto& [key, entry] : reg.entries()) {
    if (const auto* c = std::get_if<Counter>(&entry.metric)) {
      out.emplace_back(key, static_cast<double>(c->value()));
    } else if (const auto* g = std::get_if<Gauge>(&entry.metric)) {
      out.emplace_back(key, g->value());
    } else if (const auto* h = std::get_if<Histogram>(&entry.metric)) {
      out.emplace_back(key + "#count", static_cast<double>(h->count()));
      out.emplace_back(key + "#sum", h->sum());
      out.emplace_back(key + "#min", h->min());
      out.emplace_back(key + "#max", h->max());
      out.emplace_back(key + "#p50", h->percentile(50));
      out.emplace_back(key + "#p95", h->percentile(95));
      out.emplace_back(key + "#p99", h->percentile(99));
    }
  }
  return out;
}

HealthSnapshot fleet_total(const std::vector<HealthSnapshot>& nodes) {
  HealthSnapshot sum;
  std::map<std::string, double> metrics;
  for (const HealthSnapshot& s : nodes) {
    sum.now_us = std::max(sum.now_us, s.now_us);
    sum.uptime_us = std::max(sum.uptime_us, s.uptime_us);
    for (const auto& [k, v] : s.metrics) metrics[k] += v;
  }
  sum.metrics.assign(metrics.begin(), metrics.end());
  return sum;
}

std::string health_to_json(const HealthSnapshot& snap, std::string_view label) {
  std::string out = "{\"node\":\"";
  out += json_escape(label);
  out += "\"";
  char buf[160];
  std::snprintf(buf, sizeof buf,
                ",\"ts_us\":%" PRIu64 ",\"pid\":%u,\"inc\":%u,\"seq\":%" PRIu64
                ",\"uptime_us\":%" PRIu64,
                snap.now_us, snap.pid, snap.incarnation, snap.seq, snap.uptime_us);
  out += buf;
  out += ",\"metrics\":{";
  bool first = true;
  const std::map<std::string, double> metrics(snap.metrics.begin(), snap.metrics.end());
  for (const auto& [k, v] : metrics) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += json_escape(k);
    out += "\":";
    out += json_number(v);
  }
  out += "}}";
  return out;
}

Bytes encode_admin_request(AdminOp op) {
  Writer w;
  w.u8(kAdminMagic0);
  w.u8(kAdminMagic1);
  w.u8(kAdminVersion);
  w.u8(static_cast<std::uint8_t>(op));
  return std::move(w).take();
}

std::optional<AdminOp> decode_admin_request(BytesView data, DecodeError* error) {
  set_error(error, DecodeError::kNone);
  Reader r(data);
  const std::uint8_t m0 = r.u8();
  const std::uint8_t m1 = r.u8();
  const std::uint8_t version = r.u8();
  const std::uint8_t op = r.u8();
  if (!r.ok()) {
    set_error(error, r.error());
    return std::nullopt;
  }
  if (!r.expect_done()) {
    set_error(error, r.error());
    return std::nullopt;
  }
  if (m0 != kAdminMagic0 || m1 != kAdminMagic1 || version != kAdminVersion) {
    set_error(error, DecodeError::kBadValue);
    return std::nullopt;
  }
  if (op != static_cast<std::uint8_t>(AdminOp::kStats) &&
      op != static_cast<std::uint8_t>(AdminOp::kNatReboot)) {
    set_error(error, DecodeError::kBadValue);
    return std::nullopt;
  }
  return static_cast<AdminOp>(op);
}

}  // namespace whisper::telemetry
