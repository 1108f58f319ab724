#include "net/shim.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "telemetry/flight.hpp"

namespace whisper::net {

namespace {

/// Queueing horizon for the rate cap: a packet whose token-bucket start
/// would sit further out than this is tail-dropped.
constexpr Time kRateHorizon = 500 * kMillisecond;

// Strip leading/trailing spaces (impair specs come off command lines).
std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

std::optional<double> parse_double(const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') return std::nullopt;
  return v;
}

/// "20ms" / "250us" / "1.5s" / bare number (milliseconds).
std::optional<Time> parse_duration(const std::string& raw) {
  const std::string s = trim(raw);
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || v < 0) return std::nullopt;
  const std::string suffix = trim(end);
  double scale = 1e3;  // default: milliseconds
  if (suffix == "us") {
    scale = 1;
  } else if (suffix == "ms" || suffix.empty()) {
    scale = 1e3;
  } else if (suffix == "s") {
    scale = 1e6;
  } else {
    return std::nullopt;
  }
  return static_cast<Time>(v * scale);
}

/// "1mbps" / "512kbps" / "80000bps" / bare number (bits per second).
std::optional<std::uint64_t> parse_rate(const std::string& raw) {
  const std::string s = trim(raw);
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || v <= 0) return std::nullopt;
  const std::string suffix = trim(end);
  double scale = 1;
  if (suffix == "kbps") {
    scale = 1e3;
  } else if (suffix == "mbps") {
    scale = 1e6;
  } else if (!(suffix.empty() || suffix == "bps")) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(v * scale);
}

Time sample_delay(Rng& rng, const ImpairConfig& c) {
  std::int64_t v = static_cast<std::int64_t>(c.delay);
  if (c.jitter > 0) {
    v += rng.next_range(-static_cast<std::int64_t>(c.jitter),
                        static_cast<std::int64_t>(c.jitter));
  }
  return v > 0 ? static_cast<Time>(v) : 0;
}

}  // namespace

std::optional<ImpairConfig> parse_impair(const std::string& spec,
                                         std::string* err) {
  ImpairConfig out;
  std::string rest = spec;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string item = trim(rest.substr(0, comma));
    rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
    if (item.empty()) continue;
    const std::size_t colon = item.find(':');
    if (colon == std::string::npos) {
      if (err != nullptr) *err = "impair item needs key:value: " + item;
      return std::nullopt;
    }
    const std::string key = trim(item.substr(0, colon));
    const std::string val = trim(item.substr(colon + 1));
    bool ok = false;
    if (key == "loss" || key == "dup" || key == "reorder") {
      if (const auto p = parse_double(val); p && *p >= 0 && *p <= 1) {
        (key == "loss" ? out.loss : key == "dup" ? out.duplicate : out.reorder) = *p;
        ok = true;
      }
    } else if (key == "delay") {
      // "20ms±10ms" — the ± is UTF-8 (0xC2 0xB1); '~' is the ASCII spelling.
      std::string base = val, jitter;
      std::size_t sep = val.find("\xc2\xb1");
      std::size_t sep_len = 2;
      if (sep == std::string::npos) {
        sep = val.find('~');
        sep_len = 1;
      }
      if (sep != std::string::npos) {
        base = val.substr(0, sep);
        jitter = val.substr(sep + sep_len);
      }
      const auto b = parse_duration(base);
      const auto j = jitter.empty() ? std::optional<Time>(0) : parse_duration(jitter);
      if (b && j) {
        out.delay = *b;
        out.jitter = *j;
        ok = true;
      }
    } else if (key == "rate") {
      if (const auto r = parse_rate(val)) {
        out.rate_bps = *r;
        ok = true;
      }
    }
    if (!ok) {
      if (err != nullptr) *err = "bad impair item: " + item;
      return std::nullopt;
    }
  }
  return out;
}

std::string shim_event_json(const ShimEvent& ev) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"t\":%llu,\"ev\":\"%s\",\"a\":\"%s\",\"b\":\"%s\","
                "\"seq\":%llu,\"delay_us\":%llu}",
                static_cast<unsigned long long>(ev.t), ev.kind,
                ev.a.str().c_str(), ev.b.str().c_str(),
                static_cast<unsigned long long>(ev.seq),
                static_cast<unsigned long long>(ev.delay));
  return buf;
}

ShimStack::ShimStack(Clock& clock, Stack& inner, ShimConfig config,
                     telemetry::Scope telemetry)
    : clock_(clock), inner_(inner), config_(std::move(config)), tel_(telemetry),
      m_impair_dropped_(tel_.counter("shim.impair.dropped")),
      m_impair_duplicated_(tel_.counter("shim.impair.duplicated")),
      m_impair_delayed_(tel_.counter("shim.impair.delayed")),
      m_rate_dropped_(tel_.counter("shim.rate.dropped")),
      m_nat_filtered_(tel_.counter("shim.nat.filtered")),
      m_nat_mappings_(tel_.counter("shim.nat.mappings")),
      m_nat_expired_(tel_.counter("shim.nat.expired")),
      m_nat_reboots_(tel_.counter("shim.nat.reboots")),
      m_nat_active_(tel_.gauge("shim.nat.active")) {}

ShimStack::~ShimStack() {
  for (auto& [ep, n] : nodes_) {
    for (auto& [port, timer] : n.mapping_timers) clock_.cancel(timer);
    for (auto& [port, ext] : n.mapping_eps) inner_.detach(ext);
  }
}

void ShimStack::set_profile(Endpoint internal_ep, ShimProfile profile) {
  profiles_[internal_ep] = profile;
}

void ShimStack::emit_event(const char* kind, Endpoint a, Endpoint b,
                           std::uint64_t seq, Time delay) {
  if (!event_sink_) return;
  event_sink_(ShimEvent{clock_.now(), kind, a, b, seq, delay});
}

ShimStack::NodeState* ShimStack::find_node(Endpoint internal_ep) {
  auto it = nodes_.find(internal_ep);
  return it == nodes_.end() ? nullptr : &it->second;
}

void ShimStack::attach(Endpoint internal_ep, Handler handler) {
  const auto pit = profiles_.find(internal_ep);
  const ShimProfile profile =
      pit == profiles_.end() ? ShimProfile{} : pit->second;
  if (profile.nat == nat::NatType::kNone && !profile.impair.any()) {
    inner_.attach(internal_ep, std::move(handler));  // pure pass-through
    return;
  }
  // Child rng stream: stable per attach order, independent of OS-assigned
  // port numbers, so same-seed runs sample identical schedules.
  NodeState n(Rng(config_.seed + 0x9e3779b97f4a7c15ull * (nodes_created_ + 1)));
  ++nodes_created_;
  tel_.counter("shim.nodes", {{"nat", nat::nat_type_name(profile.nat)}}).add(1);
  n.internal = internal_ep;
  n.profile = profile;
  if (profile.nat != nat::NatType::kNone) {
    n.device = std::make_unique<nat::NatDevice>(
        profile.nat, profile.device_ip, config_.nat,
        [this] { return clock_.now(); });
    n.device->set_port_allocator([this, ip = profile.device_ip]() -> std::uint16_t {
      if (!config_.reserve) return 0;
      const auto ep = config_.reserve(ip);
      if (!ep) return 0;
      pending_alloc_ = ep;
      return ep->port;
    });
    // The internal endpoint never appears on the wire: traffic enters and
    // leaves through per-mapping sockets on the device IP. The handler
    // lives here; any inner socket reserved at internal_ep stays idle.
    n.handler = std::move(handler);
  } else {
    // Impair-only: inbound path untouched, egress shaped in send().
    inner_.attach(internal_ep, std::move(handler));
  }
  nodes_.emplace(internal_ep, std::move(n));
}

void ShimStack::detach(Endpoint internal_ep) {
  auto it = nodes_.find(internal_ep);
  if (it != nodes_.end()) {
    NodeState& n = it->second;
    for (auto& [port, timer] : n.mapping_timers) clock_.cancel(timer);
    for (auto& [port, ext] : n.mapping_eps) {
      inner_.detach(ext);
      mapping_owner_.erase(ext);
    }
    m_nat_active_.add(-static_cast<double>(n.mapping_eps.size()));
    nodes_.erase(it);
  }
  inner_.detach(internal_ep);
}

bool ShimStack::attached(Endpoint internal_ep) const {
  const auto it = nodes_.find(internal_ep);
  if (it != nodes_.end() && it->second.device != nullptr) {
    return it->second.handler != nullptr;
  }
  return inner_.attached(internal_ep);
}

void ShimStack::adopt_mapping(NodeState& n, Endpoint external) {
  count(nat_mappings_created_, m_nat_mappings_);
  m_nat_active_.add(1);
  mapping_owner_[external] = n.internal;
  n.mapping_eps[external.port] = external;
  inner_.attach(external, [this, internal = n.internal](const Datagram& d) {
    on_mapping_rx(internal, d);
  });
  const auto expiry = n.device->expiry_of(external.port);
  const Time at = expiry ? *expiry : clock_.now() + config_.nat.lease;
  n.mapping_timers[external.port] = clock_.schedule_at(
      at + kMillisecond, [this, internal = n.internal, port = external.port] {
        check_mapping_expiry(internal, port);
      });
  emit_event("nat_map", external, n.internal, 0, 0);
}

void ShimStack::close_mapping(NodeState& n, std::uint16_t port) {
  const auto eit = n.mapping_eps.find(port);
  if (eit == n.mapping_eps.end()) return;
  inner_.detach(eit->second);
  mapping_owner_.erase(eit->second);
  n.mapping_eps.erase(eit);
  m_nat_active_.add(-1);
  if (const auto tit = n.mapping_timers.find(port); tit != n.mapping_timers.end()) {
    clock_.cancel(tit->second);
    n.mapping_timers.erase(tit);
  }
}

void ShimStack::check_mapping_expiry(Endpoint internal_ep, std::uint16_t port) {
  NodeState* n = find_node(internal_ep);
  if (n == nullptr) return;
  n->mapping_timers.erase(port);
  if (const auto expiry = n->device->expiry_of(port)) {
    // Refreshed by outbound traffic since the timer was armed: re-arm.
    n->mapping_timers[port] = clock_.schedule_at(
        *expiry + kMillisecond,
        [this, internal_ep, port] { check_mapping_expiry(internal_ep, port); });
    return;
  }
  // Expired (or lazily replaced): free the rules-engine entry and close the
  // socket — inbound to this external port now dies exactly like on a real
  // device that timed out the association.
  n->device->prune();
  const auto eit = n->mapping_eps.find(port);
  const Endpoint ext = eit != n->mapping_eps.end() ? eit->second : Endpoint{};
  close_mapping(*n, port);
  count(nat_expired_, m_nat_expired_);
  emit_event("nat_expire", ext, internal_ep, 0, 0);
}

void ShimStack::on_mapping_rx(Endpoint internal_ep, const Datagram& dgram) {
  NodeState* n = find_node(internal_ep);
  if (n == nullptr) return;
  const auto internal = n->device->inbound(dgram.dst.port, dgram.src);
  if (!internal) {
    count(nat_filtered_, m_nat_filtered_);
    emit_event("nat_filter", dgram.dst, dgram.src, 0, 0);
    return;
  }
  if (n->handler == nullptr) return;
  Datagram out = dgram;
  out.dst = *internal;
  n->handler(out);
}

ImpairDecision ShimStack::decide(NodeState& n) {
  ImpairDecision d;
  d.seq = n.seq++;
  const ImpairConfig& c = n.profile.impair;
  // Fixed sampling order per packet: the decision stream is a pure function
  // of (seed, config, send index) — the shim's determinism contract.
  if (c.loss > 0 && n.rng.next_bool(c.loss)) d.dropped = true;
  bool dup = false;
  if (c.duplicate > 0 && n.rng.next_bool(c.duplicate)) dup = true;
  if (dup) d.copies = 2;
  if (c.delay > 0 || c.jitter > 0) {
    d.delay0 = sample_delay(n.rng, c);
    if (dup) d.delay1 = sample_delay(n.rng, c);
  }
  if (c.reorder > 0 && n.rng.next_bool(c.reorder)) {
    // Hold the primary copy an extra beat so in-window packets (and the
    // duplicate) overtake it.
    d.delay0 += std::max<Time>(kMillisecond, c.delay + 4 * c.jitter);
  }
  if (config_.record_decisions) decisions_.push_back(d);
  return d;
}

bool ShimStack::send(Endpoint internal_src, Endpoint public_dst, Bytes payload,
                     Proto proto) {
  NodeState* n = find_node(internal_src);
  if (n == nullptr) {
    return inner_.send(internal_src, public_dst, std::move(payload), proto);
  }

  // NAT translation first: the packet reaches the device (creating or
  // refreshing the mapping) even when the lossy internet then eats it —
  // which is exactly what keeps registration retries able to open holes
  // under loss.
  Endpoint wire_src = internal_src;
  if (n->device != nullptr) {
    pending_alloc_.reset();
    const auto external = n->device->outbound(internal_src, public_dst);
    if (pending_alloc_) adopt_mapping(*n, *pending_alloc_);
    if (!external) return true;  // port allocation failed: died at the device
    wire_src = *external;
  }

  ImpairDecision d = decide(*n);
  const ImpairConfig& c = n->profile.impair;
  if (!d.dropped && c.rate_bps > 0) {
    // Token bucket on wall time: serialization cost queues behind earlier
    // packets; beyond the horizon the queue tail-drops. Deliberately outside
    // the recorded decision stream (it depends on arrival times).
    const Time cost =
        (static_cast<Time>(payload.size() + 32) * 8 * 1'000'000) / c.rate_bps;
    const Time now = clock_.now();
    const Time start = std::max(now, n->rate_free_at);
    if (start - now > kRateHorizon) {
      m_rate_dropped_.add(1);
      emit_event("rate_drop", wire_src, public_dst, d.seq, 0);
      return true;
    }
    n->rate_free_at = start + cost * d.copies;
    d.delay0 += start - now;
    d.delay1 += start - now;
  }
  if (d.dropped) {
    count(impair_dropped_, m_impair_dropped_);
    emit_event("loss", wire_src, public_dst, d.seq, 0);
    return true;  // emitted, then died on the (emulated) wire
  }

  for (std::size_t i = 0; i < d.copies; ++i) {
    const Time hold = i == 0 ? d.delay0 : d.delay1;
    if (i > 0) {
      m_impair_duplicated_.add(1);
      emit_event("dup", wire_src, public_dst, d.seq, hold);
    }
    if (hold == 0) {
      inner_.send(wire_src, public_dst, payload, proto);
    } else {
      count(impair_delayed_, m_impair_delayed_);
      const telemetry::TraceContext ctx =
          flight_ != nullptr ? flight_->context() : telemetry::TraceContext{};
      clock_.schedule_after(hold, [this, wire_src, public_dst,
                                   payload = payload, proto, ctx] {
        // The mapping socket may be gone by now (lease expiry, reboot):
        // that loss is the real device's behavior too.
        telemetry::ScopedTraceContext guard(flight_, ctx);
        inner_.send(wire_src, public_dst, std::move(payload), proto);
      });
    }
  }
  return true;
}

void ShimStack::redeliver(Endpoint internal_dst, Datagram dgram) {
  NodeState* n = find_node(internal_dst);
  if (n != nullptr && n->device != nullptr) {
    if (n->handler != nullptr) n->handler(dgram);
    return;
  }
  inner_.redeliver(internal_dst, std::move(dgram));
}

std::size_t ShimStack::nat_reboot() {
  std::size_t dropped = 0;
  for (auto& [ep, n] : nodes_) {
    if (n.device == nullptr) continue;
    const auto ports = n.device->reset();
    for (const std::uint16_t port : ports) close_mapping(n, port);
    dropped += ports.size();
    if (!ports.empty()) emit_event("nat_reboot", ep, Endpoint{}, ports.size(), 0);
  }
  if (dropped > 0) count(nat_reboots_, m_nat_reboots_);
  return dropped;
}

nat::NatType ShimStack::type_of(Endpoint internal_ep) const {
  const auto it = profiles_.find(internal_ep);
  return it == profiles_.end() ? nat::NatType::kNone : it->second.nat;
}

std::optional<Endpoint> ShimStack::owner_of(Endpoint external_ep) const {
  const auto it = mapping_owner_.find(external_ep);
  if (it == mapping_owner_.end()) return std::nullopt;
  return it->second;
}

std::size_t ShimStack::mappings_active() const {
  std::size_t n = 0;
  for (const auto& [ep, node] : nodes_) {
    if (node.device != nullptr) n += node.device->active_mappings();
  }
  return n;
}

}  // namespace whisper::net
