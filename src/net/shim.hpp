// Deterministic NAT + impairment interposer over any net::Stack
// (DESIGN.md §16).
//
// ShimStack sits between the protocol stack and the real transport so live
// processes experience the paper's network — NAT devices in front of nodes
// and a lossy, slow internet between them — without root or kernel netem:
//
//   - Per attached endpoint, a NAT profile enforces the *same* rule engine
//     the simulator fabric uses (nat/rules.hpp: full cone / restricted cone
//     / port-restricted cone / symmetric, RFC 4787/5382 lease semantics).
//     Each NAT mapping is a real bound UDP socket on the device's own
//     loopback IP (all of 127/8 is host-local), so peers genuinely observe
//     the mapped external source address and hole punching succeeds or
//     fails by the device's actual filtering — not by convention.
//   - Seeded netem-style egress impairments: loss, base delay ± uniform
//     jitter, reorder holds, duplication and an egress rate cap. Drop/
//     duplicate/delay decisions are a pure function of (seed, per-node send
//     index), so two same-seed runs sample identical schedules even though
//     packets land at wall-clock times (the determinism model: decisions
//     are deterministic, arrival times are not).
//   - Lease expiry and delayed emissions ride the backend's timer queue;
//     nat_reboot() wipes every mapping mid-run (the chaos supervisor's
//     "natreboot" event) and nodes must recover by re-registering.
//
// Endpoints with no profile (or an all-default one) pass through untouched:
// attach/send go straight to the inner stack, byte-identical to running
// without the shim.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "nat/rules.hpp"
#include "net/spi.hpp"
#include "telemetry/scope.hpp"

namespace whisper::net {

/// Seeded netem-style egress impairments (all off by default).
struct ImpairConfig {
  double loss = 0.0;       // P(drop) per datagram
  double duplicate = 0.0;  // P(one extra copy)
  double reorder = 0.0;    // P(extra hold), reordering vs in-window packets
  Time delay = 0;          // base one-way delay added to every datagram
  Time jitter = 0;         // uniform ±jitter around the base delay
  std::uint64_t rate_bps = 0;  // egress rate cap; 0 = uncapped

  bool any() const {
    return loss > 0 || duplicate > 0 || reorder > 0 || delay > 0 ||
           jitter > 0 || rate_bps > 0;
  }
};

/// Parse an impairment spec: comma-separated `key:value` with keys
///   loss:F  dup:F  reorder:F         (probabilities in [0,1])
///   delay:DUR[±DUR]                  (e.g. 20ms±10ms; '~' also accepted)
///   rate:N[kbps|mbps|bps]
/// Durations accept us/ms/s suffixes (default ms). Returns nullopt and
/// fills *err on malformed input. Empty spec = no impairment.
std::optional<ImpairConfig> parse_impair(const std::string& spec,
                                         std::string* err = nullptr);

/// Per-endpoint shim behavior; default = public, unimpaired (pass-through).
struct ShimProfile {
  nat::NatType nat = nat::NatType::kNone;
  /// The emulated device's public IP; required when natted. Distinct per
  /// device so IP-based (restricted-cone) filtering means something.
  std::uint32_t device_ip = 0;
  ImpairConfig impair;
};

/// One sampled impairment verdict — the unit of the determinism contract.
struct ImpairDecision {
  std::uint64_t seq = 0;  // per-node send index
  bool dropped = false;
  std::size_t copies = 1;
  Time delay0 = 0;  // scheduled hold of the primary copy
  Time delay1 = 0;  // of the duplicate, if any

  bool operator==(const ImpairDecision&) const = default;
};

/// Shim event for the JSONL event log (CI artifact / diagnostics).
struct ShimEvent {
  Time t = 0;
  const char* kind = "";  // send|loss|dup|rate_drop|nat_map|nat_filter|
                          // nat_expire|nat_reboot
  Endpoint a;             // send/loss: wire src; nat_*: external endpoint
  Endpoint b;             // send/loss: dst;      nat_*: internal endpoint
  std::uint64_t seq = 0;
  Time delay = 0;
};

/// Render one event as a JSON line (no trailing newline).
std::string shim_event_json(const ShimEvent& ev);

struct ShimConfig {
  std::uint64_t seed = 1;
  /// Lease for emulated NAT mappings (rules engine config).
  nat::NatConfig nat;
  /// Binds a fresh mapping socket on the given device IP (port 0 = OS
  /// assigned) and returns its endpoint — UdpBackend::reserve_endpoint_on.
  /// Required when any profile is natted.
  std::function<std::optional<Endpoint>(std::uint32_t bind_ip)> reserve;
  /// Record every ImpairDecision (determinism tests).
  bool record_decisions = false;
};

class ShimStack final : public Stack {
 public:
  /// `telemetry` receives the `shim.*` counters below (summed over every
  /// shim that shares its registry); the default drops them.
  ShimStack(Clock& clock, Stack& inner, ShimConfig config,
            telemetry::Scope telemetry = {});
  ~ShimStack() override;

  ShimStack(const ShimStack&) = delete;
  ShimStack& operator=(const ShimStack&) = delete;

  /// Declare `internal_ep`'s NAT/impairment profile. Must be called before
  /// attach(internal_ep, ...); endpoints without a profile pass through.
  void set_profile(Endpoint internal_ep, ShimProfile profile);

  /// Sink for the shim event log (one ShimEvent per decision that altered
  /// or translated traffic). Called inline on the event-loop thread.
  void set_event_sink(std::function<void(const ShimEvent&)> sink) {
    event_sink_ = std::move(sink);
  }

  // --- Stack. ---
  void attach(Endpoint internal_ep, Handler handler) override;
  void detach(Endpoint internal_ep) override;
  bool attached(Endpoint internal_ep) const override;
  bool send(Endpoint internal_src, Endpoint public_dst, Bytes payload,
            Proto proto) override;
  void redeliver(Endpoint internal_dst, Datagram dgram) override;
  std::uint64_t packets_sent() const override { return inner_.packets_sent(); }
  std::uint64_t packets_delivered() const override {
    return inner_.packets_delivered();
  }
  void set_fault_interposer(FaultInterposer* faults) override {
    inner_.set_fault_interposer(faults);
  }
  /// Keeps the recorder as well as passing it on: a held copy leaves from a
  /// timer, which re-arms the trace context the send was made under.
  void set_flight(telemetry::FlightRecorder* flight) override {
    flight_ = flight;
    inner_.set_flight(flight);
  }

  // --- NAT control / introspection. ---
  /// Wipe every device's mapping table and close the mapping sockets (the
  /// "natreboot" chaos event). Nodes recover via re-registration: the next
  /// outbound packet opens a fresh mapping on a new external port. Returns
  /// the number of mappings dropped.
  std::size_t nat_reboot();
  nat::NatType type_of(Endpoint internal_ep) const;
  /// The internal endpoint owning a shim mapping socket, if any (lets a
  /// flight-recorder node resolver attribute mapping traffic to its node).
  std::optional<Endpoint> owner_of(Endpoint external_ep) const;
  /// Live mappings across all devices.
  std::size_t mappings_active() const;

  // --- Counters. Each also adds to its registry metric:
  // shim.impair.{dropped,delayed} and
  // shim.nat.{filtered,mappings,expired,reboots}. The registry alone keeps
  // shim.impair.duplicated, shim.rate.dropped, the gauge shim.nat.active
  // (mapping sockets open now) and shim.nodes{nat=TYPE} (endpoints
  // fronted, by NAT type). ---
  std::uint64_t impair_dropped() const { return impair_dropped_; }
  std::uint64_t impair_delayed() const { return impair_delayed_; }
  std::uint64_t nat_filtered() const { return nat_filtered_; }
  std::uint64_t nat_mappings_created() const { return nat_mappings_created_; }
  std::uint64_t nat_expired() const { return nat_expired_; }
  std::uint64_t nat_reboots() const { return nat_reboots_; }

  /// Recorded decisions (ShimConfig::record_decisions), in sample order.
  const std::vector<ImpairDecision>& decisions() const { return decisions_; }

 private:
  struct NodeState {
    Endpoint internal;
    ShimProfile profile;
    Handler handler;  // natted nodes only; pass-through keeps it in inner
    std::unique_ptr<nat::NatDevice> device;  // natted only
    Rng rng;
    std::uint64_t seq = 0;       // send counter, drives the decision stream
    Time rate_free_at = 0;       // token-bucket cursor
    // external port -> mapping socket endpoint / expiry timer.
    std::map<std::uint16_t, Endpoint> mapping_eps;
    std::map<std::uint16_t, TimerId> mapping_timers;

    explicit NodeState(Rng r) : rng(r) {}
  };

  NodeState* find_node(Endpoint internal_ep);
  ImpairDecision decide(NodeState& n);
  void on_mapping_rx(Endpoint internal_ep, const Datagram& dgram);
  /// Register a freshly-allocated mapping socket and arm its lease timer.
  void adopt_mapping(NodeState& n, Endpoint external);
  void close_mapping(NodeState& n, std::uint16_t port);
  void check_mapping_expiry(Endpoint internal_ep, std::uint16_t port);
  void emit_event(const char* kind, Endpoint a, Endpoint b, std::uint64_t seq,
                  Time delay);
  /// Bump a counter and its registry metric together.
  static void count(std::uint64_t& counter, telemetry::Counter& metric) {
    ++counter;
    metric.add(1);
  }

  Clock& clock_;
  Stack& inner_;
  ShimConfig config_;
  std::map<Endpoint, ShimProfile> profiles_;
  std::map<Endpoint, NodeState> nodes_;
  std::map<Endpoint, Endpoint> mapping_owner_;  // external -> internal
  std::function<void(const ShimEvent&)> event_sink_;
  telemetry::FlightRecorder* flight_ = nullptr;
  std::vector<ImpairDecision> decisions_;
  std::size_t nodes_created_ = 0;
  // Scratch for the port-allocator callback (rules engine -> adopt_mapping).
  std::optional<Endpoint> pending_alloc_;

  std::uint64_t impair_dropped_ = 0;
  std::uint64_t impair_delayed_ = 0;
  std::uint64_t nat_filtered_ = 0;
  std::uint64_t nat_mappings_created_ = 0;
  std::uint64_t nat_expired_ = 0;
  std::uint64_t nat_reboots_ = 0;

  telemetry::Scope tel_;
  telemetry::Counter& m_impair_dropped_;
  telemetry::Counter& m_impair_duplicated_;
  telemetry::Counter& m_impair_delayed_;
  telemetry::Counter& m_rate_dropped_;
  telemetry::Counter& m_nat_filtered_;
  telemetry::Counter& m_nat_mappings_;
  telemetry::Counter& m_nat_expired_;
  telemetry::Counter& m_nat_reboots_;
  telemetry::Gauge& m_nat_active_;
};

}  // namespace whisper::net
