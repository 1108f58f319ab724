// Simulated datagram network with NAT interposition and traffic accounting.
//
// Nodes bind a handler to their *internal* endpoint. When a datagram is
// sent, the installed AddressTranslator (the NAT emulation, see src/nat)
// rewrites the source to its external mapping and decides whether the
// destination's device lets the packet in.
//
// Traffic accounting lives in the telemetry registry: per-node up/down byte
// counters keyed by protocol tag ("net.node.bytes", simulator only), plus
// the system-wide net::TrafficMetrics ("net.bytes", "net.packets.*") that
// the live backend keeps under the same names. These are the data source
// for the paper's bandwidth figures (Fig. 6 and Fig. 8); TrafficCounters is
// a per-node view over the registry entries kept for ergonomic access.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "common/bytes.hpp"
#include "common/densemap.hpp"
#include "common/ids.hpp"
#include "net/datagram.hpp"
#include "net/spi.hpp"
#include "net/traffic.hpp"
#include "sim/latency.hpp"
#include "sim/simulator.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/registry.hpp"

namespace whisper::sim {

/// NAT interposition hook; implemented by nat::NatFabric.
class AddressTranslator {
 public:
  virtual ~AddressTranslator() = default;

  /// Sender side: map the internal source endpoint to its public mapping for
  /// this destination, creating/refreshing state. nullopt = cannot send.
  virtual std::optional<Endpoint> outbound(Endpoint internal_src, Endpoint public_dst) = 0;

  /// Receiver side: given the public destination and the (public) source the
  /// packet arrives from, return the internal endpoint to deliver to, or
  /// nullopt if the device filters the packet out.
  virtual std::optional<Endpoint> inbound(Endpoint public_dst, Endpoint public_src) = 0;
};

/// Per-node traffic accounting in bytes: a view over the registry-backed
/// "net.node.bytes" counters (labels: node, proto, dir). Null slots (a
/// protocol and direction the node never used) read as zero.
struct TrafficCounters {
  telemetry::Counter* up[static_cast<std::size_t>(net::Proto::kCount)] = {};
  telemetry::Counter* down[static_cast<std::size_t>(net::Proto::kCount)] = {};

  std::uint64_t total_up() const;
  std::uint64_t total_down() const;
  std::uint64_t up_for(net::Proto p) const {
    const auto* c = up[static_cast<std::size_t>(p)];
    return c != nullptr ? c->value() : 0;
  }
  std::uint64_t down_for(net::Proto p) const {
    const auto* c = down[static_cast<std::size_t>(p)];
    return c != nullptr ? c->value() : 0;
  }
};

/// The simulated network: the whole virtual internet behind one net::Stack.
/// Nodes are identified by their internal endpoint.
///
/// Delivery is keyed: the latency (and loss) of each wire copy is drawn
/// from a private Rng seeded by (salt, sender, the sender's wire sequence
/// number), and the delivery is heap-keyed by (sender, wire sequence). No
/// draw depends on how other senders' traffic interleaves, and no key on
/// how nodes are partitioned into shards, which is what makes same-seed
/// runs byte-identical for every shard count (DESIGN.md §13).
class Network final : public net::Stack {
 public:
  /// `salt` seeds every per-copy latency stream. `registry` hosts the
  /// traffic metrics; when null the network owns a private one, so
  /// counters are always registry-backed.
  Network(Simulator& sim, std::unique_ptr<LatencyModel> latency, std::uint64_t salt,
          telemetry::Registry* registry = nullptr);

  using Handler = net::Stack::Handler;

  /// Bind a node's receive handler at its internal endpoint.
  void attach(Endpoint internal_ep, Handler handler) override;
  /// Remove a node (e.g. churn departure). Packets in flight are dropped on
  /// arrival.
  void detach(Endpoint internal_ep) override;
  bool attached(Endpoint internal_ep) const override;

  /// Install the NAT fabric. May be null (all endpoints public).
  void set_translator(AddressTranslator* translator) { translator_ = translator; }

  /// Install the fault fabric. May be null (no faults; zero overhead).
  void set_fault_interposer(net::FaultInterposer* faults) override { faults_ = faults; }

  /// Install the flight recorder for causal tracing. While installed and
  /// enabled, outbound datagrams are stamped with the sender's ambient
  /// TraceContext (one unique seq per wire copy), wire events are logged,
  /// and the context — advanced one hop — is armed around the destination
  /// handler. Null or disabled costs one branch per packet.
  void set_flight(telemetry::FlightRecorder* flight) override { flight_ = flight; }

  /// Re-inject a datagram previously consumed by the fault interposer (the
  /// paused-node queue flush on resume). NAT was already resolved when the
  /// packet was queued; it goes straight to the handler — or to the detach
  /// drop counter if the node departed while paused.
  void redeliver(Endpoint internal_dst, net::Datagram dgram) override;

  /// Wiretap: observes every datagram as it appears on the wire (after NAT
  /// source rewriting, before destination filtering) — the vantage point of
  /// the paper's link-observing attacker. Used by security tests and the
  /// eavesdropper example; null disables.
  using Tap = std::function<void(const net::Datagram&)>;
  void set_tap(Tap tap) { tap_ = std::move(tap); }

  /// Send a datagram from a node's internal endpoint to a *public*
  /// destination endpoint. Returns false if the sender could not even emit
  /// the packet (no NAT mapping possible). Delivery itself is asynchronous
  /// and silently subject to loss and filtering.
  bool send(Endpoint internal_src, Endpoint public_dst, Bytes payload,
            net::Proto proto) override;

  /// One wire copy on its way to delivery: everything the destination's
  /// network needs to deliver it under its canonical ordering key, whether
  /// it stays on this shard or crosses to another (see sim/sharded.hpp).
  struct Delivery {
    net::Time deliver_at;
    std::uint64_t ka;  // canonical key: packed sender endpoint
    std::uint64_t kb;  // canonical key: per-sender wire sequence
    Endpoint internal_src;
    net::Datagram dgram;
  };

  // --- Sharded-engine integration (see sim/sharded.hpp). ---

  /// Route datagrams whose destination lives on another shard. `is_remote`
  /// decides (from the public destination address); `forward` hands the
  /// packet to the engine, which enqueues it on the owning shard's channel.
  void set_shard_router(std::function<bool(Endpoint)> is_remote,
                        std::function<void(Delivery)> forward) {
    is_remote_ = std::move(is_remote);
    forward_remote_ = std::move(forward);
  }

  /// Schedule one wire copy's delivery under its canonical key. send() calls
  /// it for local destinations, the sharded engine for copies that arrived
  /// over a shard channel (whose `deliver_at` the conservative window
  /// guarantees is still in this shard's future).
  void schedule_delivery(Delivery d);

  /// Per-node byte counters cost a registry entry per protocol and
  /// direction a node uses (up to 12) — fine at 1k nodes, gigabytes of
  /// label strings at 100k. Lean mode keeps only the
  /// system-wide aggregates. Flip before any traffic flows.
  void set_per_node_accounting(bool enabled) { per_node_accounting_ = enabled; }

  const TrafficCounters& counters(Endpoint internal_ep) const;
  /// Zero every "net."-prefixed metric (per-node, aggregates, packet
  /// counts) — benches call this after warm-up to open a measurement
  /// window.
  void reset_counters();

  /// Total datagrams handed to the latency model / delivered to handlers.
  std::uint64_t packets_sent() const override { return traffic_.packets_sent(); }
  std::uint64_t packets_delivered() const override { return traffic_.packets_delivered(); }
  /// Extra copies injected by the fault fabric (each also delivers or drops).
  std::uint64_t packets_duplicated() const { return traffic_.packets_duplicated(); }
  /// Packets positively known to be gone, by reason — NOT sent−delivered,
  /// which would misread packets still in flight as dropped.
  std::uint64_t packets_dropped() const { return traffic_.packets_dropped(); }
  std::uint64_t packets_dropped(net::DropReason reason) const {
    return traffic_.packets_dropped(reason);
  }
  /// Packets on the wire (scheduled or queued by a paused-node fault) that
  /// have neither delivered nor dropped yet.
  std::uint64_t packets_in_flight() const;

  Simulator& simulator() { return sim_; }
  /// The registry hosting the traffic metrics (external or owned).
  telemetry::Registry& registry() { return *registry_; }
  const telemetry::Registry& registry() const { return *registry_; }

  /// Label set of the per-node byte counter ("net.node.bytes") for one
  /// node/proto/direction — the key benches use to read bandwidth straight
  /// off the registry. `dir` is "up" or "down".
  static telemetry::Labels traffic_labels(Endpoint internal_ep, net::Proto proto,
                                          const char* dir);

 private:
  void deliver(Endpoint internal_src, net::Datagram dgram);
  void finish_delivery(Endpoint internal_dst, net::Datagram dgram);
  /// Adds to a node's "net.node.bytes" series for one protocol and
  /// direction (`dir` "up" or "down"), registering it on its first add:
  /// a protocol a node never uses in a direction leaves no series.
  void add_node_bytes(Endpoint internal_ep, net::Proto proto, const char* dir,
                      std::size_t bytes);
  std::optional<net::Time> draw_latency(Endpoint wire_src, Endpoint public_dst,
                                        std::uint64_t kb);

  Simulator& sim_;
  std::unique_ptr<LatencyModel> latency_;
  AddressTranslator* translator_ = nullptr;
  net::FaultInterposer* faults_ = nullptr;
  telemetry::FlightRecorder* flight_ = nullptr;
  Tap tap_;
  DenseMap<Endpoint, Handler> handlers_;
  std::unique_ptr<telemetry::Registry> owned_registry_;  // when none injected
  telemetry::Registry* registry_;                        // never null
  net::TrafficMetrics traffic_;                          // in *registry_
  DenseMap<Endpoint, TrafficCounters> counters_;
  bool per_node_accounting_ = true;
  std::uint64_t latency_salt_;
  /// Per-sender wire-copy sequence for canonical delivery keys.
  DenseMap<Endpoint, std::uint64_t> wire_seqs_;
  std::function<bool(Endpoint)> is_remote_;
  std::function<void(Delivery)> forward_remote_;
};

}  // namespace whisper::sim
