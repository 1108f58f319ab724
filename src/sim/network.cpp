#include "sim/network.hpp"

namespace whisper::sim {

namespace {

/// Canonical 64-bit form of an endpoint (matches std::hash<Endpoint>'s
/// packing): the major component of a delivery's ordering key.
std::uint64_t pack_endpoint(Endpoint ep) {
  return (std::uint64_t{ep.ip} << 16) | ep.port;
}

}  // namespace

std::uint64_t TrafficCounters::total_up() const {
  std::uint64_t total = 0;
  for (const auto* c : up) total += c != nullptr ? c->value() : 0;
  return total;
}

std::uint64_t TrafficCounters::total_down() const {
  std::uint64_t total = 0;
  for (const auto* c : down) total += c != nullptr ? c->value() : 0;
  return total;
}

telemetry::Labels Network::traffic_labels(Endpoint internal_ep, net::Proto proto,
                                          const char* dir) {
  return {{"node", internal_ep.str()}, {"proto", net::proto_name(proto)}, {"dir", dir}};
}

Network::Network(Simulator& sim, std::unique_ptr<LatencyModel> latency,
                 std::uint64_t salt, telemetry::Registry* registry)
    : sim_(sim), latency_(std::move(latency)),
      owned_registry_(registry == nullptr ? std::make_unique<telemetry::Registry>()
                                          : nullptr),
      registry_(registry != nullptr ? registry : owned_registry_.get()),
      traffic_(*registry_),
      latency_salt_(salt) {}

std::uint64_t Network::packets_in_flight() const {
  return packets_sent() + packets_duplicated() - packets_delivered() - packets_dropped();
}

void Network::attach(Endpoint internal_ep, Handler handler) {
  handlers_[internal_ep] = std::move(handler);
}

void Network::detach(Endpoint internal_ep) { handlers_.erase(internal_ep); }

bool Network::attached(Endpoint internal_ep) const { return handlers_.contains(internal_ep); }

void Network::add_node_bytes(Endpoint internal_ep, net::Proto proto, const char* dir,
                             std::size_t bytes) {
  TrafficCounters& tc = counters_[internal_ep];
  const std::size_t pi = static_cast<std::size_t>(proto);
  telemetry::Counter*& c = dir[0] == 'u' ? tc.up[pi] : tc.down[pi];
  if (c == nullptr) {
    c = &registry_->counter("net.node.bytes", traffic_labels(internal_ep, proto, dir));
  }
  c->add(bytes);
}

bool Network::send(Endpoint internal_src, Endpoint public_dst, Bytes payload, net::Proto proto) {
  Endpoint wire_src = internal_src;
  if (translator_ != nullptr) {
    auto mapped = translator_->outbound(internal_src, public_dst);
    if (!mapped) return false;
    wire_src = *mapped;
  }

  // Account upload at the sender regardless of eventual delivery: bytes
  // leave the sender's uplink either way.
  if (per_node_accounting_) add_node_bytes(internal_src, proto, "up", payload.size());
  traffic_.sent(proto, payload.size());

  net::Datagram dgram{wire_src, public_dst, std::move(payload), proto, {}};
  const bool tracing_flight = flight_ != nullptr && flight_->enabled();
  if (tracing_flight) dgram.trace = flight_->context();
  std::size_t copies = 1;
  net::Time extra_delay = 0;
  if (faults_ != nullptr) {
    const auto verdict = faults_->on_wire(internal_src, dgram);
    copies = verdict.copies;
    extra_delay = verdict.extra_delay;
  }
  if (copies == 0) {
    traffic_.dropped(net::DropReason::kFault);
    if (tracing_flight && dgram.trace.valid()) {
      flight_->drop(dgram.trace, flight_->node_of(internal_src), sim_.now(), "fault");
    }
    return true;  // the sender's uplink emitted it; it died on the wire
  }

  // The wiretap observes the (possibly corrupted) wire bytes, once per
  // emission regardless of fault duplication.
  if (tap_) tap_(dgram);

  for (std::size_t i = 0; i < copies; ++i) {
    if (i > 0) traffic_.duplicated();
    // Copy only for fault-injected duplicates; the final copy moves.
    net::Datagram scheduled = (i + 1 == copies) ? std::move(dgram) : dgram;
    if (tracing_flight && scheduled.trace.valid()) {
      // One seq per wire copy, so duplicated packets pair their own
      // wire_out/wire_in events in the assembled record.
      scheduled.trace.seq = flight_->next_wire_seq();
      flight_->wire_out(scheduled.trace, flight_->node_of(internal_src), sim_.now(),
                        extra_delay);
    }
    // Canonical ordering key for this wire copy: (sender, per-sender seq).
    // Allocated per copy even when the copy is then lost, so the key stream
    // at the sender is identical whatever happens downstream.
    const std::uint64_t ka = pack_endpoint(internal_src);
    const std::uint64_t kb = wire_seqs_[internal_src]++;
    auto delay = draw_latency(wire_src, public_dst, kb);
    if (!delay) {
      traffic_.dropped(net::DropReason::kLoss);  // lost in transit
      if (tracing_flight && scheduled.trace.valid()) {
        flight_->drop(scheduled.trace, flight_->node_of(internal_src), sim_.now(), "loss");
      }
      continue;
    }
    Delivery d{sim_.now() + *delay + extra_delay, ka, kb, internal_src,
                     std::move(scheduled)};
    if (is_remote_ && is_remote_(public_dst)) {
      forward_remote_(std::move(d));
    } else {
      schedule_delivery(std::move(d));
    }
  }
  return true;
}

std::optional<net::Time> Network::draw_latency(Endpoint wire_src, Endpoint public_dst,
                                               std::uint64_t kb) {
  // Stateless per-copy stream: the draw depends only on (salt, sender seq),
  // never on how many other sends interleaved — shard-count invariant.
  Rng copy_rng(mix64(latency_salt_ ^ mix64(pack_endpoint(wire_src)) ^
                     mix64(kb * kSplitmixGamma + 1)));
  return latency_->sample(wire_src, public_dst, copy_rng);
}

void Network::schedule_delivery(Delivery d) {
  sim_.schedule_keyed(d.deliver_at, d.ka, d.kb,
                      [this, internal_src = d.internal_src,
                       dgram = std::move(d.dgram)]() mutable {
                        deliver(internal_src, std::move(dgram));
                      });
}

void Network::deliver(Endpoint internal_src, net::Datagram dgram) {
  const bool traced =
      flight_ != nullptr && flight_->enabled() && dgram.trace.valid();
  Endpoint internal_dst = dgram.dst;
  if (translator_ != nullptr) {
    auto mapped = translator_->inbound(dgram.dst, dgram.src);
    if (!mapped) {
      traffic_.dropped(net::DropReason::kFilter);  // filtered by the destination's NAT
      if (traced) {
        flight_->drop(dgram.trace, flight_->node_of(dgram.dst), sim_.now(), "filter");
      }
      return;
    }
    internal_dst = *mapped;
  }
  if (faults_ != nullptr) {
    switch (faults_->on_deliver(internal_src, internal_dst, dgram)) {
      case net::FaultInterposer::Gate::kDrop:
        traffic_.dropped(net::DropReason::kFault);
        if (traced) {
          flight_->drop(dgram.trace, flight_->node_of(internal_dst), sim_.now(), "fault");
        }
        return;
      case net::FaultInterposer::Gate::kQueue:
        // Interposer owns it; counts on redeliver(). The queued event marks
        // the hold start so assembly can split queueing from propagation.
        if (traced) {
          flight_->queued(dgram.trace, flight_->node_of(internal_dst), sim_.now(),
                          "pause");
        }
        return;
      case net::FaultInterposer::Gate::kDeliver:
        break;
    }
  }
  finish_delivery(internal_dst, std::move(dgram));
}

void Network::redeliver(Endpoint internal_dst, net::Datagram dgram) {
  finish_delivery(internal_dst, std::move(dgram));
}

void Network::finish_delivery(Endpoint internal_dst, net::Datagram dgram) {
  const bool traced =
      flight_ != nullptr && flight_->enabled() && dgram.trace.valid();
  auto it = handlers_.find(internal_dst);
  if (it == handlers_.end()) {
    traffic_.dropped(net::DropReason::kDetach);  // node departed
    if (traced) {
      flight_->drop(dgram.trace, flight_->node_of(internal_dst), sim_.now(), "detach");
    }
    return;
  }

  if (per_node_accounting_) {
    add_node_bytes(internal_dst, dgram.proto, "down", dgram.payload.size());
  }
  traffic_.delivered(dgram.proto, dgram.payload.size());
  if (!traced) {
    it->second(dgram);
    return;
  }
  flight_->wire_in(dgram.trace, flight_->node_of(internal_dst), sim_.now());
  // Arm the context — advanced one hop — around the handler, so any send the
  // handler performs (an onion forward, an ACK) extends this causal chain.
  telemetry::ScopedTraceContext guard(flight_, dgram.trace.next_hop());
  it->second(dgram);
}

const TrafficCounters& Network::counters(Endpoint internal_ep) const {
  static const TrafficCounters kEmpty{};
  auto it = counters_.find(internal_ep);
  return it == counters_.end() ? kEmpty : it->second;
}

void Network::reset_counters() { registry_->reset("net."); }

}  // namespace whisper::sim
