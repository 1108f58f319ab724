#include "whisper/realnet.hpp"

#include <algorithm>

#include "net/spi.hpp"
#include "whisper/keypool.hpp"

namespace whisper {

NodeConfig realtime_node_config() {
  NodeConfig cfg;

  // Peer sampling: 150 ms cycles, 100 ms partner timeout. A loopback RTT
  // is microseconds, so the timeout is dominated by scheduling noise; 100 ms
  // keeps honest exchanges from ever tripping the suspicion counter.
  cfg.pss.cycle = 150 * net::kMillisecond;
  cfg.pss.response_timeout = 100 * net::kMillisecond;
  cfg.pss.quarantine_ttl = 2 * net::kSecond;
  cfg.pss.pi_min_public = 3;

  cfg.keys.request_timeout = 500 * net::kMillisecond;

  cfg.wcl.pi = 3;
  cfg.wcl.ack_timeout = 500 * net::kMillisecond;
  cfg.wcl.min_rto = 50 * net::kMillisecond;
  cfg.wcl.max_rto = 2 * net::kSecond;
  cfg.wcl.pending_forward_ttl = 5 * net::kSecond;
  cfg.wcl.sweep_interval = net::kSecond;

  cfg.ppss.cycle = 250 * net::kMillisecond;
  cfg.ppss.response_timeout = 500 * net::kMillisecond;
  cfg.ppss.pcp_refresh = net::kSecond;
  cfg.ppss.leader_timeout = 10 * net::kSecond;

  cfg.transport.keepalive_period = net::kSecond;
  cfg.transport.registration_ttl = 5 * net::kSecond;
  cfg.transport.probe_min_interval = 200 * net::kMillisecond;
  // Punched routes must expire on the same timescale as the emulated NAT
  // leases the localnet shim applies (seconds, not the sim's hour-scale
  // default): a hole whose far mapping died looks healthy until the TTL
  // forces traffic back through the relay, where the observed-src stamp
  // triggers re-punching.
  cfg.transport.route_ttl = 10 * net::kSecond;
  cfg.transport.register_retry_initial = 250 * net::kMillisecond;

  return cfg;
}

namespace {

/// The emulated NAT device's public IP: a distinct loopback address per
/// node id (all of 127/8 is host-local), so restricted-cone IP filtering
/// discriminates between peers instead of collapsing onto 127.0.0.1.
std::uint32_t device_ip_for(NodeId id) {
  return 0x7F010000u + static_cast<std::uint32_t>(id.value & 0xFFFF);
}

/// A natted node's internal endpoint: never bound, never on the wire —
/// traffic enters and leaves through the shim's per-mapping sockets. The
/// 10/8 address keeps it visibly distinct from real loopback binds.
Endpoint internal_ep_for(NodeId id) {
  return Endpoint{0x0A000000u + static_cast<std::uint32_t>(id.value & 0xFFFF), 40000};
}

}  // namespace

std::uint64_t LiveNode::id_of(Endpoint ep) const {
  const bool ours = ep == node->internal_endpoint() ||
                    (shim != nullptr && shim->owner_of(ep).has_value());
  return ours ? node->id().value : 0;
}

std::size_t LiveNode::start(const std::vector<pss::ContactCard>& candidates,
                            std::size_t max) {
  std::vector<pss::ContactCard> bootstrap;
  bool has_public = false;
  for (const pss::ContactCard& card : candidates) {
    if (bootstrap.size() >= max) break;
    if (card.addr.is_nil()) continue;
    bootstrap.push_back(card);
    has_public = has_public || card.is_public;
  }
  // As ScaleTestbed's sample does: a natted node's relay is a public card.
  const auto first_public = std::find_if(candidates.begin(), candidates.end(),
                                         [](const pss::ContactCard& c) { return c.is_public; });
  if (!has_public && first_public != candidates.end()) bootstrap.push_back(*first_public);
  node->start(bootstrap);
  return bootstrap.size();
}

std::unique_ptr<LiveNode> boot_live_node(net::UdpBackend& backend, LiveNodeSpec spec,
                                         std::string* error) {
  auto live = std::make_unique<LiveNode>();
  store::NodeStateStore* const store = spec.store;
  live->restored = store != nullptr && store->has_state();
  if (live->restored && store->state().id != spec.id) {
    *error = "state dir belongs to node " + std::to_string(store->state().id.value);
    return nullptr;
  }

  // Endpoint. A natted node's is synthetic: nothing to bind, nothing for a
  // restart to re-bind. A restored public node re-binds its stored port so
  // peers' contact cards stay valid (the transport's attach replaces the
  // placeholder handler); if the port is still held, e.g. by a SIGSTOP'd
  // predecessor, it takes a fresh one and peers relearn it through gossip.
  const bool natted = spec.profile.nat != nat::NatType::kNone;
  Endpoint ep;
  if (natted) {
    ep = internal_ep_for(spec.id);
    spec.profile.device_ip = device_ip_for(spec.id);
  } else if (live->restored) {
    ep = store->state().endpoint;
    backend.attach(ep, [](const net::Datagram&) {});
    live->rebound = !backend.attached(ep);
  }
  if (ep.is_nil() || live->rebound) {
    const auto fresh = backend.reserve_endpoint();
    if (!fresh) {
      *error = "bind: " + backend.last_error();
      return nullptr;
    }
    ep = *fresh;
  }

  // Durable state and identity. A restored node bumps its incarnation and
  // keeps its stored keys (identical keys across restarts are the recovery
  // claim); a fresh one records itself. Either way one commit, durable
  // before the first frame: peers must never see two lives of this node
  // under one incarnation.
  if (store != nullptr) {
    store::NodeState& st = store->state();
    if (!live->restored) {
      st.id = spec.id;
      st.is_public = !natted;
      st.identity = spec.key();
    }
    st.incarnation = live->restored ? st.incarnation + 1 : 1;
    st.endpoint = ep;
    if (!store->commit()) {
      *error = "state commit: " + store->last_error();
      return nullptr;
    }
    spec.node.transport.incarnation = st.incarnation;
    live->identity = st.identity;
  } else {
    live->identity = spec.key();
  }

  // NAT/impairment interposer (DESIGN.md §16). A pass-through profile
  // builds none, so the node's UDP path is the bare backend's.
  net::Stack* stack = &backend;
  if (natted || spec.profile.impair.any()) {
    net::ShimConfig scfg;
    scfg.seed = spec.seed ^ (spec.id.value * 0x9e3779b97f4a7c15ull);
    if (spec.nat_lease > 0) scfg.nat.lease = spec.nat_lease;
    scfg.reserve = [&backend](std::uint32_t ip) { return backend.reserve_endpoint_on(ip); };
    live->shim = std::make_unique<net::ShimStack>(backend, backend, std::move(scfg),
                                                  telemetry::Scope(spec.sinks, spec.id.value));
    live->shim->set_profile(ep, spec.profile);
    if (spec.sinks.flight != nullptr) live->shim->set_flight(spec.sinks.flight);
    stack = live->shim.get();
  }
  live->node = std::make_unique<WhisperNode>(backend, *stack, spec.id, ep, !natted,
                                             live->identity, std::move(spec.node), spec.rng,
                                             spec.sinks);
  return live;
}

UdpMesh::Config::Config() : node(realtime_node_config()) {}

UdpMesh::UdpMesh(Config config)
    : config_(std::move(config)), rng_(config_.seed), backend_(config_.backend, &registry_) {
  flight_.set_clock(net::clock_fn(backend_));
  flight_.set_enabled(config_.flight);
  flight_.set_node_resolver([this](Endpoint ep) {
    for (const auto& n : nodes_) {
      if (const std::uint64_t id = n->id_of(ep)) return id;
    }
    return std::uint64_t{0};
  });
  backend_.set_flight(&flight_);
}

WhisperNode* UdpMesh::spawn_node(net::ShimProfile profile) {
  const std::size_t index = nodes_.size();
  LiveNodeSpec spec;
  spec.id = NodeId{index + 1};
  spec.profile = profile;
  spec.node = config_.node;
  spec.rng = rng_.fork();
  spec.seed = config_.seed;
  spec.sinks = telemetry::Sinks{&registry_, &flight_};
  spec.key = [index, bits = config_.node.rsa_bits] { return pooled_keypair(index, bits); };
  std::string error;
  std::unique_ptr<LiveNode> live = boot_live_node(backend_, std::move(spec), &error);
  if (live == nullptr) return nullptr;

  std::vector<WhisperNode*> alive = nodes();
  rng_.shuffle(alive);
  std::vector<pss::ContactCard> candidates;
  for (WhisperNode* n : alive) {
    if (n->running()) candidates.push_back(n->transport().self_card());
  }
  live->start(candidates, kBootstrapContacts);
  nodes_.push_back(std::move(live));
  return nodes_.back()->node.get();
}

std::vector<WhisperNode*> UdpMesh::nodes() {
  std::vector<WhisperNode*> out;
  out.reserve(nodes_.size());
  for (auto& n : nodes_) out.push_back(n->node.get());
  return out;
}

}  // namespace whisper
