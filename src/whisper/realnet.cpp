#include "whisper/realnet.hpp"

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

UdpMesh::Config::Config() : node(realtime_node_config()) {}

UdpMesh::UdpMesh(Config config)
    : config_(std::move(config)), rng_(config_.seed), backend_(config_.backend) {
  flight_.set_clock(net::clock_fn(backend_));
  flight_.set_enabled(config_.flight);
  flight_.set_node_resolver([this](Endpoint ep) {
    auto it = endpoint_ids_.find(ep);
    return it != endpoint_ids_.end() ? it->second : 0ull;
  });
  backend_.set_flight(&flight_);
}

UdpMesh::~UdpMesh() {
  for (auto& n : nodes_) {
    if (n->running()) n->stop();
  }
}

WhisperNode* UdpMesh::spawn_node() {
  const auto ep = backend_.reserve_endpoint();
  if (!ep) return nullptr;
  const NodeId id{next_node_id_++};
  endpoint_ids_[*ep] = id.value;

  auto node = std::make_unique<WhisperNode>(
      backend_, backend_, id, *ep, /*is_public=*/true,
      pooled_keypair(next_key_index_++, config_.node.rsa_bits), config_.node,
      rng_.fork(), telemetry::Sinks{&registry_, &flight_});

  std::vector<pss::ContactCard> bootstrap;
  std::vector<WhisperNode*> alive = nodes();
  rng_.shuffle(alive);
  for (WhisperNode* n : alive) {
    if (bootstrap.size() >= kBootstrapContacts) break;
    if (!n->running()) continue;
    bootstrap.push_back(n->transport().self_card());
  }

  node->start(bootstrap);
  nodes_.push_back(std::move(node));
  return nodes_.back().get();
}

std::vector<WhisperNode*> UdpMesh::nodes() {
  std::vector<WhisperNode*> out;
  out.reserve(nodes_.size());
  for (auto& n : nodes_) out.push_back(n.get());
  return out;
}

}  // namespace whisper
