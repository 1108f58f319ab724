// Real-network deployment: run the WHISPER stack on the UDP/epoll backend
// instead of the simulator.
//
// Three pieces:
//   - realtime_node_config(): a NodeConfig with protocol periods rescaled
//     from gossip-minutes to wall-clock-friendly values, so a localhost
//     mesh converges in seconds instead of simulated hours. Ratios between
//     the knobs (cycle vs response timeout vs RTO floors) are preserved;
//     only the absolute scale changes.
//   - boot_live_node(): the one live deployment builder. whisper_noded
//     boots its node through it, UdpMesh every node of its mesh.
//   - UdpMesh: an in-process mesh — N full WhisperNodes, public or behind
//     emulated NATs, all hosted by one UdpBackend event loop. The
//     real-network analogue of ScaleTestbed, minus sharding and churn
//     scripting. Used by the cross-backend equivalence and in-process NAT
//     mesh tests and by perfbench's onion-live workload.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/shim.hpp"
#include "net/udp.hpp"
#include "store/state.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/registry.hpp"
#include "whisper/node.hpp"

namespace whisper {

/// Protocol timing tuned for wall-clock runs on a LAN/loopback: PSS cycles
/// of 150 ms, sub-second timeouts, Π = 3. Deterministic — every process
/// that calls this gets the same configuration.
NodeConfig realtime_node_config();

/// What boot_live_node() needs to know about one node.
struct LiveNodeSpec {
  NodeId id;
  /// NAT type and impairment. The default (public, unimpaired) builds no
  /// shim; the builder fills in a natted node's device IP.
  net::ShimProfile profile;
  NodeConfig node;
  Rng rng{0};  // the node's own; its protocol layers fork from it
  /// The run's seed. With the node id it seeds the shim's decision stream.
  std::uint64_t seed = 0;
  /// Emulated NAT mapping lease; 0 keeps the rules engine's default.
  net::Time nat_lease = 0;
  /// Durable state (optional): a store holding a snapshot restores that
  /// node, an empty one records this one.
  store::NodeStateStore* store = nullptr;
  telemetry::Sinks sinks;
  /// The identity of a node the store does not restore.
  std::function<crypto::RsaKeyPair()> key;
};

/// One live node: its WhisperNode and, unless its profile is pass-through,
/// the ShimStack in front of it (one per node, so the shim's counter
/// accessors are the node's; its `shim.*` metrics go to the node's sinks). Not movable: the node refers to `identity`.
struct LiveNode {
  LiveNode() = default;
  LiveNode(LiveNode&&) = delete;

  crypto::RsaKeyPair identity;
  std::unique_ptr<net::ShimStack> shim;  // null for a pass-through profile
  std::unique_ptr<WhisperNode> node;     // destroyed first: it detaches from the shim
  bool restored = false;  // booted from a stored snapshot, incarnation + 1
  bool rebound = false;   // restored, but its stored port was taken

  /// The flight resolver's rule: the node's endpoint and its shim's
  /// mapping sockets name the node. Its id, or 0 for any other endpoint.
  std::uint64_t id_of(Endpoint ep) const;

  /// Boot the node from up to `max` of `candidates` that carry an address
  /// (a natted node's card has none until it has a relay, and an exchange
  /// with such a card sends nothing), in order, plus the first public one
  /// when that pick has none (a natted node's relay). Returns the count.
  std::size_t start(const std::vector<pss::ContactCard>& candidates,
                    std::size_t max = SIZE_MAX);
};

/// The one live deployment builder: boot one node on `backend`. It binds
/// (or re-binds) the node's endpoint, restores or records its durable state
/// with one checked commit before the node's first frame, picks its
/// identity, and puts a shim in front of it when its profile asks for one.
/// The node does not gossip until LiveNode::start(). Returns nullptr and
/// sets `*error` when the OS refuses a socket, the store belongs to another
/// node or the commit fails.
std::unique_ptr<LiveNode> boot_live_node(net::UdpBackend& backend, LiveNodeSpec spec,
                                         std::string* error);

/// An in-process mesh of live nodes on one UdpBackend, each booted by
/// boot_live_node(). Each node bootstraps from up to `kBootstrapContacts`
/// previously spawned nodes, as ScaleTestbed::spawn_node does.
class UdpMesh {
 public:
  struct Config {
    net::UdpBackend::Config backend;
    NodeConfig node;           // defaulted to realtime_node_config()
    std::uint64_t seed = 42;
    bool flight = false;       // record causal flight events
    Config();
  };

  explicit UdpMesh(Config config = {});

  UdpMesh(const UdpMesh&) = delete;
  UdpMesh& operator=(const UdpMesh&) = delete;

  /// Boot a node behind `profile` (default: public, unimpaired) and start
  /// gossiping. Returns nullptr only if the OS refuses a socket (see
  /// backend().last_error()).
  WhisperNode* spawn_node(net::ShimProfile profile = {});

  /// Pump the event loop for `duration` of wall time.
  void run_for(net::Time duration) { backend_.run_for(duration); }

  net::UdpBackend& backend() { return backend_; }
  net::Clock& clock() { return backend_; }
  telemetry::Registry& registry() { return registry_; }
  telemetry::FlightRecorder& flight() { return flight_; }

  std::vector<WhisperNode*> nodes();

 private:
  Config config_;
  Rng rng_;
  telemetry::Registry registry_;  // before backend_: it hosts its counters
  net::UdpBackend backend_;
  telemetry::FlightRecorder flight_;
  std::vector<std::unique_ptr<LiveNode>> nodes_;
};

}  // namespace whisper
