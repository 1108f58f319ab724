// Real-network deployment helpers: run the WHISPER stack on the UDP/epoll
// backend instead of the simulator.
//
// Two pieces:
//   - realtime_node_config(): a NodeConfig with protocol periods rescaled
//     from gossip-minutes to wall-clock-friendly values, so a localhost
//     mesh converges in seconds instead of simulated hours. Ratios between
//     the knobs (cycle vs response timeout vs RTO floors) are preserved;
//     only the absolute scale changes.
//   - UdpMesh: an in-process mesh — N full WhisperNodes, each on its own
//     OS-assigned loopback port, all hosted by one UdpBackend event loop.
//     The real-network analogue of ScaleTestbed, minus NAT (loopback has
//     none), sharding and churn scripting. Used by the cross-backend equivalence
//     test and by `bench_throughput --backend=udp`; whisper_noded uses the
//     same config with one node per process.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "net/udp.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/registry.hpp"
#include "whisper/node.hpp"

namespace whisper {

/// Protocol timing tuned for wall-clock runs on a LAN/loopback: PSS cycles
/// of 150 ms, sub-second timeouts, Π = 3. Deterministic — every process
/// that calls this gets the same configuration.
NodeConfig realtime_node_config();

/// An in-process mesh of real nodes: one UdpBackend, one UDP socket per
/// node on a distinct OS-assigned loopback port. All nodes are public
/// (loopback has no NAT) and bootstrap from up to `kBootstrapContacts`
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
  ~UdpMesh();

  UdpMesh(const UdpMesh&) = delete;
  UdpMesh& operator=(const UdpMesh&) = delete;

  /// Bind a fresh loopback socket, boot a node on it, start gossiping.
  /// Returns nullptr only if the OS refuses a socket (see
  /// backend().last_error()).
  WhisperNode* spawn_node();

  /// Pump the event loop for `duration` of wall time.
  void run_for(net::Time duration) { backend_.run_for(duration); }

  net::UdpBackend& backend() { return backend_; }
  net::Clock& clock() { return backend_; }
  net::Stack& stack() { return backend_; }
  telemetry::Registry& registry() { return registry_; }
  telemetry::FlightRecorder& flight() { return flight_; }

  std::vector<WhisperNode*> nodes();
  std::size_t size() const { return nodes_.size(); }

 private:
  Config config_;
  Rng rng_;
  net::UdpBackend backend_;
  telemetry::Registry registry_;
  telemetry::FlightRecorder flight_;
  std::vector<std::unique_ptr<WhisperNode>> nodes_;
  /// Each node's endpoint -> its id: how flight events name their nodes.
  std::unordered_map<Endpoint, std::uint64_t> endpoint_ids_;
  std::uint64_t next_node_id_ = 1;
  std::size_t next_key_index_ = 0;
};

}  // namespace whisper
