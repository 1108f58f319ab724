// ScaleTestbed: builds a whole simulated deployment — the equivalent of the
// paper's SPLAY deployment scripts. Every simulated run (tests, paper
// benches, examples, whisper_sim and the benchmark) goes through it.
//
// The population is partitioned across S shards (node i lives on shard
// i % S), each with its own Simulator/Network/NatFabric/Registry/
// FlightRecorder, driven in lockstep through sim::ShardedEngine. S=1 runs
// the one shard inline on the calling thread. The flight recorder is the
// one trace-event log: flight records, the anonymity audit, whisper_trace
// and the Chrome trace (telemetry::to_chrome_trace) all read it.
//
// Shard-count invariance is a hard guarantee (CI-gated): everything that
// shapes traffic is derived from the *global* node index, never from
// shard-local allocator state —
//   - addresses are pure functions of the index (add_*_node_at),
//   - NAT types, per-node rngs, and bootstrap contact picks come from one
//     planner rng consumed in global boot order on the main thread,
//   - every network delivers through per-copy latency/loss streams keyed
//     by sender + wire seq, under canonical heap keys (sim/network.hpp),
//   - exports go through merge_registry_into / canonical_flight_records.
// Fault injection (install_fault_fabrics) is the exception: each shard's
// fabric draws victims from its own rng, so chaos runs gate on recovery,
// not byte-identity. See DESIGN.md §13.
//
// Population changes (spawn_node, kill_node, kill_random_node,
// restart_node, install_fault_fabrics) are legal between run_for calls at
// any S. At S=1 they are also legal inside simulator events — the shard
// runs on the calling thread — which is how churn::ChurnEngine drives
// churn from its own timers. At S>1 an event runs on a shard worker and
// must touch only its own shard's state (the fault fabrics' crash hook
// does exactly that).
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "faults/faults.hpp"
#include "nat/nat.hpp"
#include "pss/metrics.hpp"
#include "sim/network.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/registry.hpp"
#include "whisper/node.hpp"

namespace whisper {

struct ScaleConfig {
  std::size_t initial_nodes = 0;
  std::size_t shards = 1;
  double natted_fraction = 0.7;  // the paper's deployment mix
  std::string latency = "cluster";
  NodeConfig node;
  std::uint64_t seed = 42;
  /// Record causal flight events and node-timeline marks on every shard's
  /// recorder. Opt-in because the event log grows with run length.
  bool flight = false;
  /// Per-node byte counters and per-node protocol metrics: 14 registry
  /// entries a node, about 2.1 KB of heap. At 20k nodes and S=2, RSS after
  /// boot is 143.5 MiB with them and 103.5 MiB without. Off for the 100k
  /// runs; aggregates remain.
  bool node_telemetry = true;
  /// Recycle pooled RSA keypairs with this period (node i gets pooled key
  /// i % key_cycle). 0 = every node gets a distinct key. 100k distinct
  /// keygens would dominate boot wall-time; recycling is a pure function of
  /// the global index, so shard-count invariance is unaffected and every
  /// crypto operation still runs for real.
  std::size_t key_cycle = 0;
};

class ScaleTestbed {
 public:
  explicit ScaleTestbed(ScaleConfig config);
  ~ScaleTestbed();

  ScaleTestbed(const ScaleTestbed&) = delete;
  ScaleTestbed& operator=(const ScaleTestbed&) = delete;

  std::size_t shard_count() const { return shards_.size(); }
  const ScaleConfig& config() const { return config_; }
  sim::ShardedEngine& engine() { return *engine_; }

  /// Advance all shards in lockstep. Main-thread only.
  void run_for(net::Time duration);
  net::Time now() const { return engine_->now(); }

  std::uint64_t executed_events() const { return engine_->executed_events(); }
  std::uint64_t cross_shard_messages() const { return engine_->cross_shard_messages(); }

  /// Boot one more node at the next global index.
  WhisperNode& spawn_node();
  /// Stop the node at global index i (no-op if already stopped). While
  /// recording is on, its timeline first gets a `node.stop` mark.
  void kill_node(std::size_t global_index);
  /// Kill a planner-rng-chosen live node; returns its global index or
  /// SIZE_MAX when none is alive.
  std::size_t kill_random_node();
  /// Crash-restart the node at global index i in place: stop it abruptly
  /// (the sim's kill -9) and boot a replacement with the same id, endpoint
  /// and identity keys at incarnation old+1, bootstrapping from live cards
  /// like any booting node (DESIGN.md §14). The NAT binding survives, as
  /// it does for a process dying under kill -9. Peers only notice the
  /// restart when the previous life advertised a nonzero incarnation, so
  /// crash-recovery scenarios set config.node.transport.incarnation. The
  /// stopped predecessor stays allocated but node_at(i) now names the
  /// replacement.
  /// Returns nullptr for unknown or already-stopped nodes.
  WhisperNode* restart_node(std::size_t global_index);

  /// Nodes ever spawned, stopped ones included (their statistics remain
  /// readable); node i has NodeId i + 1.
  std::size_t node_count() const { return nodes_.size(); }
  WhisperNode* node_at(std::size_t global_index);
  std::size_t alive_count() const;
  std::vector<WhisperNode*> alive_nodes();

  /// Snapshot of the system-wide PSS out-views of live nodes.
  pss::OverlayGraph overlay_snapshot();

  static std::size_t shard_of_index(std::size_t index, std::size_t shards) {
    return index % shards;
  }
  /// Global index of the node with this id (ids are index + 1).
  static std::size_t index_of(NodeId id) { return id.value - 1; }

  /// Install (once per shard) fault-injection fabrics wired to each shard's
  /// slice of the population. Returns one fabric per shard.
  std::vector<faults::FaultFabric*> install_fault_fabrics();

  // --- Per-shard access (tests, benches, tools). ---
  sim::Simulator& simulator(std::size_t shard) { return *shards_[shard]->sim; }
  /// The shard's wire: traffic counters, wiretap, raw injection.
  sim::Network& network(std::size_t shard) { return *shards_[shard]->net; }
  nat::NatFabric& fabric(std::size_t shard) { return *shards_[shard]->fabric; }
  telemetry::Registry& registry(std::size_t shard) { return shards_[shard]->registry; }
  telemetry::FlightRecorder& flight(std::size_t shard) { return shards_[shard]->flight; }

  // --- Shard-count-invariant exports (the determinism gate's inputs). ---
  std::string merged_metrics_jsonl() const;
  std::string canonical_flight_jsonl() const;

 private:
  struct ShardState {
    std::unique_ptr<sim::Simulator> sim;
    telemetry::Registry registry;
    telemetry::FlightRecorder flight;
    std::unique_ptr<nat::NatFabric> fabric;
    std::unique_ptr<sim::Network> net;
    // After net_: the fabric detaches from the network on destruction.
    std::unique_ptr<faults::FaultFabric> faults;
  };

  // Addresses as pure functions of the global node index (see nat.hpp's
  // allocator bases; indices never collide with any allocator range).
  static std::uint32_t public_ip(std::size_t i) {
    return (1u << 24) + 1 + static_cast<std::uint32_t>(i);
  }
  static std::uint32_t private_ip(std::size_t i) {
    return (10u << 24) + 1 + static_cast<std::uint32_t>(i);
  }
  static std::uint32_t device_ip(std::size_t i) {
    return (100u << 24) + 1 + static_cast<std::uint32_t>(i);
  }
  /// Global node index owning this wire/internal address.
  static std::size_t index_of_ip(std::uint32_t ip);
  std::size_t shard_of_ip(std::uint32_t ip) const {
    return index_of_ip(ip) % shards_.size();
  }

  telemetry::Sinks sinks(std::size_t shard);
  /// Planner-sampled live cards for a booting node.
  std::vector<pss::ContactCard> sample_bootstrap();

  ScaleConfig config_;
  Rng plan_rng_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  std::unique_ptr<sim::ShardedEngine> engine_;
  /// Internal endpoint -> node id, shared by every shard's flight resolver.
  /// Written only between runs (boot/churn); read-only while shards run.
  std::unordered_map<Endpoint, std::uint64_t> endpoint_ids_;
  std::vector<std::unique_ptr<WhisperNode>> nodes_;  // global index order
  /// Predecessors replaced by restart_node, kept alive like killed nodes.
  std::vector<std::unique_ptr<WhisperNode>> restarted_;
};

}  // namespace whisper
