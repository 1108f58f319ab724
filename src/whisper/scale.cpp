#include "whisper/scale.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "sim/latency.hpp"
#include "telemetry/export.hpp"
#include "telemetry/figures.hpp"
#include "whisper/keypool.hpp"

namespace whisper {

std::size_t ScaleTestbed::index_of_ip(std::uint32_t ip) {
  if (ip >= (100u << 24)) return ip - ((100u << 24) + 1);
  if (ip >= (10u << 24)) return ip - ((10u << 24) + 1);
  return ip - ((1u << 24) + 1);
}

ScaleTestbed::ScaleTestbed(ScaleConfig config)
    : config_(std::move(config)), plan_rng_(config_.seed) {
  assert(config_.shards >= 1);
  const std::size_t S = config_.shards;
  shards_.reserve(S);

  // The conservative window: the engine may run each shard this far ahead
  // before a barrier, because nothing sent inside the window can arrive
  // sooner than the latency floor.
  const net::Time window = sim::make_latency_model(config_.latency)->lower_bound();

  std::vector<sim::ShardedEngine::Shard> engine_shards;
  for (std::size_t s = 0; s < S; ++s) {
    auto st = std::make_unique<ShardState>();
    st->sim = std::make_unique<sim::Simulator>();
    st->flight.set_clock(net::clock_fn(*st->sim));
    st->flight.set_enabled(config_.flight);
    st->flight.set_id_base(static_cast<std::uint64_t>(s) << 48);
    st->flight.set_seq_namespace(static_cast<std::uint32_t>(s));
    st->flight.set_node_resolver([this](Endpoint ep) {
      auto it = endpoint_ids_.find(ep);
      return it != endpoint_ids_.end() ? it->second : 0ull;
    });
    st->fabric = std::make_unique<nat::NatFabric>(*st->sim);
    st->net = std::make_unique<sim::Network>(
        *st->sim, sim::make_latency_model(config_.latency), config_.seed, &st->registry);
    st->net->set_translator(st->fabric.get());
    st->net->set_flight(&st->flight);
    st->net->set_per_node_accounting(config_.node_telemetry);
    shards_.push_back(std::move(st));
    engine_shards.push_back(
        sim::ShardedEngine::Shard{shards_[s]->sim.get(), shards_[s]->net.get()});
  }
  if (S > 1) {
    for (std::size_t s = 0; s < S; ++s) {
      shards_[s]->net->set_shard_router(
          [this, s](Endpoint dst) { return shard_of_ip(dst.ip) != s; },
          [this, s](sim::Network::Delivery d) {
            engine_->enqueue(s, shard_of_ip(d.dgram.dst.ip), std::move(d));
          });
    }
  }
  engine_ = std::make_unique<sim::ShardedEngine>(std::move(engine_shards), window);

  for (std::size_t i = 0; i < config_.initial_nodes; ++i) spawn_node();
}

ScaleTestbed::~ScaleTestbed() = default;

telemetry::Sinks ScaleTestbed::sinks(std::size_t shard) {
  if (!config_.node_telemetry) return telemetry::Sinks{};
  ShardState& st = *shards_[shard];
  return telemetry::Sinks{&st.registry, &st.flight};
}

WhisperNode& ScaleTestbed::spawn_node() {
  const std::size_t i = nodes_.size();
  const std::size_t s = i % shards_.size();
  ShardState& st = *shards_[s];

  // Everything random about this node comes from the planner rng, consumed
  // here in global index order — identical for every shard count. The first
  // two nodes are public so relays and bootstrap contacts exist.
  nat::NatType type = nat::NatType::kNone;
  if (i >= 2) type = nat::draw_nat_type(plan_rng_, config_.natted_fraction);
  Rng node_rng = plan_rng_.fork();

  const bool is_public = type == nat::NatType::kNone;
  const Endpoint ep = is_public
                          ? st.fabric->add_public_node_at(public_ip(i))
                          : st.fabric->add_natted_node_at(type, private_ip(i),
                                                          device_ip(i));
  const NodeId id{static_cast<std::uint64_t>(i) + 1};
  endpoint_ids_[ep] = id.value;

  auto node = std::make_unique<WhisperNode>(
      *st.sim, *st.net, id, ep, is_public,
      pooled_keypair(config_.key_cycle ? i % config_.key_cycle : i,
                     config_.node.rsa_bits),
      config_.node, std::move(node_rng),
      sinks(s));

  node->start(sample_bootstrap());
  nodes_.push_back(std::move(node));
  return *nodes_.back();
}

std::vector<pss::ContactCard> ScaleTestbed::sample_bootstrap() {
  // A planner-sampled set of live nodes, always including at least one
  // public node (required as a relay for N-nodes). Bounded rejection
  // sampling instead of a full shuffle: booting node k must not cost O(k)
  // planner work or a 100k boot becomes quadratic. All draws stay on the
  // main thread in global boot order (S-invariance). The booting node is
  // never a candidate: a spawned node is not in nodes_ yet, a restarted
  // one's predecessor is already stopped.
  std::vector<pss::ContactCard> bootstrap;
  if (nodes_.empty()) return bootstrap;
  const std::size_t want = std::min(kBootstrapContacts, nodes_.size());
  std::vector<std::size_t> picked;
  for (std::size_t attempts = 0; attempts < 20 * want && picked.size() < want;
       ++attempts) {
    const std::size_t j = static_cast<std::size_t>(plan_rng_.next_below(nodes_.size()));
    if (!nodes_[j]->running()) continue;
    if (std::find(picked.begin(), picked.end(), j) != picked.end()) continue;
    picked.push_back(j);
    bootstrap.push_back(nodes_[j]->transport().self_card());
  }
  const bool has_public =
      std::any_of(bootstrap.begin(), bootstrap.end(),
                  [](const pss::ContactCard& c) { return c.is_public; });
  if (!has_public) {
    // Walk forward from a random start until a live public node turns up
    // (expected a few steps at any realistic public fraction).
    const std::size_t start = static_cast<std::size_t>(plan_rng_.next_below(nodes_.size()));
    for (std::size_t step = 0; step < nodes_.size(); ++step) {
      const std::size_t j = (start + step) % nodes_.size();
      if (nodes_[j]->running() && nodes_[j]->is_public()) {
        bootstrap.push_back(nodes_[j]->transport().self_card());
        break;
      }
    }
  }
  return bootstrap;
}

WhisperNode* ScaleTestbed::restart_node(std::size_t global_index) {
  if (global_index >= nodes_.size() || !nodes_[global_index]->running()) return nullptr;
  std::unique_ptr<WhisperNode>& slot = nodes_[global_index];
  ShardState& st = *shards_[global_index % shards_.size()];
  NodeConfig cfg = config_.node;
  cfg.transport.incarnation = slot->transport().incarnation() + 1;
  // Abrupt stop: timers die, no departure message goes out (there is
  // none), the endpoint frees up — but the NAT binding and the entry in
  // endpoint_ids_ stay, exactly like a process dying under kill -9.
  slot->stop();
  auto fresh = std::make_unique<WhisperNode>(
      *st.sim, *st.net, slot->id(), slot->internal_endpoint(), slot->is_public(),
      slot->keypair(), cfg, plan_rng_.fork(), sinks(global_index % shards_.size()));
  fresh->start(sample_bootstrap());
  restarted_.push_back(std::exchange(slot, std::move(fresh)));
  return slot.get();
}

void ScaleTestbed::kill_node(std::size_t global_index) {
  if (global_index >= nodes_.size()) return;
  WhisperNode& n = *nodes_[global_index];
  if (!n.running()) return;
  ShardState& st = *shards_[global_index % shards_.size()];
  // Table I's footnote-3 exclusion reads this mark (telemetry/figures.hpp).
  st.flight.mark(n.id().value, st.sim->now(), 0, telemetry::kNodeStopMark);
  n.stop();
  st.fabric->remove_node(n.internal_endpoint());
}

std::size_t ScaleTestbed::kill_random_node() {
  std::vector<std::size_t> alive;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i]->running()) alive.push_back(i);
  }
  if (alive.empty()) return static_cast<std::size_t>(-1);
  const std::size_t victim = alive[plan_rng_.pick_index(alive)];
  kill_node(victim);
  return victim;
}

WhisperNode* ScaleTestbed::node_at(std::size_t global_index) {
  return global_index < nodes_.size() ? nodes_[global_index].get() : nullptr;
}

std::size_t ScaleTestbed::alive_count() const {
  return static_cast<std::size_t>(
      std::count_if(nodes_.begin(), nodes_.end(),
                    [](const std::unique_ptr<WhisperNode>& n) { return n->running(); }));
}

std::vector<WhisperNode*> ScaleTestbed::alive_nodes() {
  std::vector<WhisperNode*> out;
  for (auto& n : nodes_) {
    if (n->running()) out.push_back(n.get());
  }
  return out;
}

pss::OverlayGraph ScaleTestbed::overlay_snapshot() {
  pss::OverlayGraph graph;
  for (WhisperNode* n : alive_nodes()) {
    std::vector<NodeId> nbrs;
    for (const auto& e : n->pss().view().entries()) nbrs.push_back(e.id());
    graph[n->id()] = std::move(nbrs);
  }
  return graph;
}

void ScaleTestbed::run_for(net::Time duration) {
  engine_->run_until(engine_->now() + duration);
}

std::vector<faults::FaultFabric*> ScaleTestbed::install_fault_fabrics() {
  std::vector<faults::FaultFabric*> out;
  // Shard-local victim randomness: chaos runs are not byte-identical across
  // shard counts (documented in DESIGN.md §13); they gate on recovery.
  Rng fault_rng(config_.seed ^ 0xfa017);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    ShardState& st = *shards_[s];
    if (st.faults == nullptr) {
      faults::FaultFabric::Environment env;
      env.live_endpoints = [this, s] {
        std::vector<Endpoint> eps;
        for (std::size_t i = s; i < nodes_.size(); i += shards_.size()) {
          if (nodes_[i]->running()) eps.push_back(nodes_[i]->internal_endpoint());
        }
        return eps;
      };
      env.relay_endpoints = [this, s] {
        std::vector<Endpoint> eps;
        for (std::size_t i = s; i < nodes_.size(); i += shards_.size()) {
          WhisperNode& n = *nodes_[i];
          if (n.running() && n.is_public() &&
              n.transport().relayed_registrations() > 0) {
            eps.push_back(n.internal_endpoint());
          }
        }
        return eps;
      };
      env.crash_node = [this, s](Endpoint ep) {
        for (std::size_t i = s; i < nodes_.size(); i += shards_.size()) {
          if (nodes_[i]->running() && nodes_[i]->internal_endpoint() == ep) {
            // Stop directly: this runs on the shard's worker thread and must
            // only touch shard-local state.
            nodes_[i]->stop();
            shards_[s]->fabric->remove_node(ep);
            return;
          }
        }
      };
      env.reset_nat = [this, s](Endpoint ep) { shards_[s]->fabric->reset_mappings(ep); };
      st.faults = std::make_unique<faults::FaultFabric>(
          *st.sim, *st.net, std::move(env), fault_rng.fork(),
          telemetry::Scope(sinks(s), 0));
    }
    out.push_back(st.faults.get());
  }
  return out;
}

std::string ScaleTestbed::merged_metrics_jsonl() const {
  telemetry::Registry merged;
  for (const auto& st : shards_) {
    telemetry::merge_registry_into(merged, st->registry);
  }
  return telemetry::to_jsonl(merged);
}

std::string ScaleTestbed::canonical_flight_jsonl() const {
  std::vector<const telemetry::FlightRecorder*> recs;
  recs.reserve(shards_.size());
  for (const auto& st : shards_) recs.push_back(&st->flight);
  return telemetry::to_jsonl(telemetry::canonical_flight_records(recs));
}

}  // namespace whisper
