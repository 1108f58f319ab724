// Ablation studies for the design choices called out in DESIGN.md §5.
//
//  A. Path length (f mixes): delivery latency and CPU vs collusion
//     resistance (the paper fixes f=2; footnote 2 sketches larger f).
//  B. Mix selection: CB/helper-guided (WHISPER) vs random nodes — shows why
//     the connection backlog exists (random mixes fail behind NATs).
//  C. Retry budget: success vs number of alternatives tried under churn
//     (the paper's Π retries, footnote 3).
//  D. NAT lease regime: TCP-style hour leases (the prototype's regime) vs
//     UDP 5-minute leases — the WCL hinges on routes outliving view
//     entries.
#include <cstdio>

#include "bench_util.hpp"
#include "churn/churn.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace whisper {
namespace {

ScaleConfig base_config(std::uint64_t seed) {
  ScaleConfig cfg;
  cfg.initial_nodes = 120;
  cfg.natted_fraction = 0.7;
  cfg.latency = "planetlab";
  cfg.node.pss.pi_min_public = 3;
  cfg.node.wcl.pi = 3;
  cfg.seed = seed;
  return cfg;
}

// Send `count` confidential messages between random pairs; returns
// (success fraction, mean delivery latency seconds, total attempts).
struct SendStats {
  double success = 0;
  double mean_latency_s = 0;
  double attempts_per_send = 0;
};

SendStats measure_sends(ScaleTestbed& tb, std::size_t count, Rng& rng) {
  auto nodes = tb.alive_nodes();
  std::size_t delivered = 0;
  Samples latencies;
  std::uint64_t attempts_before = 0;
  for (WhisperNode* n : nodes) attempts_before += n->wcl().stats().total_attempts;

  for (std::size_t i = 0; i < count; ++i) {
    WhisperNode* src = nodes[rng.pick_index(nodes)];
    WhisperNode* dst = nodes[rng.pick_index(nodes)];
    if (src == dst || !src->running() || !dst->running()) continue;
    const net::Time sent_at = tb.now();
    bool done = false;
    dst->wcl().on_deliver = [&](Bytes) {
      if (!done) {
        ++delivered;
        latencies.add(static_cast<double>(tb.simulator(0).now() - sent_at) /
                      net::kSecond);
        done = true;
      }
    };
    src->wcl().send_confidential(dst->wcl().self_peer(), to_bytes("ablation probe"));
    tb.run_for(20 * net::kSecond);
    dst->wcl().on_deliver = nullptr;
  }

  std::uint64_t attempts_after = 0;
  for (WhisperNode* n : nodes) attempts_after += n->wcl().stats().total_attempts;

  SendStats out;
  out.success = static_cast<double>(delivered) / static_cast<double>(count);
  out.mean_latency_s = latencies.mean();
  out.attempts_per_send =
      static_cast<double>(attempts_after - attempts_before) / static_cast<double>(count);
  return out;
}

void ablation_path_length() {
  std::printf("\n[A] path length (f mixes): cost of collusion resistance\n");
  Table t({"mixes", "delivered", "mean latency", "attempts/send"});
  for (std::size_t mixes : {1u, 2u, 3u, 4u}) {
    ScaleConfig cfg = base_config(2000 + mixes);
    cfg.node.wcl.mixes = mixes;
    ScaleTestbed tb(cfg);
    tb.run_for(6 * net::kMinute);
    Rng rng(cfg.seed);
    SendStats s = measure_sends(tb, 40, rng);
    t.add_row({std::to_string(mixes), Table::pct(s.success),
               Table::num(s.mean_latency_s, 3) + " s", Table::num(s.attempts_per_send, 2)});
  }
  std::printf("%s", t.render().c_str());
  std::printf("  expected: latency grows roughly linearly with f; f=2 is the paper's\n"
              "  sweet spot (relationship anonymity at ~2 extra one-way delays).\n");
}

void ablation_mix_selection() {
  std::printf("\n[B] mix selection: CB/helper-guided vs random nodes\n");
  // WHISPER selection.
  ScaleConfig cfg = base_config(2100);
  ScaleTestbed tb(cfg);
  tb.run_for(6 * net::kMinute);
  Rng rng(2101);
  SendStats guided = measure_sends(tb, 40, rng);

  // "Random" selection emulation: destinations advertised without helpers
  // and with nil hints force mixes to resolve blindly — equivalent to
  // picking a random-node path in a NAT-constrained network.
  auto nodes = tb.alive_nodes();
  std::size_t delivered = 0;
  for (std::size_t i = 0; i < 40; ++i) {
    WhisperNode* src = nodes[rng.pick_index(nodes)];
    WhisperNode* dst = nodes[rng.pick_index(nodes)];
    if (src == dst) continue;
    wcl::RemotePeer blind = dst->wcl().self_peer();
    // Replace the helper set with random nodes (not taken from dst's CB).
    blind.helpers.clear();
    for (int k = 0; k < 3; ++k) {
      WhisperNode* r = nodes[rng.pick_index(nodes)];
      if (r == dst || r == src) continue;
      wcl::Helper h;
      h.card = r->transport().self_card();
      h.key = r->keypair().pub;
      blind.helpers.push_back(h);
    }
    bool done = false;
    dst->wcl().on_deliver = [&](Bytes) { done = true; };
    src->wcl().send_confidential(blind, to_bytes("blind probe"));
    tb.run_for(20 * net::kSecond);
    dst->wcl().on_deliver = nullptr;
    if (done) ++delivered;
  }

  Table t({"selection", "delivered"});
  t.add_row({"CB/helper-guided (WHISPER)", Table::pct(guided.success)});
  t.add_row({"random helpers", Table::pct(static_cast<double>(delivered) / 40.0)});
  std::printf("%s", t.render().c_str());
  std::printf("  expected: random helpers often cannot reach a NATted destination —\n"
              "  the connection backlog is what makes the next-to-last hop valid.\n");
}

void ablation_retry_budget() {
  std::printf("\n[C] retry budget under churn (5%%/min)\n");
  Table t({"max retries", "delivered"});
  for (std::size_t retries : {0u, 1u, 3u, 5u}) {
    ScaleConfig cfg = base_config(2200 + retries);
    cfg.latency = "cluster";
    cfg.node.wcl.max_retries = retries;
    ScaleTestbed tb(cfg);
    Rng rng(cfg.seed ^ 1);
    tb.run_for(6 * net::kMinute);
    churn::ChurnEngine engine(
        tb.simulator(0), [&](std::size_t n) {
          std::size_t k = 0;
          for (std::size_t i = 0; i < n; ++i) {
            if (tb.kill_random_node() != static_cast<std::size_t>(-1)) ++k;
          }
          return k;
        },
        [&](std::size_t n) {
          for (std::size_t i = 0; i < n; ++i) tb.spawn_node();
        },
        [&] { return tb.alive_count(); });
    churn::ChurnPhase phase;
    phase.start = tb.now();
    phase.end = phase.start + 30 * net::kMinute;
    phase.leave_fraction = 0.05;
    engine.schedule(phase);
    tb.run_for(3 * net::kMinute);  // let churn bite
    SendStats s = measure_sends(tb, 40, rng);
    t.add_row({std::to_string(retries), Table::pct(s.success)});
  }
  std::printf("%s", t.render().c_str());
  std::printf("  expected: success climbs with the retry budget and saturates around\n"
              "  the paper's Pi retries.\n");
}

void ablation_lease_regime() {
  std::printf("\n[D] NAT lease regime: TCP-style (1 h) vs UDP-style (5 min)\n");
  Table t({"lease regime", "descriptor age", "delivered"});
  // The WCL's next-to-last hop relies on the helper's route to the
  // destination staying open. Fresh descriptors always work; the regimes
  // diverge once the descriptor (and therefore the helper's NAT state) has
  // aged — exactly the situation of a PPSS view entry several cycles old.
  for (bool udp : {false, true}) {
    ScaleConfig cfg = base_config(2300 + (udp ? 1 : 0));
    cfg.latency = "cluster";
    if (udp) {
      cfg.node.transport.route_ttl = 2 * net::kMinute;  // < 5 min UDP lease
    }
    ScaleTestbed tb(cfg);
    tb.run_for(8 * net::kMinute);
    Rng rng(cfg.seed ^ 2);

    // Snapshot destination descriptors now...
    auto nodes = tb.alive_nodes();
    std::vector<std::pair<WhisperNode*, wcl::RemotePeer>> dests;
    for (int i = 0; i < 40; ++i) {
      WhisperNode* dst = nodes[rng.pick_index(nodes)];
      if (dst->is_public()) continue;  // N-node destinations exercise helpers
      dests.emplace_back(dst, dst->wcl().self_peer());
    }
    // ...age them by 6 minutes of protocol time...
    tb.run_for(6 * net::kMinute);
    // ...then open paths using the stale snapshots.
    std::size_t delivered = 0;
    for (auto& [dst, peer] : dests) {
      WhisperNode* src = nodes[rng.pick_index(nodes)];
      if (src == dst) continue;
      bool done = false;
      dst->wcl().on_deliver = [&](Bytes) { done = true; };
      src->wcl().send_confidential(peer, to_bytes("stale descriptor probe"));
      tb.run_for(20 * net::kSecond);
      dst->wcl().on_deliver = nullptr;
      if (done) ++delivered;
    }
    t.add_row({udp ? "UDP-style (short)" : "TCP-style (long)", "6 min",
               Table::pct(dests.empty()
                              ? 0.0
                              : static_cast<double>(delivered) /
                                    static_cast<double>(dests.size()))});
  }
  std::printf("%s", t.render().c_str());
  std::printf("  expected: short-lived routes force more retries/failures — the paper's\n"
              "  near-perfect Table I relies on long-lived (TCP) NAT state.\n");
}

}  // namespace
}  // namespace whisper

int main() {
  using namespace whisper;
  bench::banner("Ablations - design choices behind the WCL",
                "quantifies DESIGN.md §5: path length, CB-guided mixes, retry budget, "
                "NAT lease regime");
  ablation_path_length();
  ablation_mix_selection();
  ablation_retry_budget();
  ablation_lease_regime();
  return 0;
}
