// Chaos soak: a 500-node deployment under a scripted bisection partition
// plus relay crashes must (a) lose routes while the cut is live, (b)
// recover route success to within 5% of the pre-fault baseline after the
// heal, and (c) do all of it byte-identically across same-seed runs — the
// fault fabric is part of the deterministic simulation, not noise on top.
#include <gtest/gtest.h>

#include "faults/faults.hpp"
#include "pss/metrics.hpp"
#include "telemetry/export.hpp"
#include "whisper/scale.hpp"

namespace whisper {
namespace {

// Fire `pairs` confidential sends between deterministically-picked node
// pairs and report the fraction acknowledged by the end of `window`.
double route_success(ScaleTestbed& tb, std::size_t pairs, std::size_t salt,
                     net::Time window) {
  auto nodes = tb.alive_nodes();
  auto ok = std::make_shared<int>(0);
  int sent = 0;
  for (std::size_t k = 0; k < pairs; ++k) {
    WhisperNode* src = nodes[(salt + 2 * k) % nodes.size()];
    WhisperNode* dst = nodes[(salt + 2 * k + 7) % nodes.size()];
    if (src == dst) continue;
    ++sent;
    src->wcl().send_confidential(
        dst->wcl().self_peer(), to_bytes("probe"),
        [ok](wcl::SendOutcome o) {
          if (o != wcl::SendOutcome::kNoAlternative) ++*ok;
        });
  }
  tb.run_for(window);
  return sent == 0 ? 0.0 : static_cast<double>(*ok) / static_cast<double>(sent);
}

struct ChaosOutcome {
  double baseline = 0;
  double during_fault = 0;
  double recovered = 0;
  faults::FaultFabric::Stats fault_stats;
  std::uint64_t relays_lost = 0;
  std::string metrics_jsonl;
};

ChaosOutcome run_chaos(std::uint64_t seed) {
  ScaleConfig cfg;
  cfg.initial_nodes = 500;
  cfg.natted_fraction = 0.7;
  cfg.node.pss.pi_min_public = 3;
  cfg.node.wcl.pi = 3;
  cfg.seed = seed;
  ScaleTestbed tb(cfg);
  tb.run_for(8 * net::kMinute);

  ChaosOutcome out;
  out.baseline = route_success(tb, /*pairs=*/30, /*salt=*/3, net::kMinute);

  // Script the incident: a 30%-bisection partition lasting four minutes,
  // with two relay crashes one minute in (the partition hides the loss
  // from half the clients until it heals — the nasty ordering).
  faults::FaultFabric& fabric = *tb.install_fault_fabrics()[0];
  const net::Time t0 = tb.now() + 30 * net::kSecond;
  faults::FaultSpec partition;
  partition.kind = faults::FaultKind::kPartition;
  partition.start = t0;
  partition.end = t0 + 4 * net::kMinute;
  partition.fraction = 0.3;
  faults::FaultSpec crash;
  crash.kind = faults::FaultKind::kCrash;
  crash.start = t0 + net::kMinute;
  crash.count = 2;
  fabric.schedule_all({partition, crash});

  // Probe while the cut is live: every cross-cut route must fail.
  tb.run_for(net::kMinute);  // 30s into the partition window
  out.during_fault = route_success(tb, 30, /*salt=*/101, 90 * net::kSecond);

  // Ride out the window, then give the stack its recovery budget: relay
  // failover needs the keepalive loss threshold (3 x 30s), the PSS needs a
  // quarantine TTL (2 min) to forgive peers cut off by the partition.
  tb.run_for(2 * net::kMinute);  // to the heal
  tb.run_for(5 * net::kMinute);  // recovery budget
  out.recovered = route_success(tb, 30, /*salt=*/211, net::kMinute);

  out.fault_stats = fabric.stats();
  for (std::size_t i = 0; i < tb.node_count(); ++i) {
    WhisperNode* n = tb.node_at(i);
    out.relays_lost += n->transport().relays_lost();
  }
  out.metrics_jsonl = telemetry::to_jsonl(tb.registry(0));
  return out;
}

// Shared across the two tests below: one pair of same-seed runs.
const ChaosOutcome& chaos_run(int which) {
  static const ChaosOutcome runs[2] = {run_chaos(777), run_chaos(777)};
  return runs[which & 1];
}

TEST(ChaosSoak, RouteSuccessRecoversAfterPartitionAndRelayCrashes) {
  const ChaosOutcome& out = chaos_run(0);
  // A warm 500-node deployment routes reliably.
  EXPECT_GE(out.baseline, 0.85) << "baseline route success too low";
  // The partition actually bit: cross-cut probes failed.
  EXPECT_LT(out.during_fault, out.baseline - 0.1);
  EXPECT_GT(out.fault_stats.packets_dropped, 0u);
  EXPECT_EQ(out.fault_stats.nodes_crashed, 2u);
  // Clients of the crashed relays noticed and failed over.
  EXPECT_GE(out.relays_lost, 1u);
  // The headline acceptance: recovery to within 5% of the baseline.
  EXPECT_GE(out.recovered, out.baseline - 0.05)
      << "baseline=" << out.baseline << " recovered=" << out.recovered;
}

TEST(PartitionRejoin, OverlayRemergesAfterFullViewTurnover) {
  // A partition that outlives the view's turnover time (15 gossip cycles
  // here) leaves no cross-side descriptor in any view: timeouts evict them
  // all. Without the PSS healing reserve the overlay stays bisected
  // forever after the heal; with it, re-probes of evicted peers re-seed
  // the first cross edge and gossip re-blends the sides.
  ScaleConfig cfg;
  cfg.initial_nodes = 60;
  cfg.node.pss.pi_min_public = 3;
  cfg.node.wcl.pi = 3;
  cfg.seed = 913;
  ScaleTestbed tb(cfg);
  tb.run_for(6 * net::kMinute);

  faults::FaultFabric& fabric = *tb.install_fault_fabrics()[0];
  faults::FaultSpec cut;
  cut.kind = faults::FaultKind::kPartition;
  cut.start = tb.now();
  cut.end = cut.start + 150 * net::kSecond;
  cut.fraction = 0.5;
  fabric.schedule(cut);
  tb.run_for(150 * net::kSecond);

  tb.run_for(5 * net::kMinute);  // healing time (quarantine TTL + re-probes)

  const double reachable =
      pss::reachable_fraction(tb.overlay_snapshot(), tb.alive_nodes()[0]->id());
  EXPECT_GT(reachable, 0.9) << "overlay still bisected after heal";
  std::uint64_t rejoined = 0;
  for (WhisperNode* n : tb.alive_nodes()) rejoined += n->pss().peers_rejoined();
  EXPECT_GT(rejoined, 0u) << "recovery did not go through the healing reserve";
}

TEST(ChaosSoak, SameSeedRunsAreByteIdentical) {
  const ChaosOutcome& a = chaos_run(0);
  const ChaosOutcome& b = chaos_run(1);
  EXPECT_EQ(a.baseline, b.baseline);
  EXPECT_EQ(a.during_fault, b.during_fault);
  EXPECT_EQ(a.recovered, b.recovered);
  EXPECT_EQ(a.fault_stats.packets_dropped, b.fault_stats.packets_dropped);
  EXPECT_EQ(a.relays_lost, b.relays_lost);
  EXPECT_EQ(a.metrics_jsonl, b.metrics_jsonl);
  // Non-vacuous: the export carries fault-fabric and recovery telemetry.
  EXPECT_NE(a.metrics_jsonl.find("faults.packets.dropped"), std::string::npos);
  EXPECT_NE(a.metrics_jsonl.find("faults.nodes.crashed"), std::string::npos);
  EXPECT_NE(a.metrics_jsonl.find("pss.peers.quarantined"), std::string::npos);
}

}  // namespace
}  // namespace whisper
