// Byzantine peer model: misbehaving nodes mangle, replay, flood and
// fabricate — and the honest stack must shrug. Unit tests pin each
// misbehaviour to its defense (decode rejection, replay suppression, rate
// limiting, view hygiene); the soak shows a 500-node deployment with 10% of
// its peers hostile keeps honest delivery and overlay reachability within
// 5% of its own no-adversary baseline, byte-identically across same-seed
// runs.
#include <gtest/gtest.h>

#include <memory>

#include "faults/faults.hpp"
#include "faults/script.hpp"
#include "pss/metrics.hpp"
#include "telemetry/export.hpp"
#include "whisper/scale.hpp"

namespace whisper {
namespace {

ScaleConfig small_config(std::uint64_t seed, std::size_t nodes = 40) {
  ScaleConfig cfg;
  cfg.initial_nodes = nodes;
  cfg.natted_fraction = 0.7;
  cfg.node.pss.pi_min_public = 3;
  cfg.node.wcl.pi = 3;
  cfg.seed = seed;
  return cfg;
}

/// Open-ended window making `actors` misbehave as `kind` from now on.
faults::FaultSpec byz_spec(ScaleTestbed& tb, faults::FaultKind kind,
                           std::vector<Endpoint> actors, double probability = 1.0,
                           double rate = 10.0) {
  faults::FaultSpec spec;
  spec.kind = kind;
  spec.start = tb.now();
  spec.end = 0;  // open window
  spec.probability = probability;
  spec.rate = rate;
  spec.targets_a = std::move(actors);
  return spec;
}

std::uint64_t total_decode_rejects(ScaleTestbed& tb) {
  std::uint64_t total = 0;
  for (WhisperNode* n : tb.alive_nodes()) {
    total += n->transport().decode_rejects();
    total += n->pss().decode_rejects();
    total += n->wcl().stats().decode_rejects;
  }
  return total;
}

TEST(Byzantine, TruncatedFramesAreRejectedNotFatal) {
  ScaleTestbed tb(small_config(101));
  tb.run_for(5 * net::kMinute);
  faults::FaultFabric& fabric = *tb.install_fault_fabrics()[0];
  fabric.schedule(byz_spec(tb, faults::FaultKind::kByzTruncate,
                           {tb.alive_nodes()[1]->internal_endpoint()}));
  const std::uint64_t rejects_before = total_decode_rejects(tb);
  tb.run_for(3 * net::kMinute);

  EXPECT_GT(fabric.stats().byz_truncated, 0u);
  // Receivers classified the mangled frames instead of acting on them.
  EXPECT_GT(total_decode_rejects(tb), rejects_before);
  EXPECT_EQ(tb.alive_count(), 40u);
}

TEST(Byzantine, OversizedFramesAreRejectedNotFatal) {
  ScaleTestbed tb(small_config(102));
  tb.run_for(5 * net::kMinute);
  faults::FaultFabric& fabric = *tb.install_fault_fabrics()[0];
  fabric.schedule(byz_spec(tb, faults::FaultKind::kByzOversize,
                           {tb.alive_nodes()[1]->internal_endpoint()}));
  const std::uint64_t rejects_before = total_decode_rejects(tb);
  tb.run_for(3 * net::kMinute);

  EXPECT_GT(fabric.stats().byz_oversized, 0u);
  EXPECT_GT(total_decode_rejects(tb), rejects_before);
  EXPECT_EQ(tb.alive_count(), 40u);
}

TEST(Byzantine, BitflippedFramesAreRejectedNotFatal) {
  ScaleTestbed tb(small_config(103));
  tb.run_for(5 * net::kMinute);
  faults::FaultFabric& fabric = *tb.install_fault_fabrics()[0];
  fabric.schedule(byz_spec(tb, faults::FaultKind::kByzBitflip,
                           {tb.alive_nodes()[1]->internal_endpoint()}));
  tb.run_for(3 * net::kMinute);

  EXPECT_GT(fabric.stats().byz_bitflipped, 0u);
  EXPECT_EQ(tb.alive_count(), 40u);
  // The rest of the deployment keeps gossiping.
  std::uint64_t completed = 0;
  for (WhisperNode* n : tb.alive_nodes()) completed += n->pss().exchanges_completed();
  EXPECT_GT(completed, 0u);
}

TEST(Byzantine, ReplayActorCapturesAndReinjects) {
  ScaleTestbed tb(small_config(104));
  tb.run_for(5 * net::kMinute);
  faults::FaultFabric& fabric = *tb.install_fault_fabrics()[0];
  fabric.schedule(byz_spec(tb, faults::FaultKind::kByzReplay,
                           {tb.alive_nodes()[1]->internal_endpoint()},
                           /*probability=*/1.0, /*rate=*/20.0));
  tb.run_for(3 * net::kMinute);

  EXPECT_GT(fabric.stats().byz_captured, 0u);
  EXPECT_GT(fabric.stats().byz_replayed, 0u);
  EXPECT_EQ(tb.alive_count(), 40u);
}

TEST(Byzantine, FloodIsAbsorbedByDecodeAndRateDefenses) {
  ScaleTestbed tb(small_config(105));
  tb.run_for(5 * net::kMinute);
  faults::FaultFabric& fabric = *tb.install_fault_fabrics()[0];
  fabric.schedule(byz_spec(tb, faults::FaultKind::kByzFlood,
                           {tb.alive_nodes()[1]->internal_endpoint()},
                           /*probability=*/1.0, /*rate=*/50.0));
  const std::uint64_t rejects_before = total_decode_rejects(tb);
  tb.run_for(3 * net::kMinute);

  EXPECT_GT(fabric.stats().byz_flooded, 100u);  // ~50/s for 3 minutes
  // Garbage at the WCL port is classified and dropped at the codec wall.
  EXPECT_GT(total_decode_rejects(tb), rejects_before);
  EXPECT_EQ(tb.alive_count(), 40u);
}

TEST(Byzantine, FabricatedGossipDoesNotPoisonTheOverlay) {
  ScaleTestbed tb(small_config(106));
  tb.run_for(5 * net::kMinute);
  faults::FaultFabric& fabric = *tb.install_fault_fabrics()[0];
  fabric.schedule(byz_spec(tb, faults::FaultKind::kByzFabricate,
                           {tb.alive_nodes()[1]->internal_endpoint()}));
  tb.run_for(6 * net::kMinute);

  EXPECT_GT(fabric.stats().byz_fabricated, 0u);
  // Fabricated ids live in 0x8000...-space no honest deployment allocates;
  // exchange failures and age eviction keep them from taking over views.
  std::size_t phantom = 0, total = 0;
  for (WhisperNode* n : tb.alive_nodes()) {
    for (const auto& e : n->pss().view().entries()) {
      ++total;
      if ((e.card.id.value & 0x8000000000000000ull) != 0) ++phantom;
    }
  }
  ASSERT_GT(total, 0u);
  EXPECT_LT(static_cast<double>(phantom) / static_cast<double>(total), 0.2)
      << phantom << " phantom entries across " << total;
  EXPECT_EQ(tb.alive_count(), 40u);
}

TEST(Byzantine, ScriptParsesByzKindsAndRate) {
  const auto parsed = faults::parse_script(
      "byztruncate 1m +2m fraction=0.1 count=0 probability=0.5\n"
      "byzreplay 2m +3m count=3 rate=5\n"
      "byzflood 3m +1m count=2 rate=20\n"
      "byzfabricate 4m +4m fraction=0.15 count=0\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(parsed.specs.size(), 4u);
  EXPECT_EQ(parsed.specs[0].kind, faults::FaultKind::kByzTruncate);
  EXPECT_EQ(parsed.specs[0].count, 0u);
  EXPECT_EQ(parsed.specs[1].kind, faults::FaultKind::kByzReplay);
  EXPECT_DOUBLE_EQ(parsed.specs[1].rate, 5.0);
  EXPECT_EQ(parsed.specs[2].kind, faults::FaultKind::kByzFlood);
  EXPECT_DOUBLE_EQ(parsed.specs[2].rate, 20.0);
  EXPECT_EQ(parsed.specs[3].kind, faults::FaultKind::kByzFabricate);
  EXPECT_TRUE(faults::is_byzantine(parsed.specs[3].kind));
  EXPECT_FALSE(faults::is_byzantine(faults::FaultKind::kCorrupt));

  const auto bad = faults::parse_script("byzflood 1m +1m rate=-3\n");
  EXPECT_FALSE(bad.ok());
}

// --- The 500-node Byzantine soak (the tentpole's acceptance gate). ---

// Fire confidential sends between deterministically-picked honest pairs and
// report the acknowledged fraction.
double honest_delivery(ScaleTestbed& tb, const std::vector<WhisperNode*>& honest,
                       std::size_t pairs, std::size_t salt, net::Time window) {
  auto ok = std::make_shared<int>(0);
  int sent = 0;
  for (std::size_t k = 0; k < pairs; ++k) {
    WhisperNode* src = honest[(salt + 2 * k) % honest.size()];
    WhisperNode* dst = honest[(salt + 2 * k + 7) % honest.size()];
    if (src == dst) continue;
    ++sent;
    src->wcl().send_confidential(dst->wcl().self_peer(), to_bytes("probe"),
                                 [ok](wcl::SendOutcome o) {
                                   if (o != wcl::SendOutcome::kNoAlternative) ++*ok;
                                 });
  }
  tb.run_for(window);
  return sent == 0 ? 0.0 : static_cast<double>(*ok) / static_cast<double>(sent);
}

struct ByzOutcome {
  double baseline_delivery = 0;
  double adversarial_delivery = 0;
  double baseline_reach = 0;
  double adversarial_reach = 0;
  faults::FaultFabric::Stats fault_stats;
  std::uint64_t decode_rejects = 0;
  std::string metrics_jsonl;
};

ByzOutcome run_byzantine(std::uint64_t seed) {
  ScaleConfig cfg;
  cfg.initial_nodes = 500;
  cfg.natted_fraction = 0.7;
  cfg.node.pss.pi_min_public = 3;
  cfg.node.wcl.pi = 3;
  cfg.seed = seed;
  ScaleTestbed tb(cfg);
  tb.run_for(8 * net::kMinute);

  // 10% of the deployment misbehaves; the test picks the actors so the
  // probe set can be restricted to honest pairs ("honest delivery").
  auto nodes = tb.alive_nodes();
  std::vector<Endpoint> actors;
  std::vector<WhisperNode*> honest;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i % 10 == 3 && actors.size() < nodes.size() / 10) {
      actors.push_back(nodes[i]->internal_endpoint());
    } else {
      honest.push_back(nodes[i]);
    }
  }

  ByzOutcome out;
  out.baseline_delivery = honest_delivery(tb, honest, 30, /*salt=*/5, net::kMinute);
  out.baseline_reach =
      pss::reachable_fraction(tb.overlay_snapshot(), honest[0]->id());

  // Split the actors across all six misbehaviours and open the windows.
  faults::FaultFabric& fabric = *tb.install_fault_fabrics()[0];
  const std::vector<faults::FaultKind> kinds = {
      faults::FaultKind::kByzTruncate, faults::FaultKind::kByzOversize,
      faults::FaultKind::kByzBitflip,  faults::FaultKind::kByzReplay,
      faults::FaultKind::kByzFlood,    faults::FaultKind::kByzFabricate};
  std::vector<faults::FaultSpec> specs;
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    faults::FaultSpec spec;
    spec.kind = kinds[i];
    spec.start = tb.now();
    spec.end = 0;  // hostile for the rest of the run
    spec.probability = 0.5;
    spec.rate = 5.0;
    for (std::size_t a = i; a < actors.size(); a += kinds.size()) {
      spec.targets_a.push_back(actors[a]);
    }
    specs.push_back(spec);
  }
  fabric.schedule_all(specs);

  // Let the adversary soak, then measure the honest side of the network.
  tb.run_for(6 * net::kMinute);
  out.adversarial_delivery = honest_delivery(tb, honest, 30, /*salt=*/97, net::kMinute);
  out.adversarial_reach =
      pss::reachable_fraction(tb.overlay_snapshot(), honest[0]->id());

  out.fault_stats = fabric.stats();
  for (std::size_t i = 0; i < tb.node_count(); ++i) {
    WhisperNode* n = tb.node_at(i);
    out.decode_rejects += n->transport().decode_rejects();
    out.decode_rejects += n->pss().decode_rejects();
    out.decode_rejects += n->wcl().stats().decode_rejects;
  }
  out.metrics_jsonl = telemetry::to_jsonl(tb.registry(0));
  return out;
}

const ByzOutcome& byzantine_run(int which) {
  static const ByzOutcome runs[2] = {run_byzantine(4242), run_byzantine(4242)};
  return runs[which & 1];
}

TEST(ByzantineSoak, HonestDeliveryWithinFivePercentOfBaseline) {
  const ByzOutcome& out = byzantine_run(0);
  EXPECT_GE(out.baseline_delivery, 0.85) << "baseline delivery too low";
  // Every misbehaviour family actually fired.
  EXPECT_GT(out.fault_stats.byz_truncated + out.fault_stats.byz_oversized +
                out.fault_stats.byz_bitflipped,
            0u);
  EXPECT_GT(out.fault_stats.byz_replayed, 0u);
  EXPECT_GT(out.fault_stats.byz_flooded, 0u);
  EXPECT_GT(out.fault_stats.byz_fabricated, 0u);
  // The defenses, not luck, absorbed it.
  EXPECT_GT(out.decode_rejects, 0u);
  // Headline acceptance: honest-to-honest delivery within 5% of baseline.
  EXPECT_GE(out.adversarial_delivery, out.baseline_delivery - 0.05)
      << "baseline=" << out.baseline_delivery
      << " adversarial=" << out.adversarial_delivery;
}

TEST(ByzantineSoak, OverlayReachabilityWithinFivePercentOfBaseline) {
  const ByzOutcome& out = byzantine_run(0);
  EXPECT_GE(out.baseline_reach, 0.95);
  EXPECT_GE(out.adversarial_reach, out.baseline_reach - 0.05)
      << "baseline=" << out.baseline_reach
      << " adversarial=" << out.adversarial_reach;
}

TEST(ByzantineSoak, SameSeedRunsAreByteIdentical) {
  const ByzOutcome& a = byzantine_run(0);
  const ByzOutcome& b = byzantine_run(1);
  EXPECT_EQ(a.baseline_delivery, b.baseline_delivery);
  EXPECT_EQ(a.adversarial_delivery, b.adversarial_delivery);
  EXPECT_EQ(a.adversarial_reach, b.adversarial_reach);
  EXPECT_EQ(a.fault_stats.byz_replayed, b.fault_stats.byz_replayed);
  EXPECT_EQ(a.fault_stats.byz_fabricated, b.fault_stats.byz_fabricated);
  EXPECT_EQ(a.decode_rejects, b.decode_rejects);
  EXPECT_EQ(a.metrics_jsonl, b.metrics_jsonl);
  // Non-vacuous: the export carries the Byzantine and defense telemetry.
  EXPECT_NE(a.metrics_jsonl.find("faults.byz.mutated"), std::string::npos);
  EXPECT_NE(a.metrics_jsonl.find("faults.byz.flooded"), std::string::npos);
}

}  // namespace
}  // namespace whisper
