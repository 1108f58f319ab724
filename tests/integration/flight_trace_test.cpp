// End-to-end causal tracing: flight records from full-stack runs must
// (a) decompose per-hop latency to the measured RTT, (b) be byte-identical
// across same-seed runs, (c) leave protocol wire bytes untouched, (d)
// survive fault injection with correct attribution, and (e) uphold the
// anonymity claim the auditor measures.
#include <gtest/gtest.h>

#include "faults/faults.hpp"
#include "telemetry/audit.hpp"
#include "telemetry/flight.hpp"
#include "whisper/scale.hpp"

namespace whisper {
namespace {

constexpr GroupId kGroup{61717};

ScaleConfig base_config(std::uint64_t seed) {
  ScaleConfig cfg;
  cfg.initial_nodes = 30;
  cfg.node.pss.pi_min_public = 3;
  cfg.node.wcl.pi = 3;
  cfg.node.ppss.cycle = 30 * net::kSecond;
  cfg.seed = seed;
  cfg.flight = true;
  return cfg;
}

void form_group(ScaleTestbed& tb, std::uint64_t seed, int members) {
  auto nodes = tb.alive_nodes();
  crypto::Drbg d(seed);
  auto& fg = nodes[0]->create_group(kGroup, crypto::RsaKeyPair::generate(512, d));
  for (int i = 1; i <= members; ++i) {
    nodes[static_cast<std::size_t>(i)]->join_group(
        kGroup, *fg.invite(nodes[static_cast<std::size_t>(i)]->id()), fg.self_descriptor());
  }
}

TEST(FlightTrace, PerHopLatenciesSumToMeasuredRtt) {
  ScaleConfig cfg = base_config(9001);
  ScaleTestbed tb(cfg);
  tb.run_for(4 * net::kMinute);
  form_group(tb, cfg.seed, 5);
  tb.run_for(6 * net::kMinute);

  const auto records = tb.flight(0).assemble();
  std::size_t delivered = 0;
  for (const auto& rec : records) {
    if (rec.layer != telemetry::TraceLayer::kWcl || rec.outcome != "delivered") continue;
    ++delivered;
    const std::uint64_t d = rec.decomposed_us();
    const std::uint64_t err = rec.rtt_us > d ? rec.rtt_us - d : d - rec.rtt_us;
    EXPECT_LE(err, 1000u) << "trace " << rec.trace_id << ": rtt " << rec.rtt_us
                          << "us vs decomposed " << d << "us";
    EXPECT_GE(rec.hops.size(), 2u);  // at least one forward hop and the ACK
    EXPECT_GT(rec.end_ts, rec.begin_ts);
  }
  EXPECT_GT(delivered, 50u);  // the run really exercised confidential sends
  EXPECT_EQ(tb.flight(0).dropped(), 0u);

  // Roots (PPSS exchanges/joins) parent the WCL messages they caused.
  std::size_t parented = 0;
  for (const auto& rec : records) {
    if (rec.layer == telemetry::TraceLayer::kWcl && rec.root != 0) ++parented;
  }
  EXPECT_GT(parented, 0u);
}

TEST(FlightTrace, SameSeedRunsExportByteIdenticalRecords) {
  auto run = [] {
    ScaleConfig cfg = base_config(9002);
    ScaleTestbed tb(cfg);
    tb.run_for(4 * net::kMinute);
    form_group(tb, cfg.seed, 5);
    tb.run_for(5 * net::kMinute);
    return telemetry::to_jsonl(tb.flight(0).assemble());
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(telemetry::flight_digest(a), telemetry::flight_digest(b));
  EXPECT_EQ(a, b);
}

// The zero-wire-byte guarantee: with the tap observing every datagram's
// payload bytes, a traced run and a dark run must put byte-identical
// traffic on the wire. TraceContext rides simulator-side metadata only.
TEST(FlightTrace, TracingAddsZeroBytesToWirePayloads) {
  auto run = [](bool flight) {
    ScaleConfig cfg = base_config(9003);
    cfg.flight = flight;
    ScaleTestbed tb(cfg);
    std::uint64_t digest = 1469598103934665603ull;
    std::uint64_t packets = 0;
    tb.network(0).set_tap([&](const net::Datagram& dgram) {
      ++packets;
      for (std::uint8_t byte : dgram.payload) {
        digest ^= byte;
        digest *= 1099511628211ull;
      }
    });
    tb.run_for(4 * net::kMinute);
    form_group(tb, cfg.seed, 5);
    tb.run_for(5 * net::kMinute);
    return std::make_pair(digest, packets);
  };
  const auto dark = run(false);
  const auto lit = run(true);
  EXPECT_GT(dark.second, 1000u);
  EXPECT_EQ(dark.second, lit.second);  // same schedule, same packet count
  EXPECT_EQ(dark.first, lit.first);    // same bytes in the same order
}

TEST(FlightTrace, FaultInjectionIsAttributedInRecords) {
  ScaleConfig cfg = base_config(9004);
  ScaleTestbed tb(cfg);
  tb.run_for(4 * net::kMinute);
  form_group(tb, cfg.seed, 5);
  tb.run_for(2 * net::kMinute);

  // A rough window: drop a third of packets, duplicate and jitter the rest.
  faults::FaultFabric& ff = *tb.install_fault_fabrics()[0];
  const net::Time t0 = tb.now();
  faults::FaultSpec loss;
  loss.kind = faults::FaultKind::kLoss;
  loss.start = t0;
  loss.end = t0 + 3 * net::kMinute;
  loss.probability = 0.3;
  faults::FaultSpec dup;
  dup.kind = faults::FaultKind::kDuplicate;
  dup.start = t0;
  dup.end = t0 + 3 * net::kMinute;
  dup.probability = 0.2;
  faults::FaultSpec reorder;
  reorder.kind = faults::FaultKind::kReorder;
  reorder.start = t0;
  reorder.end = t0 + 3 * net::kMinute;
  reorder.probability = 0.2;
  reorder.delay = 50 * net::kMillisecond;
  ff.schedule_all({loss, dup, reorder});
  tb.run_for(5 * net::kMinute);

  const auto records = tb.flight(0).assemble();
  std::size_t fault_touched = 0, retransmitted = 0, dropped_hops = 0;
  for (const auto& rec : records) {
    if (rec.layer != telemetry::TraceLayer::kWcl) continue;
    if (!rec.faults.empty()) ++fault_touched;
    if (rec.attempts > 1) {
      ++retransmitted;
      EXPECT_TRUE(rec.karn_ambiguous);
    }
    for (const auto& hop : rec.hops) {
      if (hop.status == "loss" || hop.status == "fault") ++dropped_hops;
    }
    // Retransmits under duplication/reordering must still decompose sanely.
    if (rec.outcome == "delivered") {
      const std::uint64_t d = rec.decomposed_us();
      const std::uint64_t err = rec.rtt_us > d ? rec.rtt_us - d : d - rec.rtt_us;
      EXPECT_LE(err, 60000u) << "trace " << rec.trace_id;  // reorder jitter bound
    }
  }
  EXPECT_GT(fault_touched, 0u);   // fault events reached the right traces
  EXPECT_GT(retransmitted, 0u);   // loss forced WCL retries
  EXPECT_GT(dropped_hops, 0u);    // drops carry their reason
}

TEST(FlightTrace, RelayCrashDropsAreAttributed) {
  ScaleConfig cfg = base_config(9005);
  cfg.initial_nodes = 40;
  ScaleTestbed tb(cfg);
  tb.run_for(4 * net::kMinute);
  form_group(tb, cfg.seed, 6);
  tb.run_for(2 * net::kMinute);

  faults::FaultFabric& ff = *tb.install_fault_fabrics()[0];
  faults::FaultSpec crash;
  crash.kind = faults::FaultKind::kCrash;
  crash.start = tb.now() + net::kSecond;
  crash.count = 2;  // two relay crashes
  ff.schedule_all({crash});
  tb.run_for(5 * net::kMinute);

  // Packets to the crashed relays die with a detach/filter drop; the traces
  // that hit them must record it rather than silently losing the hop.
  const auto records = tb.flight(0).assemble();
  std::size_t crash_drops = 0;
  for (const auto& rec : records) {
    for (const auto& hop : rec.hops) {
      if (hop.status == "detach" || hop.status == "filter") ++crash_drops;
    }
  }
  EXPECT_GT(crash_drops, 0u);
}

// The paper's anonymity claim, now a regression test: a single
// honest-but-curious relay observing its own traffic can link zero
// sender/receiver pairs it does not itself own.
TEST(FlightTrace, SingleHonestButCuriousRelayLinksNothing) {
  ScaleConfig cfg = base_config(9006);
  cfg.initial_nodes = 50;
  ScaleTestbed tb(cfg);
  tb.run_for(4 * net::kMinute);
  form_group(tb, cfg.seed, 8);
  tb.run_for(6 * net::kMinute);

  const auto records = tb.flight(0).assemble();
  telemetry::Vantage vantage;
  for (WhisperNode* n : tb.alive_nodes()) {
    if (n->is_public()) vantage.relays.insert(n->id().value);
  }
  ASSERT_FALSE(vantage.relays.empty());
  const telemetry::AuditReport report =
      telemetry::audit(records, vantage, tb.node_count());
  ASSERT_FALSE(report.relays.empty());
  std::size_t seen = 0;
  for (const auto& relay : report.relays) {
    EXPECT_EQ(relay.linkable, 0u) << "relay " << relay.relay
                                  << " linked a sender to a receiver";
    seen += relay.messages_seen;
  }
  EXPECT_GT(seen, 0u);  // the relays really carried audited traffic
}

}  // namespace
}  // namespace whisper
