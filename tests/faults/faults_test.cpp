// Unit tests for the deterministic fault-injection fabric: every fault
// kind exercised against a raw sim::Network, plus the script parser and
// the same-seed determinism contract the chaos suite relies on.
#include "faults/faults.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <set>

#include "faults/script.hpp"
#include "sim/network.hpp"

namespace whisper::faults {
namespace {

Endpoint ep(std::uint32_t ip) { return Endpoint{ip, 4000}; }

struct FaultsFixture : ::testing::Test {
  sim::Simulator sim;
  sim::Network net{sim, std::make_unique<sim::FixedLatency>(net::kMillisecond), 7};
  std::vector<Endpoint> live;
  std::vector<Endpoint> relays;
  std::vector<Endpoint> crashed;
  std::vector<Endpoint> nat_resets;
  std::unique_ptr<FaultFabric> fabric;

  FaultFabric& install(std::uint64_t seed = 11) {
    FaultFabric::Environment env;
    env.live_endpoints = [this] { return live; };
    env.relay_endpoints = [this] { return relays; };
    env.crash_node = [this](Endpoint e) {
      crashed.push_back(e);
      net.detach(e);
    };
    env.reset_nat = [this](Endpoint e) { nat_resets.push_back(e); };
    fabric = std::make_unique<FaultFabric>(sim, net, std::move(env), Rng(seed));
    return *fabric;
  }

  // Attach a counting handler; returns a reference to the live count.
  int& sink(Endpoint e) {
    auto counter = std::make_shared<int>(0);
    counts_.push_back(counter);
    net.attach(e, [counter](const net::Datagram&) { ++*counter; });
    return *counter;
  }

  std::vector<std::shared_ptr<int>> counts_;
};

TEST_F(FaultsFixture, IdleFabricPassesPacketsUntouched) {
  FaultFabric& f = install();
  EXPECT_TRUE(f.idle());
  int& got = sink(ep(1));
  net.send(ep(2), ep(1), Bytes{1, 2, 3}, net::Proto::kApp);
  sim.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(f.stats().packets_dropped, 0u);
  EXPECT_EQ(f.stats().packets_delayed, 0u);
  EXPECT_TRUE(f.idle());
}

TEST_F(FaultsFixture, PairwisePartitionCutsBothDirectionsThenHeals) {
  FaultFabric& f = install();
  FaultSpec spec;
  spec.kind = FaultKind::kPartition;
  spec.start = net::kSecond;
  spec.end = 3 * net::kSecond;
  spec.targets_a = {ep(1)};
  spec.targets_b = {ep(2)};
  f.schedule(spec);

  int& at1 = sink(ep(1));
  int& at2 = sink(ep(2));
  int& at3 = sink(ep(3));

  // Before the window: delivered.
  net.send(ep(1), ep(2), Bytes{0}, net::Proto::kApp);
  sim.run_until(net::kSecond / 2);
  EXPECT_EQ(at2, 1);

  // Inside the window: cut in both directions, third parties unaffected.
  sim.run_until(2 * net::kSecond);
  EXPECT_FALSE(f.idle());
  net.send(ep(1), ep(2), Bytes{0}, net::Proto::kApp);
  net.send(ep(2), ep(1), Bytes{0}, net::Proto::kApp);
  net.send(ep(1), ep(3), Bytes{0}, net::Proto::kApp);
  sim.run_until(2 * net::kSecond + 10 * net::kMillisecond);
  EXPECT_EQ(at2, 1);
  EXPECT_EQ(at1, 0);
  EXPECT_EQ(at3, 1);
  EXPECT_EQ(f.stats().packets_dropped, 2u);

  // After the window: healed.
  sim.run_until(3 * net::kSecond + net::kMillisecond);
  net.send(ep(1), ep(2), Bytes{0}, net::Proto::kApp);
  sim.run();
  EXPECT_EQ(at2, 2);
  EXPECT_TRUE(f.idle());
}

TEST_F(FaultsFixture, AsymmetricLossOnlyCutsOneDirection) {
  FaultFabric& f = install();
  FaultSpec spec;
  spec.kind = FaultKind::kLoss;
  spec.start = 0;
  spec.end = net::kMinute;
  spec.probability = 1.0;
  spec.symmetric = false;
  spec.targets_a = {ep(1)};
  spec.targets_b = {ep(2)};
  f.schedule(spec);

  int& at1 = sink(ep(1));
  int& at2 = sink(ep(2));
  sim.run_until(net::kSecond);
  net.send(ep(1), ep(2), Bytes{0}, net::Proto::kApp);  // A->B: lost
  net.send(ep(2), ep(1), Bytes{0}, net::Proto::kApp);  // B->A: delivered
  sim.run_until(2 * net::kSecond);
  EXPECT_EQ(at2, 0);
  EXPECT_EQ(at1, 1);
  EXPECT_EQ(f.stats().packets_dropped, 1u);
}

TEST_F(FaultsFixture, DelaySpikeAddsConfiguredDelay) {
  FaultFabric& f = install();
  FaultSpec spec;
  spec.kind = FaultKind::kDelay;
  spec.start = 0;
  spec.end = net::kMinute;
  spec.delay = 50 * net::kMillisecond;
  spec.probability = 1.0;
  f.schedule(spec);

  int& got = sink(ep(1));
  sim.run_until(net::kSecond);
  net.send(ep(2), ep(1), Bytes{0}, net::Proto::kApp);
  // Base latency 1ms + 50ms spike: not there at +50ms, there at +51ms.
  sim.run_until(net::kSecond + 50 * net::kMillisecond);
  EXPECT_EQ(got, 0);
  sim.run_until(net::kSecond + 51 * net::kMillisecond);
  EXPECT_EQ(got, 1);
  EXPECT_EQ(f.stats().packets_delayed, 1u);
}

TEST_F(FaultsFixture, DuplicationDeliversTwoCopies) {
  FaultFabric& f = install();
  FaultSpec spec;
  spec.kind = FaultKind::kDuplicate;
  spec.start = 0;
  spec.end = net::kMinute;
  spec.probability = 1.0;
  f.schedule(spec);

  int& got = sink(ep(1));
  sim.run_until(net::kSecond);
  net.send(ep(2), ep(1), Bytes{9}, net::Proto::kApp);
  sim.run_until(2 * net::kSecond);
  EXPECT_EQ(got, 2);
  EXPECT_EQ(f.stats().packets_duplicated, 1u);
  EXPECT_EQ(net.packets_duplicated(), 1u);
}

TEST_F(FaultsFixture, CorruptionFlipsExactlyOneBit) {
  FaultFabric& f = install();
  FaultSpec spec;
  spec.kind = FaultKind::kCorrupt;
  spec.start = 0;
  spec.end = net::kMinute;
  spec.probability = 1.0;
  f.schedule(spec);

  const Bytes original(32, 0xA5);
  Bytes received;
  net.attach(ep(1), [&](const net::Datagram& d) { received = d.payload; });
  sim.run_until(net::kSecond);
  net.send(ep(2), ep(1), original, net::Proto::kApp);
  sim.run_until(2 * net::kSecond);

  ASSERT_EQ(received.size(), original.size());
  int flipped_bits = 0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    flipped_bits += std::popcount(
        static_cast<unsigned>(original[i] ^ received[i]));
  }
  EXPECT_EQ(flipped_bits, 1);
  EXPECT_EQ(f.stats().packets_corrupted, 1u);
}

TEST_F(FaultsFixture, PauseQueuesInboundAndFlushesInOrderOnResume) {
  FaultFabric& f = install();
  std::vector<Bytes> received;
  net.attach(ep(1), [&](const net::Datagram& d) { received.push_back(d.payload); });

  f.pause(ep(1));
  EXPECT_TRUE(f.paused(ep(1)));
  net.send(ep(2), ep(1), Bytes{1}, net::Proto::kApp);
  net.send(ep(2), ep(1), Bytes{2}, net::Proto::kApp);
  net.send(ep(2), ep(1), Bytes{3}, net::Proto::kApp);
  sim.run();
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(f.stats().packets_queued, 3u);
  // Queued packets are in flight, not dropped: the gray-failure contract.
  EXPECT_EQ(net.packets_in_flight(), 3u);
  EXPECT_EQ(net.packets_dropped(), 0u);

  f.resume(ep(1));
  EXPECT_FALSE(f.paused(ep(1)));
  ASSERT_EQ(received.size(), 3u);
  EXPECT_EQ(received[0], Bytes{1});
  EXPECT_EQ(received[1], Bytes{2});
  EXPECT_EQ(received[2], Bytes{3});
  EXPECT_EQ(f.stats().packets_flushed, 3u);
  EXPECT_EQ(net.packets_in_flight(), 0u);
}

TEST_F(FaultsFixture, ScheduledPauseWindowResumesAutomatically) {
  live = {ep(1), ep(2), ep(3)};
  FaultFabric& f = install();
  FaultSpec spec;
  spec.kind = FaultKind::kPause;
  spec.start = net::kSecond;
  spec.end = 2 * net::kSecond;
  spec.count = 1;
  spec.targets_a = {ep(1)};
  f.schedule(spec);

  int& got = sink(ep(1));
  sim.run_until(net::kSecond + net::kMillisecond);
  EXPECT_TRUE(f.paused(ep(1)));
  net.send(ep(2), ep(1), Bytes{7}, net::Proto::kApp);
  sim.run_until(2 * net::kSecond - net::kMillisecond);
  EXPECT_EQ(got, 0);
  sim.run_until(2 * net::kSecond + net::kMillisecond);
  EXPECT_FALSE(f.paused(ep(1)));
  EXPECT_EQ(got, 1);
  EXPECT_EQ(f.stats().nodes_paused, 1u);
}

TEST_F(FaultsFixture, CrashDrawsVictimsFromRelayPool) {
  live = {ep(1), ep(2), ep(3), ep(4), ep(5), ep(6)};
  relays = {ep(5), ep(6)};
  FaultFabric& f = install();
  FaultSpec spec;
  spec.kind = FaultKind::kCrash;
  spec.start = net::kSecond;
  spec.end = 0;  // one-shot
  spec.count = 1;
  f.schedule(spec);
  sim.run();
  ASSERT_EQ(crashed.size(), 1u);
  EXPECT_TRUE(crashed[0] == ep(5) || crashed[0] == ep(6));
  EXPECT_EQ(f.stats().nodes_crashed, 1u);
}

TEST_F(FaultsFixture, NatResetFiresCallbackPerVictim) {
  live = {ep(1), ep(2), ep(3), ep(4)};
  FaultFabric& f = install();
  FaultSpec spec;
  spec.kind = FaultKind::kNatReset;
  spec.start = net::kSecond;
  spec.end = 0;
  spec.count = 2;
  f.schedule(spec);
  sim.run();
  EXPECT_EQ(nat_resets.size(), 2u);
  EXPECT_NE(nat_resets[0], nat_resets[1]);
  EXPECT_EQ(f.stats().nat_resets, 2u);
}

// Which ordered pairs still deliver during a fraction=0.5 bisection of
// `n` live endpoints, as a sorted set — the determinism probe.
std::set<std::pair<std::uint32_t, std::uint32_t>> bisection_survivors(
    std::uint64_t seed, std::uint32_t n) {
  sim::Simulator sim;
  sim::Network net{sim, std::make_unique<sim::FixedLatency>(net::kMillisecond), 7};
  std::vector<Endpoint> live;
  for (std::uint32_t i = 1; i <= n; ++i) live.push_back(ep(i));
  FaultFabric::Environment env;
  env.live_endpoints = [&] { return live; };
  FaultFabric fabric(sim, net, std::move(env), Rng(seed));

  FaultSpec spec;
  spec.kind = FaultKind::kPartition;
  spec.start = net::kSecond;
  spec.end = net::kMinute;
  spec.fraction = 0.5;
  fabric.schedule(spec);

  std::set<std::pair<std::uint32_t, std::uint32_t>> survivors;
  for (std::uint32_t i = 1; i <= n; ++i) {
    net.attach(ep(i), [&survivors, i](const net::Datagram& d) {
      survivors.emplace(d.src.ip, i);
    });
  }
  sim.run_until(2 * net::kSecond);
  for (std::uint32_t i = 1; i <= n; ++i) {
    for (std::uint32_t j = 1; j <= n; ++j) {
      if (i != j) net.send(ep(i), ep(j), Bytes{0}, net::Proto::kApp);
    }
  }
  sim.run_until(3 * net::kSecond);
  return survivors;
}

TEST(FaultDeterminism, BisectionIdenticalAcrossSameSeedRuns) {
  const auto a = bisection_survivors(/*seed=*/21, /*n=*/10);
  const auto b = bisection_survivors(/*seed=*/21, /*n=*/10);
  EXPECT_EQ(a, b);
  // The cut is real and nontrivial: a 5/5 split blocks 2*5*5 = 50 of the 90
  // ordered pairs.
  EXPECT_EQ(a.size(), 40u);
}

TEST(FaultDeterminism, DifferentSeedsCutDifferently) {
  const auto a = bisection_survivors(/*seed=*/21, /*n=*/10);
  const auto c = bisection_survivors(/*seed=*/22, /*n=*/10);
  // Same sizes (the split is always fraction*n) but different membership
  // with overwhelming probability for 10-choose-5 splits.
  EXPECT_EQ(a.size(), c.size());
  EXPECT_NE(a, c);
}

// --- Script parser. ---

TEST(FaultScript, ParsesKindsTimesAndKeys) {
  const auto result = parse_script(
      "# comment line\n"
      "partition 5m +2m fraction=0.25\n"
      "\n"
      "loss 8m +1m probability=0.3 symmetric=0\n"
      "delay 10m +30s delay=200ms probability=1.0\n"
      "crash 12m - count=3\n"
      "natreset 90 0 count=5\n");
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_EQ(result.specs.size(), 5u);

  const FaultSpec& part = result.specs[0];
  EXPECT_EQ(part.kind, FaultKind::kPartition);
  EXPECT_EQ(part.start, 5 * net::kMinute);
  EXPECT_EQ(part.end, 7 * net::kMinute);
  EXPECT_DOUBLE_EQ(part.fraction, 0.25);

  const FaultSpec& loss = result.specs[1];
  EXPECT_EQ(loss.kind, FaultKind::kLoss);
  EXPECT_DOUBLE_EQ(loss.probability, 0.3);
  EXPECT_FALSE(loss.symmetric);

  const FaultSpec& delay = result.specs[2];
  EXPECT_EQ(delay.kind, FaultKind::kDelay);
  EXPECT_EQ(delay.delay, 200 * net::kMillisecond);
  EXPECT_EQ(delay.end, 10 * net::kMinute + 30 * net::kSecond);

  const FaultSpec& crash = result.specs[3];
  EXPECT_EQ(crash.kind, FaultKind::kCrash);
  EXPECT_EQ(crash.end, 0u);  // one-shot
  EXPECT_EQ(crash.count, 3u);

  const FaultSpec& natreset = result.specs[4];
  EXPECT_EQ(natreset.kind, FaultKind::kNatReset);
  EXPECT_EQ(natreset.start, 90 * net::kSecond);  // bare number = seconds
  EXPECT_EQ(natreset.count, 5u);
}

TEST(FaultScript, ParseDurationUnits) {
  net::Time t = 0;
  EXPECT_TRUE(parse_duration("150ms", t));
  EXPECT_EQ(t, 150 * net::kMillisecond);
  EXPECT_TRUE(parse_duration("2m", t));
  EXPECT_EQ(t, 2 * net::kMinute);
  EXPECT_TRUE(parse_duration("45us", t));
  EXPECT_EQ(t, 45u);
  EXPECT_TRUE(parse_duration("30", t));
  EXPECT_EQ(t, 30 * net::kSecond);
  EXPECT_TRUE(parse_duration("+45s", t));
  EXPECT_EQ(t, 45 * net::kSecond);
  EXPECT_FALSE(parse_duration("abc", t));
  EXPECT_FALSE(parse_duration("", t));
  EXPECT_FALSE(parse_duration("12kg", t));
}

TEST(FaultScript, ErrorsNameTheLine) {
  const auto bad_kind = parse_script("partition 1m +1m\nbogus 1m +1m\n");
  EXPECT_FALSE(bad_kind.ok());
  EXPECT_NE(bad_kind.error.find("line 2"), std::string::npos) << bad_kind.error;

  const auto bad_key = parse_script("loss 1m +1m probability=oops\n");
  EXPECT_FALSE(bad_key.ok());
  EXPECT_NE(bad_key.error.find("line 1"), std::string::npos) << bad_key.error;

  const auto missing = parse_script("loss 1m\n");
  EXPECT_FALSE(missing.ok());
}

}  // namespace
}  // namespace whisper::faults
