#include "sim/latency.hpp"

#include <gtest/gtest.h>

namespace whisper::sim {
namespace {

TEST(ClusterLatency, WithinLanRange) {
  ClusterLatency model;
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    auto d = model.sample(Endpoint{1, 1}, Endpoint{2, 1}, rng);
    ASSERT_TRUE(d.has_value());
    EXPECT_GE(*d, 100u);
    EXPECT_LT(*d, 500u);
  }
}

TEST(PlanetLabLatency, WanScaleDelays) {
  PlanetLabLatency model(0.0);
  Rng rng(2);
  double total = 0;
  int n = 0;
  for (std::uint32_t pair = 0; pair < 200; ++pair) {
    auto d = model.sample(Endpoint{pair, 1}, Endpoint{pair + 1000, 1}, rng);
    ASSERT_TRUE(d.has_value());
    EXPECT_GE(*d, 5 * net::kMillisecond);
    total += static_cast<double>(*d);
    ++n;
  }
  // Mean one-way delay in the tens-of-ms regime.
  const double mean_ms = total / n / net::kMillisecond;
  EXPECT_GT(mean_ms, 20.0);
  EXPECT_LT(mean_ms, 200.0);
}

TEST(PlanetLabLatency, LossRateApproximatelyConfigured) {
  PlanetLabLatency model(0.1);
  Rng rng(3);
  int lost = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (!model.sample(Endpoint{1, 1}, Endpoint{2, 1}, rng)) ++lost;
  }
  EXPECT_NEAR(static_cast<double>(lost) / n, 0.1, 0.02);
}

TEST(PlanetLabLatency, PerPairBaseConsistent) {
  PlanetLabLatency model(0.0);
  Rng rng(4);
  // The same pair should see correlated delays (same base); different pairs
  // should differ. Compare medians over many samples.
  auto median_delay = [&](std::uint32_t a, std::uint32_t b) {
    std::vector<net::Time> v;
    for (int i = 0; i < 101; ++i) v.push_back(*model.sample(Endpoint{a, 1}, Endpoint{b, 1}, rng));
    std::sort(v.begin(), v.end());
    return v[50];
  };
  const net::Time same1 = median_delay(10, 20);
  const net::Time same2 = median_delay(10, 20);
  // Medians of the same pair are close (within 50%).
  EXPECT_LT(std::max(same1, same2), 2 * std::min(same1, same2));
}

TEST(PlanetLabLatency, SymmetricPairs) {
  PlanetLabLatency model(0.0);
  Rng rng1(5), rng2(5);
  // With identical rng streams, a->b and b->a produce identical delays
  // (the base is symmetric and jitter draws match).
  auto d1 = model.sample(Endpoint{7, 1}, Endpoint{9, 1}, rng1);
  auto d2 = model.sample(Endpoint{9, 1}, Endpoint{7, 1}, rng2);
  EXPECT_EQ(*d1, *d2);
}

TEST(PlanetLabLatency, LossDecisionsDeterministicAcrossSameSeedRuns) {
  // Chaos experiments assert byte-identical same-seed runs; the latency
  // model's per-packet loss draws are part of that contract. Two identical
  // rng streams must produce the identical sequence of (delivered?, delay)
  // outcomes — including which packets are lost.
  PlanetLabLatency model_a(0.10), model_b(0.10);
  Rng rng_a(99), rng_b(99);
  std::size_t losses = 0;
  for (int i = 0; i < 2000; ++i) {
    const Endpoint from{static_cast<std::uint32_t>(i % 17), 1};
    const Endpoint to{static_cast<std::uint32_t>(i % 13 + 100), 1};
    const auto a = model_a.sample(from, to, rng_a);
    const auto b = model_b.sample(from, to, rng_b);
    ASSERT_EQ(a.has_value(), b.has_value()) << "packet " << i;
    if (a.has_value()) {
      ASSERT_EQ(*a, *b) << "packet " << i;
    } else {
      ++losses;
    }
  }
  // Loss actually happened at roughly the configured 10% rate, so the
  // identity check above exercised both branches.
  EXPECT_GT(losses, 100u);
  EXPECT_LT(losses, 400u);
}

TEST(FixedLatency, ExactDelay) {
  FixedLatency model(1234);
  Rng rng(6);
  EXPECT_EQ(*model.sample(Endpoint{1, 1}, Endpoint{2, 1}, rng), 1234u);
}

TEST(MakeLatencyModel, KnownNames) {
  EXPECT_NE(make_latency_model("fixed"), nullptr);
  EXPECT_NE(make_latency_model("cluster"), nullptr);
  EXPECT_NE(make_latency_model("planetlab"), nullptr);
  EXPECT_THROW(make_latency_model("nope"), std::invalid_argument);
}

}  // namespace
}  // namespace whisper::sim
