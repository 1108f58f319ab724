#include "churn/churn.hpp"

#include <gtest/gtest.h>

#include "sim/simulator.hpp"

namespace whisper::churn {
namespace {

struct ChurnFixture : ::testing::Test {
  sim::Simulator sim;
  std::size_t population = 1000;
  std::size_t killed = 0;
  std::size_t spawned = 0;

  ChurnEngine make_engine() {
    return ChurnEngine(
        sim,
        [this](std::size_t n) {
          const std::size_t k = std::min(n, population);
          population -= k;
          killed += k;
          return k;
        },
        [this](std::size_t n) {
          population += n;
          spawned += n;
        },
        [this] { return population; });
  }
};

TEST_F(ChurnFixture, ConstantChurnKillsExpectedFraction) {
  ChurnEngine engine = make_engine();
  ChurnPhase phase;
  phase.start = 0;
  phase.end = 15 * net::kMinute;
  phase.interval = net::kMinute;
  phase.leave_fraction = 0.01;  // 1% per minute
  engine.schedule(phase);
  sim.run();
  // 15 ticks of ~10 nodes each.
  EXPECT_NEAR(static_cast<double>(killed), 150.0, 5.0);
  EXPECT_EQ(killed, spawned);            // 100% replacement
  EXPECT_EQ(population, 1000u);          // net size stable
}

TEST_F(ChurnFixture, ReplacementRatioZeroShrinksNetwork) {
  ChurnEngine engine = make_engine();
  ChurnPhase phase;
  phase.start = 0;
  phase.end = 10 * net::kMinute;
  phase.interval = net::kMinute;
  phase.leave_fraction = 0.1;
  phase.replacement_ratio = 0.0;
  engine.schedule(phase);
  sim.run();
  EXPECT_EQ(spawned, 0u);
  EXPECT_LT(population, 1000u);
}

TEST_F(ChurnFixture, PhaseWindowRespected) {
  ChurnEngine engine = make_engine();
  ChurnPhase phase;
  phase.start = 5 * net::kMinute;
  phase.end = 8 * net::kMinute;
  phase.interval = net::kMinute;
  phase.leave_fraction = 0.01;
  engine.schedule(phase);
  sim.run_until(4 * net::kMinute);
  EXPECT_EQ(killed, 0u);
  sim.run();
  // Ticks at 5, 6, 7 minutes only.
  EXPECT_NEAR(static_cast<double>(killed), 30.0, 2.0);
}

TEST_F(ChurnFixture, FractionalRatesAccumulate) {
  population = 100;
  ChurnEngine engine = make_engine();
  ChurnPhase phase;
  phase.start = 0;
  phase.end = 100 * net::kMinute;
  phase.interval = net::kMinute;
  phase.leave_fraction = 0.002;  // 0.2 nodes/tick: relies on carry
  engine.schedule(phase);
  sim.run();
  // 100 ticks * 0.2 = ~20 leavers despite each tick rounding to 0.
  EXPECT_NEAR(static_cast<double>(killed), 20.0, 3.0);
}

TEST_F(ChurnFixture, MassJoinSpreadsOverWindow) {
  ChurnEngine engine = make_engine();
  engine.schedule_join(0, 30 * net::kSecond, 100);
  sim.run_until(15 * net::kSecond);
  EXPECT_GT(spawned, 30u);
  EXPECT_LT(spawned, 70u);
  sim.run();
  EXPECT_EQ(spawned, 100u);
}

TEST_F(ChurnFixture, ZeroRatePhaseIgnored) {
  ChurnEngine engine = make_engine();
  ChurnPhase phase;
  phase.start = 0;
  phase.end = 10 * net::kMinute;
  phase.leave_fraction = 0.0;
  engine.schedule(phase);
  sim.run();
  EXPECT_EQ(killed, 0u);
}

TEST_F(ChurnFixture, FractionalCarryNeverLosesLeavers) {
  // Property: over any phase, the carry mechanism makes total kills land
  // within one node of exact_rate * ticks — fractions accumulate, they are
  // neither dropped (rounding down every tick) nor double-counted.
  const double fractions[] = {0.0004, 0.0017, 0.003, 0.0049, 0.0101};
  for (const double f : fractions) {
    killed = spawned = 0;
    population = 1000;
    ChurnEngine engine(
        sim, [this](std::size_t n) { killed += n; return n; },
        [this](std::size_t n) { spawned += n; }, [this] { return population; });
    ChurnPhase phase;
    phase.start = sim.now();
    phase.end = phase.start + 200 * net::kMinute;
    phase.interval = net::kMinute;
    phase.leave_fraction = f;
    // Population held constant by the lambdas above, so the expected total
    // is exactly fraction * 1000 * 200 ticks.
    engine.schedule(phase);
    sim.run();
    const double expected = f * 1000.0 * 200.0;
    EXPECT_NEAR(static_cast<double>(engine.total_killed()), expected, 1.0)
        << "fraction=" << f;
  }
}

TEST_F(ChurnFixture, ReplacementRatioScalesJoiners) {
  // Property: spawned ~= killed * ratio for sub- and super-unity ratios.
  const double ratios[] = {0.0, 0.5, 1.0, 1.5};
  for (const double r : ratios) {
    killed = spawned = 0;
    population = 1000;
    ChurnEngine engine = make_engine();
    ChurnPhase phase;
    phase.start = sim.now();
    phase.end = phase.start + 50 * net::kMinute;
    phase.interval = net::kMinute;
    phase.leave_fraction = 0.01;
    phase.replacement_ratio = r;
    engine.schedule(phase);
    sim.run_until(phase.end);
    ASSERT_GT(engine.total_killed(), 100u);
    // Per-tick llround wobbles by at most half a node per tick.
    EXPECT_NEAR(static_cast<double>(engine.total_spawned()),
                static_cast<double>(engine.total_killed()) * r,
                0.5 * 50 + 1)
        << "ratio=" << r;
  }
}

TEST_F(ChurnFixture, TotalsTracked) {
  ChurnEngine engine = make_engine();
  ChurnPhase phase;
  phase.start = 0;
  phase.end = 5 * net::kMinute;
  phase.interval = net::kMinute;
  phase.leave_fraction = 0.01;
  engine.schedule(phase);
  sim.run();
  EXPECT_EQ(engine.total_killed(), killed);
  EXPECT_EQ(engine.total_spawned(), spawned);
}

}  // namespace
}  // namespace whisper::churn
