#include "telemetry/scope.hpp"

#include <gtest/gtest.h>

namespace whisper::telemetry {
namespace {

TEST(Scope, DisabledScopeHandsOutNoopSinks) {
  Scope scope;  // default: no registry, no flight recorder
  EXPECT_FALSE(scope.enabled());
  EXPECT_FALSE(scope.flight_enabled());
  EXPECT_EQ(&scope.counter("a"), &noop_counter());
  EXPECT_EQ(&scope.gauge("b"), &noop_gauge());
  scope.mark("x", 0, 1);  // must not crash
  scope.mark("y", 0);
}

TEST(Scope, RoutesToSinksWithNodeTimeline) {
  Registry reg;
  FlightRecorder flight;
  flight.set_clock([] { return std::uint64_t{50}; });
  flight.set_enabled(true);
  Scope scope(Sinks{&reg, &flight}, 17);
  EXPECT_EQ(scope.node_label(), "n17");
  scope.counter("hits").add(2);
  EXPECT_EQ(reg.counter_value("hits"), 2u);
  scope.mark("op", 10, 5);
  ASSERT_EQ(flight.events().size(), 1u);
  EXPECT_EQ(flight.events()[0].kind, FlightKind::kMark);
  EXPECT_EQ(flight.events()[0].node, 17u);
}

}  // namespace
}  // namespace whisper::telemetry
