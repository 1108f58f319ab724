#include "telemetry/figures.hpp"

#include <gtest/gtest.h>

namespace whisper::telemetry {
namespace {

FlightEventRec begin_send(std::uint64_t trace, std::uint64_t src, std::uint64_t dst,
                          std::uint64_t ts) {
  FlightEventRec ev;
  ev.trace = trace;
  ev.kind = FlightKind::kBegin;
  ev.layer = TraceLayer::kWcl;
  ev.node = src;
  ev.peer = dst;
  ev.ts = ts;
  return ev;
}

FlightEventRec end(std::uint64_t trace, std::uint64_t node, std::uint64_t ts,
                   std::string outcome, std::uint16_t attempts) {
  FlightEventRec ev;
  ev.trace = trace;
  ev.kind = FlightKind::kEnd;
  ev.node = node;
  ev.ts = ts;
  ev.attempt = attempts;
  ev.detail = std::move(outcome);
  return ev;
}

FlightEventRec stop(std::uint64_t node, std::uint64_t ts) {
  FlightEventRec ev;
  ev.kind = FlightKind::kMark;
  ev.node = node;
  ev.ts = ts;
  ev.detail = std::string(kNodeStopMark);
  return ev;
}

TEST(RouteAvailability, SortsSendsByAttemptsAndOutcome) {
  FlightEventRec root;
  root.trace = 9;
  root.kind = FlightKind::kBegin;
  root.layer = TraceLayer::kPpss;
  root.node = 1;
  const std::vector<FlightEventRec> events = {
      root,
      begin_send(1, 1, 2, 10), end(1, 1, 20, "delivered", 1),
      begin_send(2, 1, 3, 10), end(2, 1, 30, "delivered", 2),
      begin_send(3, 2, 3, 10), end(3, 2, 40, "no_route", 4),
      begin_send(4, 3, 1, 10), end(4, 3, 10, "no_path", 0),
      end(9, 1, 50, "completed", 1),  // a PPSS root's outcome is no send
  };
  const RouteAvailability t = route_availability(events);
  EXPECT_EQ(t.first_try, 1u);
  EXPECT_EQ(t.alternative, 1u);
  EXPECT_EQ(t.no_alternative, 1u);
  EXPECT_EQ(t.no_path, 1u);
  EXPECT_EQ(t.dest_failures, 0u);
  EXPECT_EQ(t.routed(), 3u);
}

TEST(RouteAvailability, FailureAtAStoppedDestinationIsExcluded) {
  const std::vector<FlightEventRec> events = {
      begin_send(1, 1, 5, 10), begin_send(2, 1, 6, 10), begin_send(3, 1, 5, 10),
      begin_send(4, 2, 5, 10),
      stop(5, 15),
      end(1, 1, 20, "no_route", 4),   // destination 5 stopped first: excluded
      end(3, 1, 20, "no_path", 0),    // likewise, with no path built
      end(4, 2, 20, "delivered", 2),  // delivered before the news: counted
      end(2, 1, 20, "no_route", 4),   // destination 6 stops only later
      stop(6, 25),
  };
  const RouteAvailability t = route_availability(events);
  EXPECT_EQ(t.dest_failures, 2u);
  EXPECT_EQ(t.no_alternative, 1u);
  EXPECT_EQ(t.no_path, 0u);
  EXPECT_EQ(t.alternative, 1u);
  EXPECT_EQ(t.routed(), 2u);
}

TEST(RouteAvailability, SendFromAStoppedSourceIsSkipped) {
  const std::vector<FlightEventRec> events = {
      begin_send(1, 7, 2, 10), begin_send(2, 7, 2, 10), begin_send(3, 8, 2, 10),
      end(1, 7, 12, "delivered", 1),  // before its source stopped: counted
      stop(7, 15),
      end(2, 7, 20, "no_route", 3),   // the dead source's retry timer ran out
      end(3, 8, 20, "delivered", 1),
  };
  const RouteAvailability t = route_availability(events);
  EXPECT_EQ(t.first_try, 2u);
  EXPECT_EQ(t.no_alternative, 0u);
  EXPECT_EQ(t.routed(), 2u);
}

TEST(RouteAvailability, CountsOnlyEndsInsideTheWindow) {
  const std::vector<FlightEventRec> events = {
      begin_send(1, 1, 2, 1),  end(1, 1, 5, "delivered", 1),   // ends before
      begin_send(2, 1, 2, 5),  end(2, 1, 10, "delivered", 1),  // ends at from_us
      begin_send(3, 1, 2, 8),  end(3, 1, 15, "no_route", 4),   // begun before, ends inside
      begin_send(4, 1, 2, 12), end(4, 1, 20, "delivered", 3),  // ends at to_us
      begin_send(5, 1, 2, 18), end(5, 1, 21, "delivered", 1),  // ends after
  };
  const RouteAvailability t = route_availability(events, TimeWindow{10, 20});
  EXPECT_EQ(t.first_try, 1u);
  EXPECT_EQ(t.alternative, 1u);
  EXPECT_EQ(t.no_alternative, 1u);
  EXPECT_EQ(t.routed(), 3u);
}

FlightRecord exchange(std::uint64_t id, std::string outcome, std::uint64_t end_ts,
                      std::uint64_t rtt) {
  FlightRecord r;
  r.trace_id = id;
  r.layer = TraceLayer::kPpss;
  r.outcome = std::move(outcome);
  r.end_ts = end_ts;
  r.rtt_us = rtt;
  return r;
}

FlightRecord message(std::uint64_t id, std::uint64_t root, std::string outcome) {
  FlightRecord r;
  r.trace_id = id;
  r.root = root;
  r.layer = TraceLayer::kWcl;
  r.outcome = std::move(outcome);
  r.crypto_us = 700;
  r.prop_us = 1'000;
  r.queue_us = 200;
  r.retry_us = 50;
  r.proc_us = 10;
  r.rtt_us = r.decomposed_us();
  return r;
}

TEST(ExchangeDelays, CompletedRootWithTwoDeliveredChildren) {
  FlightRecord slow = message(3, 1, "delivered");
  slow.crypto_us = 0;
  slow.rtt_us = slow.decomposed_us();
  const std::vector<FlightRecord> records = {
      exchange(1, "completed", 9'000, 4'000), message(2, 1, "delivered"), slow,
      message(4, 1, "no_route"),  // not delivered: no split to read
  };
  const ExchangeDelays d = exchange_delays(records);
  EXPECT_EQ(d.rtt_us, std::vector<std::uint64_t>{4'000});
  EXPECT_EQ(d.messages, 2u);
  EXPECT_EQ(d.zero_crypto, 1u);
  EXPECT_EQ(d.crypto_us, 700u);
  EXPECT_EQ(d.network_us, 2'400u);
  EXPECT_EQ(d.retry_us, 100u);
  EXPECT_EQ(d.proc_us, 20u);
  EXPECT_EQ(d.rtt_sum_us, 700u + 2'400u + 100u + 20u);
  EXPECT_EQ(format_message_split(d),
            "crypto 0.350 + network 1.200 + retry 0.050 + proc 0.010 = rtt 1.610 ms per "
            "message (2 delivered)");
}

TEST(ExchangeDelays, TimedOutRootIsExcluded) {
  const std::vector<FlightRecord> records = {
      exchange(1, "timeout", 9'000, 0), message(2, 1, "delivered"),
      exchange(3, "joined", 9'000, 500), message(4, 3, "delivered"),
  };
  const ExchangeDelays d = exchange_delays(records);
  EXPECT_TRUE(d.rtt_us.empty());
  EXPECT_EQ(d.messages, 0u);
}

TEST(ExchangeDelays, ChildWhoseRootIsNotInTheInputIsNotCounted) {
  const std::vector<FlightRecord> records = {
      exchange(1, "completed", 9'000, 4'000), message(2, 1, "delivered"),
      message(3, 77, "delivered"),
  };
  const ExchangeDelays d = exchange_delays(records);
  EXPECT_EQ(d.rtt_us.size(), 1u);
  EXPECT_EQ(d.messages, 1u);
}

TEST(ExchangeDelays, WindowSelectsRootsByTheirEnd) {
  const std::vector<FlightRecord> records = {
      exchange(1, "completed", 9'000, 4'000), message(2, 1, "delivered"),
      exchange(3, "completed", 20'000, 6'000), message(4, 3, "delivered"),
  };
  const ExchangeDelays d = exchange_delays(records, TimeWindow{10'000, 20'000});
  EXPECT_EQ(d.rtt_us, std::vector<std::uint64_t>{6'000});
  EXPECT_EQ(d.messages, 1u);
}

}  // namespace
}  // namespace whisper::telemetry
