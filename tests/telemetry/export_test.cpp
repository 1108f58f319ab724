#include "telemetry/export.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace whisper::telemetry {
namespace {

TEST(JsonEscape, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(ExportJsonl, OneLinePerMetricWithLabels) {
  Registry reg;
  reg.counter("net.bytes", {{"dir", "up"}}).add(123);
  reg.gauge("depth").set(2.5);
  const std::string out = to_jsonl(reg);
  std::istringstream in(out);
  std::string line1, line2;
  ASSERT_TRUE(std::getline(in, line1));
  ASSERT_TRUE(std::getline(in, line2));
  EXPECT_EQ(line1, R"({"name":"depth","labels":{},"type":"gauge","value":2.5})");
  EXPECT_EQ(line2,
            R"({"name":"net.bytes","labels":{"dir":"up"},"type":"counter","value":123})");
}

TEST(ExportJsonl, HistogramLineCarriesDistribution) {
  Registry reg;
  Histogram& h = reg.histogram("rtt", BucketSpec::linear(0, 2, 2));
  h.observe(1);
  h.observe(2);
  const std::string out = to_jsonl(reg);
  EXPECT_NE(out.find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(out.find("\"count\":2"), std::string::npos);
  EXPECT_NE(out.find("\"sum\":3"), std::string::npos);
  EXPECT_NE(out.find("\"p50\":"), std::string::npos);
  EXPECT_NE(out.find("\"p95\":"), std::string::npos);
  EXPECT_NE(out.find("\"p99\":"), std::string::npos);
  EXPECT_NE(out.find("\"bounds\":[0,1,2]"), std::string::npos);
  EXPECT_NE(out.find("\"buckets\":[0,1,1,0]"), std::string::npos);
}

std::size_t count_of(const std::string& text, std::string_view what) {
  std::size_t n = 0;
  for (auto pos = text.find(what); pos != std::string::npos; pos = text.find(what, pos + 1)) {
    ++n;
  }
  return n;
}

FlightEventRec event(FlightKind kind, std::uint64_t node, std::uint64_t ts,
                     std::uint64_t dur = 0, std::string detail = {}) {
  FlightEventRec e;
  e.kind = kind;
  e.node = node;
  e.ts = ts;
  e.dur = dur;
  e.detail = std::move(detail);
  return e;
}

TEST(ExportChromeTrace, WellFormedEventObjects) {
  const std::vector<FlightEventRec> log = {
      event(FlightKind::kMark, 3, 100, 250, "pss.exchange hops=2"),
      event(FlightKind::kMark, 4, 500, 0, "pss.exchange.timeout"),
  };
  const std::string out = to_chrome_trace(log);
  EXPECT_NE(out.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(out.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(
      out.find(R"({"name":"pss.exchange","cat":"pss","ph":"X","ts":100,"dur":250,)"
               R"("pid":1,"tid":3,"args":{"hops":"2"}})"),
      std::string::npos);
  // Instants carry thread scope, no dur.
  EXPECT_NE(out.find(R"({"name":"pss.exchange.timeout","cat":"pss","ph":"i","ts":500,)"
                     R"("s":"t","pid":1,"tid":4})"),
            std::string::npos);
  // Valid JSON shape: closes the array and the object.
  EXPECT_EQ(out.substr(out.size() - 3), "]}\n");
}

TEST(ExportChromeTrace, FlowEventsCarryIdAndBindingPoint) {
  FlightEventRec out_ev = event(FlightKind::kWireOut, 3, 100);
  out_ev.trace = 7;
  out_ev.attempt = 1;
  out_ev.seq = 4;
  FlightEventRec in_ev = out_ev;
  in_ev.kind = FlightKind::kWireIn;
  in_ev.node = 5;
  in_ev.ts = 400;
  const std::string out = to_chrome_trace({out_ev, in_ev});
  // Perfetto links the 's' and 'f' events through the shared flow id; the
  // terminator binds to the enclosing slice ("bp":"e").
  EXPECT_NE(out.find(R"({"name":"net.hop","cat":"net","ph":"s","ts":100,)"
                     R"("id":1,"pid":1,"tid":3,"args":{"trace":"7"}})"),
            std::string::npos);
  EXPECT_NE(out.find(R"({"name":"net.hop","cat":"net","ph":"f","ts":400,)"
                     R"("id":1,"bp":"e","pid":1,"tid":5,"args":{"trace":"7"}})"),
            std::string::npos);
}

TEST(ExportChromeTrace, LostCopyDrawsNoFlow) {
  // Two copies of one hop leave; only the second arrives.
  FlightEventRec lost = event(FlightKind::kWireOut, 3, 100);
  lost.trace = 7;
  lost.seq = 1;
  FlightEventRec sent = lost;
  sent.seq = 2;
  FlightEventRec arrived = sent;
  arrived.kind = FlightKind::kWireIn;
  arrived.node = 5;
  arrived.ts = 400;
  const std::string out = to_chrome_trace({lost, sent, arrived});
  EXPECT_EQ(count_of(out, R"("ph":"s")"), 1u);
  EXPECT_EQ(count_of(out, R"("ph":"f")"), 1u);
  EXPECT_NE(out.find(R"("ph":"s","ts":100,"id":1)"), std::string::npos);
  EXPECT_NE(out.find(R"("ph":"f","ts":400,"id":1)"), std::string::npos);
  EXPECT_EQ(to_chrome_trace({lost}),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}\n");
}

TEST(ExportChromeTrace, CryptoAndRootOutcomesRenderAsSlices) {
  FlightEventRec ppss = event(FlightKind::kBegin, 1, 0);
  ppss.trace = 1;
  ppss.layer = TraceLayer::kPpss;
  FlightEventRec wcl = event(FlightKind::kBegin, 1, 0);
  wcl.trace = 2;
  wcl.layer = TraceLayer::kWcl;
  FlightEventRec peel = event(FlightKind::kCrypto, 2, 300, 160, "peel");
  peel.trace = 2;
  FlightEventRec retry = event(FlightKind::kRetry, 1, 0);
  retry.trace = 2;
  FlightEventRec no_path = event(FlightKind::kEnd, 1, 900, 0, "no_path");
  no_path.trace = 2;
  FlightEventRec done = event(FlightKind::kEnd, 1, 1000, 700, "completed");
  done.trace = 1;
  const std::string out = to_chrome_trace({ppss, wcl, peel, retry, no_path, done});
  EXPECT_NE(out.find(R"({"name":"wcl.onion.peel","cat":"wcl","ph":"X","ts":300,"dur":160,)"
                     R"("pid":1,"tid":2,"args":{"trace":"2"}})"),
            std::string::npos);
  EXPECT_NE(out.find(R"({"name":"wcl.send.no_path","cat":"wcl","ph":"i","ts":900,)"),
            std::string::npos);
  // A root's slice spans its RTT, ending at the outcome.
  EXPECT_NE(out.find(R"({"name":"ppss.exchange","cat":"ppss","ph":"X","ts":300,"dur":700,)"
                     R"("pid":1,"tid":1,"args":{"trace":"1"}})"),
            std::string::npos);
  // Begin and retry events stay in the flight records only.
  EXPECT_EQ(count_of(out, R"("ph":)"), 3u);
}

TEST(ExportChromeTrace, EmptyLogYieldsValidDocument) {
  EXPECT_EQ(to_chrome_trace({}), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}\n");
}

// Determinism: two identically-fed registries export byte-identical
// documents (ordered iteration, fixed number formats). The full-stack
// same-seed variant lives in tests/integration/telemetry_determinism_test.
TEST(Export, ByteIdenticalAcrossIdenticalFeeds) {
  auto feed = [] {
    auto reg = std::make_unique<Registry>();
    reg->counter("b.total", {{"node", "n3"}}).add(11);
    reg->counter("a.total").add(7);
    reg->histogram("h", BucketSpec::log_spaced(100, 1'000'000)).observe(1234);
    reg->gauge("g").set(0.125);
    return reg;
  };
  auto r1 = feed();
  auto r2 = feed();
  EXPECT_EQ(to_jsonl(*r1), to_jsonl(*r2));
}

TEST(Export, WriteTextFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "whisper_export_test.json";
  ASSERT_TRUE(write_text_file(path, "{\"ok\":1}\n"));
  EXPECT_FALSE(write_text_file("/nonexistent-dir/x/y.json", "x"));
}

}  // namespace
}  // namespace whisper::telemetry
