#include "telemetry/health.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "telemetry/registry.hpp"

namespace whisper::telemetry {
namespace {

HealthSnapshot sample_snapshot() {
  HealthSnapshot s;
  s.node = 7;
  s.pid = 4242;
  s.incarnation = 3;
  s.seq = 11;
  s.now_us = 5'000'000;
  s.uptime_us = 4'900'000;
  s.metrics = {{"a.count", 10.0}, {"b.depth{node=n7}", 2.5}};
  return s;
}

TEST(HealthRecord, RoundTrip) {
  const HealthSnapshot in = sample_snapshot();
  const Bytes rec = encode_health_record(in);
  DecodeError err = DecodeError::kNone;
  const auto out = decode_health_record(rec, &err);
  ASSERT_TRUE(out.has_value()) << static_cast<int>(err);
  EXPECT_EQ(out->node, in.node);
  EXPECT_EQ(out->pid, in.pid);
  EXPECT_EQ(out->incarnation, in.incarnation);
  EXPECT_EQ(out->seq, in.seq);
  EXPECT_EQ(out->now_us, in.now_us);
  EXPECT_EQ(out->uptime_us, in.uptime_us);
  EXPECT_EQ(out->metrics, in.metrics);
}

// A reader that missed every earlier record still gets the node's complete
// metrics from the one it reads: no record depends on its predecessor.
TEST(HealthRecord, EveryRecordCarriesTheFullRegistry) {
  Registry reg;
  reg.counter("c").add(5);
  reg.gauge("g").set(2.0);
  reg.histogram("h", BucketSpec::log_spaced(1, 1000)).observe(10);

  HealthSnapshot s;
  s.seq = 1;
  s.metrics = registry_values(reg);
  (void)encode_health_record(s);

  reg.counter("c").add(1);  // one metric changes between the two records
  s.seq = 2;
  s.metrics = registry_values(reg);
  const auto second = decode_health_record(encode_health_record(s));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->seq, 2u);
  EXPECT_EQ(second->metrics, registry_values(reg));
  EXPECT_EQ(second->metrics.size(), 9u);  // c, g, and h's seven stats
  EXPECT_DOUBLE_EQ(second->metric("c"), 6.0);
  EXPECT_DOUBLE_EQ(second->metric("h#count"), 1.0);
  EXPECT_DOUBLE_EQ(second->metric("absent"), 0.0);
}

// Satellite requirement: decoding must fail cleanly on EVERY truncation
// point, not just a sampled few. Walk all strict prefixes of a real record.
TEST(HealthRecord, AllPrefixesRejected) {
  const Bytes rec = encode_health_record(sample_snapshot());
  ASSERT_GT(rec.size(), 12u);
  for (std::size_t n = 0; n < rec.size(); ++n) {
    DecodeError err = DecodeError::kNone;
    const auto out =
        decode_health_record(BytesView(rec.data(), n), &err);
    EXPECT_FALSE(out.has_value()) << "prefix length " << n;
    EXPECT_NE(err, DecodeError::kNone) << "prefix length " << n;
  }
}

TEST(HealthRecord, TrailingGarbageRejected) {
  Bytes rec = encode_health_record(sample_snapshot());
  rec.push_back(0x00);
  DecodeError err = DecodeError::kNone;
  EXPECT_FALSE(decode_health_record(rec, &err).has_value());
  EXPECT_EQ(err, DecodeError::kTrailingBytes);
}

TEST(HealthRecord, CrcCorruptionRejected) {
  Bytes rec = encode_health_record(sample_snapshot());
  // Flip one payload byte (past the 11-byte header); CRC must catch it.
  rec[rec.size() - 1] ^= 0x01;
  DecodeError err = DecodeError::kNone;
  EXPECT_FALSE(decode_health_record(rec, &err).has_value());
  EXPECT_EQ(err, DecodeError::kBadValue);
}

TEST(HealthRecord, BadMagicAndVersionRejected) {
  const Bytes good = encode_health_record(sample_snapshot());
  for (std::size_t i : {std::size_t{0}, std::size_t{1}, std::size_t{2}}) {
    Bytes bad = good;
    bad[i] ^= 0xFF;
    EXPECT_FALSE(decode_health_record(bad).has_value()) << "byte " << i;
  }
  // Version 1 records could be deltas; version 2 records carry typed fields
  // between the header and the metrics. Neither reads as version 3.
  for (const std::uint8_t version : {1, 2}) {
    Bytes old = good;
    old[2] = version;
    EXPECT_FALSE(decode_health_record(old).has_value()) << "version " << int{version};
  }
}

TEST(HealthRecord, OversizedPayloadLengthRejected) {
  Bytes rec = encode_health_record(sample_snapshot());
  // Overwrite the u32 payload_len at offset 3 with a value beyond the cap.
  const std::uint32_t huge = kMaxHealthPayloadBytes + 1;
  std::memcpy(rec.data() + 3, &huge, sizeof(huge));
  DecodeError err = DecodeError::kNone;
  EXPECT_FALSE(decode_health_record(rec, &err).has_value());
  EXPECT_EQ(err, DecodeError::kOversized);
}

TEST(HealthRecord, OversizedMetricNameRejected) {
  HealthSnapshot in = sample_snapshot();
  in.metrics = {{std::string(kMaxHealthNameBytes + 1, 'x'), 1.0}};
  const Bytes rec = encode_health_record(in);
  DecodeError err = DecodeError::kNone;
  EXPECT_FALSE(decode_health_record(rec, &err).has_value());
  EXPECT_EQ(err, DecodeError::kOversized);
}

TEST(HealthRecord, EmptyInputRejected) {
  DecodeError err = DecodeError::kNone;
  EXPECT_FALSE(decode_health_record(BytesView{}, &err).has_value());
  EXPECT_EQ(err, DecodeError::kTruncated);
}

TEST(RegistryValues, FlattensHistogramsDeterministically) {
  Registry reg;
  reg.counter("z.count").add(3);
  reg.gauge("a.depth", {{"node", "n1"}}).set(4.0);
  auto& h = reg.histogram("lat", BucketSpec::log_spaced(1, 1000));
  h.observe(10);
  h.observe(100);

  const auto vals = registry_values(reg);
  std::vector<std::string> keys;
  for (const auto& [k, v] : vals) keys.push_back(k);
  // Sorted by canonical key; each histogram flattens to its derived stats
  // in fixed order (count, sum, min, max, p50, p95, p99).
  const std::vector<std::string> want = {
      "a.depth{node=n1}", "lat#count", "lat#sum",  "lat#min",  "lat#max",
      "lat#p50",          "lat#p95",   "lat#p99",  "z.count"};
  EXPECT_EQ(keys, want);
  for (const auto& [k, v] : vals) {
    if (k == "lat#count") {
      EXPECT_DOUBLE_EQ(v, 2.0);
    } else if (k == "lat#sum") {
      EXPECT_DOUBLE_EQ(v, 110.0);
    } else if (k == "z.count") {
      EXPECT_DOUBLE_EQ(v, 3.0);
    }
  }
}

TEST(HealthToJson, DeterministicOrdering) {
  HealthSnapshot s = sample_snapshot();
  s.metrics = {{"b", 2.0}, {"a", 1.0}};
  const std::string j1 = health_to_json(s, "7");
  const std::string j2 = health_to_json(s, "7");
  EXPECT_EQ(j1, j2);
  // Map iteration order: "a" before "b".
  EXPECT_LT(j1.find("\"a\""), j1.find("\"b\""));
  EXPECT_NE(j1.find("\"node\":\"7\""), std::string::npos);
}

// A record decoded from a stats file or an admin reply can carry any f64.
// Each must print as valid JSON: NaN and infinities as null, huge finite
// values in exponent form.
TEST(HealthToJson, NonFiniteAndHugeValuesStayValidJson) {
  HealthSnapshot s = sample_snapshot();
  s.metrics = {{"big", 1e300},
               {"nan", std::numeric_limits<double>::quiet_NaN()},
               {"neg_inf", -std::numeric_limits<double>::infinity()},
               {"pos_inf", std::numeric_limits<double>::infinity()}};
  const auto decoded = decode_health_record(encode_health_record(s));
  ASSERT_TRUE(decoded.has_value());
  const std::string j = health_to_json(*decoded, "7");
  EXPECT_NE(j.find("\"big\":1.0000000000000001e+300,"), std::string::npos) << j;
  EXPECT_NE(j.find("\"nan\":null,"), std::string::npos) << j;
  EXPECT_NE(j.find("\"neg_inf\":null,"), std::string::npos) << j;
  EXPECT_NE(j.find("\"pos_inf\":null}"), std::string::npos) << j;
  for (const char* bare : {":nan", ":-nan", ":inf", ":-inf"}) {
    EXPECT_EQ(j.find(bare), std::string::npos) << bare << " in " << j;
  }
}

TEST(HealthToJson, FleetTotalSumsCountersAndMaxesClocks) {
  HealthSnapshot a = sample_snapshot();
  HealthSnapshot b = sample_snapshot();
  b.now_us = a.now_us + 1;
  b.metrics = {{"a.count", 5.0}, {"c.only_b", 1.0}};
  const HealthSnapshot sum = fleet_total({a, b});
  EXPECT_EQ(sum.now_us, b.now_us);
  EXPECT_EQ(sum.uptime_us, a.uptime_us);
  EXPECT_EQ(sum.seq, 0u);
  const std::vector<std::pair<std::string, double>> want = {
      {"a.count", 15.0}, {"b.depth{node=n7}", 2.5}, {"c.only_b", 1.0}};
  EXPECT_EQ(sum.metrics, want);
}

TEST(AdminRequest, RoundTrip) {
  const Bytes req = encode_admin_request(AdminOp::kStats);
  ASSERT_EQ(req.size(), 4u);
  const auto op = decode_admin_request(req);
  ASSERT_TRUE(op.has_value());
  EXPECT_EQ(*op, AdminOp::kStats);
}

TEST(AdminRequest, MalformedRejected) {
  const Bytes good = encode_admin_request(AdminOp::kStats);
  for (std::size_t n = 0; n < good.size(); ++n) {
    DecodeError err = DecodeError::kNone;
    EXPECT_FALSE(
        decode_admin_request(BytesView(good.data(), n), &err).has_value())
        << "prefix " << n;
    EXPECT_EQ(err, DecodeError::kTruncated) << "prefix " << n;
  }
  Bytes long_req = good;
  long_req.push_back(0);
  DecodeError err = DecodeError::kNone;
  EXPECT_FALSE(decode_admin_request(long_req, &err).has_value());
  EXPECT_EQ(err, DecodeError::kTrailingBytes);
  for (std::size_t i = 0; i < good.size(); ++i) {
    Bytes bad = good;
    bad[i] ^= 0xFF;
    EXPECT_FALSE(decode_admin_request(bad).has_value()) << "byte " << i;
  }
}

// Satellite: histogram percentile edge cases surfaced by the exporter.
TEST(HistogramEdge, EmptyHistogramExportsZeros) {
  Registry reg;
  reg.histogram("h", BucketSpec::log_spaced(1, 100));
  const auto vals = registry_values(reg);
  for (const auto& [k, v] : vals) {
    EXPECT_DOUBLE_EQ(v, 0.0) << k;
  }
}

TEST(HistogramEdge, SingleSamplePercentilesCollapse) {
  Histogram h(BucketSpec::log_spaced(1, 1000));
  h.observe(42.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 42.0);
  EXPECT_DOUBLE_EQ(h.max(), 42.0);
  // Every percentile of a single sample is that sample (clamped to
  // [min, max]).
  EXPECT_DOUBLE_EQ(h.percentile(0), 42.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 42.0);
  EXPECT_DOUBLE_EQ(h.percentile(95), 42.0);
  EXPECT_DOUBLE_EQ(h.percentile(99), 42.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 42.0);
}

TEST(HistogramEdge, AllSamplesInOneBucket) {
  Histogram h(BucketSpec::linear(0, 100, 10));
  for (int i = 0; i < 1000; ++i) h.observe(55.0);
  EXPECT_DOUBLE_EQ(h.min(), 55.0);
  EXPECT_DOUBLE_EQ(h.max(), 55.0);
  // All mass in one bucket: interpolation is clamped to [min, max], so
  // every percentile must return exactly the common value.
  EXPECT_DOUBLE_EQ(h.percentile(50), 55.0);
  EXPECT_DOUBLE_EQ(h.percentile(95), 55.0);
  EXPECT_DOUBLE_EQ(h.percentile(99), 55.0);
}

}  // namespace
}  // namespace whisper::telemetry
