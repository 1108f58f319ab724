#include "telemetry/registry.hpp"

#include <gtest/gtest.h>

namespace whisper::telemetry {
namespace {

TEST(MetricKey, UnlabeledIsBareName) {
  EXPECT_EQ(metric_key("net.bytes", {}), "net.bytes");
}

TEST(MetricKey, LabelsAreSortedByKey) {
  // Caller label order is irrelevant: both spellings address one metric.
  EXPECT_EQ(metric_key("net.bytes", {{"proto", "pss"}, {"dir", "up"}}),
            "net.bytes{dir=up,proto=pss}");
  EXPECT_EQ(metric_key("net.bytes", {{"dir", "up"}, {"proto", "pss"}}),
            "net.bytes{dir=up,proto=pss}");
}

TEST(Registry, GetOrCreateReturnsStableInstance) {
  Registry reg;
  Counter& a = reg.counter("x.total");
  a.add(3);
  Counter& b = reg.counter("x.total");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.counter_value("x.total"), 3u);
}

TEST(Registry, LabelSetsAreDistinctInstances) {
  Registry reg;
  reg.counter("bytes", {{"dir", "up"}}).add(10);
  reg.counter("bytes", {{"dir", "down"}}).add(4);
  EXPECT_EQ(reg.counter_value("bytes", {{"dir", "up"}}), 10u);
  EXPECT_EQ(reg.counter_value("bytes", {{"dir", "down"}}), 4u);
  EXPECT_EQ(reg.counter_value("bytes"), 0u);  // unlabeled never created
  EXPECT_EQ(reg.size(), 2u);
}

TEST(Registry, CounterSumAggregatesAcrossLabelSetsOnly) {
  Registry reg;
  reg.counter("net.bytes", {{"proto", "pss"}}).add(7);
  reg.counter("net.bytes", {{"proto", "wcl"}}).add(5);
  reg.counter("net.bytes");  // unlabeled instance of the same name
  reg.counter("net.bytes").add(1);
  // Lexicographic neighbours with a different *name* must not be included.
  reg.counter("net.bytes.total").add(100);
  reg.counter("net.byte").add(100);
  EXPECT_EQ(reg.counter_sum("net.bytes"), 13u);
}

TEST(Registry, KindMismatchYieldsNoopNotUb) {
  Registry reg;
  reg.counter("depth").add(2);
  // Same key requested as a gauge: a naming bug. The caller gets a working
  // (no-op) gauge, the real counter is untouched, and the mishap is counted.
  Gauge& g = reg.gauge("depth");
  g.set(99);
  EXPECT_EQ(reg.counter_value("depth"), 2u);
  EXPECT_EQ(reg.mismatches(), 1u);
  EXPECT_EQ(&g, &noop_gauge());
}

TEST(Registry, HistogramRoundTrip) {
  Registry reg;
  Histogram& h = reg.histogram("rtt", BucketSpec::log_spaced(100, 1'000'000));
  h.observe(500);
  h.observe(1500);
  const Histogram* found = reg.find_histogram("rtt");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->count(), 2u);
  EXPECT_EQ(reg.find_histogram("missing"), nullptr);
}

TEST(Registry, EntriesIterateInCanonicalOrder) {
  Registry reg;
  // Created out of order; iteration must be sorted on the canonical key.
  reg.counter("zeta");
  reg.counter("alpha", {{"n", "2"}});
  reg.counter("alpha", {{"n", "1"}});
  std::vector<std::string> keys;
  for (const auto& [key, entry] : reg.entries()) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"alpha{n=1}", "alpha{n=2}", "zeta"}));
}

TEST(Registry, LabelsThatWouldForgeAKeyAreRejected) {
  Registry reg;
  Counter& real = reg.counter("x", {{"a", "1"}, {"b", "2"}});
  real.add(5);
  // Unescaped, this label set spells the same key "x{a=1,b=2}". It is a
  // naming bug: the caller gets the no-op sink, never the other counter.
  Counter& forged = reg.counter("x", {{"a", "1,b=2"}});
  EXPECT_NE(&forged, &real);
  EXPECT_EQ(&forged, &noop_counter());
  EXPECT_EQ(reg.mismatches(), 1u);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.counter_value("x", {{"a", "1,b=2"}}), 0u);
  EXPECT_EQ(reg.counter_value("x", {{"a", "1"}, {"b", "2"}}), 5u);

  // Every separator is refused in a label key and in a label value, and a
  // brace in a name (which would read as the start of the labels).
  for (const std::string bad : {"{", ",", "=", "}"}) {
    EXPECT_EQ(&reg.gauge("g", {{"k" + bad, "v"}}), &noop_gauge());
    EXPECT_EQ(&reg.gauge("g", {{"k", bad + "v"}}), &noop_gauge());
  }
  EXPECT_EQ(&reg.counter("x{a=1}"), &noop_counter());
  EXPECT_EQ(&reg.histogram("h}", BucketSpec::linear(0, 1, 1)), &noop_histogram());
  EXPECT_EQ(reg.mismatches(), 11u);
  EXPECT_EQ(reg.size(), 1u);
  // Characters outside the separators are fine.
  reg.counter("net.node.bytes", {{"node", "10.0.0.1:7000"}, {"dir", "up"}}).add(1);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.mismatches(), 11u);
}

TEST(Registry, EntryNameAndLabelsViewTheKey) {
  Registry reg;
  reg.counter("bytes", {{"proto", "pss"}, {"dir", "up"}, {"empty", ""}});
  reg.gauge("depth");
  std::vector<std::string> seen;
  for (const auto& [key, entry] : reg.entries()) {
    std::string line{entry.name};
    for (const auto& [k, v] : entry.labels) line += " " + std::string(k) + "=" + std::string(v);
    seen.push_back(line);
    EXPECT_EQ(entry.name.data(), key.data());  // one copy: the map's key
    EXPECT_EQ(entry.labels.begin() == entry.labels.end(), key.find('{') == std::string::npos);
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"bytes dir=up empty= proto=pss", "depth"}));
}

TEST(Registry, MergeAddsUnderTheSameKeys) {
  Registry a;
  Registry b;
  a.counter("c", {{"n", "1"}}).add(2);
  b.counter("c", {{"n", "1"}}).add(3);
  b.counter("c", {{"n", "2"}}).add(7);
  a.gauge("g").set(1.5);
  b.gauge("g").set(2);
  const BucketSpec spec = BucketSpec::linear(0, 10, 10);
  a.histogram("h", spec).observe(1);
  b.histogram("h", spec).observe(9);
  b.histogram("h2", BucketSpec::linear(0, 5, 5)).observe(3);
  a.histogram("h2", spec);  // different bounds: skipped and counted
  merge_registry_into(a, b);
  EXPECT_EQ(a.counter_value("c", {{"n", "1"}}), 5u);
  EXPECT_EQ(a.counter_value("c", {{"n", "2"}}), 7u);
  EXPECT_EQ(a.gauge_value("g"), 3.5);
  EXPECT_EQ(a.find_histogram("h")->count(), 2u);
  EXPECT_EQ(a.find_histogram("h2")->count(), 0u);
  EXPECT_EQ(a.mismatches(), 1u);
  EXPECT_EQ(a.size(), 5u);
  // The merged-in entry's views point into a's own key, not b's.
  const auto& entry = a.entries().find("c{n=2}")->second;
  EXPECT_EQ(entry.name, "c");
  EXPECT_EQ((*entry.labels.begin()).second, "2");
  EXPECT_EQ(entry.name.data(), a.entries().find("c{n=2}")->first.data());
}

TEST(Registry, ResetByPrefix) {
  Registry reg;
  reg.counter("net.bytes").add(9);
  reg.gauge("net.depth").set(3);
  reg.counter("pss.exchanges").add(5);
  reg.reset("net.");
  EXPECT_EQ(reg.counter_value("net.bytes"), 0u);
  EXPECT_EQ(reg.gauge_value("net.depth"), 0.0);
  EXPECT_EQ(reg.counter_value("pss.exchanges"), 5u);  // untouched
  reg.reset();
  EXPECT_EQ(reg.counter_value("pss.exchanges"), 0u);
}

}  // namespace
}  // namespace whisper::telemetry
