// Golden determinism of the telemetry subsystem: two same-seed full-stack
// runs with tracing (the flight log) and time-series sampling enabled must
// export byte-identical JSONL and Chrome-trace documents, and enabling
// telemetry must not perturb the protocol evolution itself (same overlay
// digest as a telemetry-dark run would see — telemetry reads, it never
// schedules protocol events).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <sstream>

#include "telemetry/export.hpp"
#include "telemetry/health.hpp"
#include "whisper/scale.hpp"

namespace whisper {
namespace {

constexpr GroupId kGroup{61616};

struct RunOutput {
  std::string metrics_jsonl;
  std::string series_jsonl;
  std::string chrome_trace;
  std::uint64_t overlay_digest = 0;
};

RunOutput run_once(std::uint64_t seed, bool trace) {
  ScaleConfig cfg;
  cfg.initial_nodes = 30;
  cfg.node.pss.pi_min_public = 3;
  cfg.node.wcl.pi = 3;
  cfg.node.ppss.cycle = 30 * net::kSecond;
  cfg.seed = seed;
  cfg.flight = trace;
  ScaleTestbed tb(cfg);
  // With tracing on, sample every metric once per virtual minute, between
  // run_for slices, as whisper_sim --sample-secs does: one "fleet" health
  // line of the whole registry.
  std::string series_jsonl;
  telemetry::HealthSnapshot sample;
  auto run_minutes = [&](int minutes) {
    for (int m = 0; m < minutes; ++m) {
      tb.run_for(net::kMinute);
      if (!trace) continue;
      ++sample.seq;
      sample.now_us = sample.uptime_us = tb.now();
      sample.metrics = telemetry::registry_values(tb.registry(0));
      series_jsonl += telemetry::health_to_json(sample, "fleet") + "\n";
    }
  };
  run_minutes(4);

  auto nodes = tb.alive_nodes();
  crypto::Drbg d(seed);
  auto& fg = nodes[0]->create_group(kGroup, crypto::RsaKeyPair::generate(512, d));
  for (int i = 1; i <= 5; ++i) {
    nodes[static_cast<std::size_t>(i)]->join_group(
        kGroup, *fg.invite(nodes[static_cast<std::size_t>(i)]->id()), fg.self_descriptor());
  }
  run_minutes(6);

  RunOutput out;
  out.metrics_jsonl = telemetry::to_jsonl(tb.registry(0));
  out.series_jsonl = series_jsonl;
  out.chrome_trace = telemetry::to_chrome_trace(tb.flight(0).events());
  for (WhisperNode* n : tb.alive_nodes()) {
    for (const auto& e : n->pss().view().entries()) {
      out.overlay_digest = out.overlay_digest * 1099511628211ull + e.id().value;
      out.overlay_digest = out.overlay_digest * 1099511628211ull + e.age;
    }
  }
  return out;
}

TEST(TelemetryDeterminism, SameSeedExportsAreByteIdentical) {
  const RunOutput a = run_once(4242, /*trace=*/true);
  const RunOutput b = run_once(4242, /*trace=*/true);
  EXPECT_EQ(a.metrics_jsonl, b.metrics_jsonl);
  EXPECT_EQ(a.series_jsonl, b.series_jsonl);
  EXPECT_EQ(a.chrome_trace, b.chrome_trace);
  EXPECT_EQ(a.overlay_digest, b.overlay_digest);
  // The run actually produced telemetry (guards against a silently-dark run
  // passing the comparison vacuously).
  EXPECT_NE(a.metrics_jsonl.find("pss.exchanges.completed"), std::string::npos);
  EXPECT_NE(a.metrics_jsonl.find("net.node.bytes"), std::string::npos);
  EXPECT_NE(a.chrome_trace.find("pss.exchange"), std::string::npos);
  EXPECT_EQ(std::count(a.series_jsonl.begin(), a.series_jsonl.end(), '\n'), 10);
  EXPECT_NE(a.series_jsonl.find(R"({"node":"fleet","ts_us":600000000,)"), std::string::npos);
  EXPECT_NE(a.series_jsonl.find("\"nylon.sends.relayed\":"), std::string::npos);
  // The rendered flight log shows onion crypto and PPSS exchanges as
  // slices, and draws each arrow with exactly one start and one finish.
  EXPECT_NE(a.chrome_trace.find(R"({"name":"wcl.onion.build","cat":"wcl","ph":"X")"),
            std::string::npos);
  EXPECT_NE(a.chrome_trace.find(R"({"name":"ppss.exchange","cat":"ppss","ph":"X")"),
            std::string::npos);
  std::map<std::uint64_t, std::pair<int, int>> flows;  // id -> (starts, finishes)
  std::istringstream lines(a.chrome_trace);
  for (std::string line; std::getline(lines, line);) {
    const bool start = line.find(R"("ph":"s")") != std::string::npos;
    const bool finish = line.find(R"("ph":"f")") != std::string::npos;
    if (!start && !finish) continue;
    const std::size_t id_at = line.find(R"("id":)");
    ASSERT_NE(id_at, std::string::npos) << line;
    const std::uint64_t id = std::strtoull(line.c_str() + id_at + 5, nullptr, 10);
    (start ? flows[id].first : flows[id].second) += 1;
  }
  EXPECT_FALSE(flows.empty());
  for (const auto& [id, ends] : flows) {
    EXPECT_EQ(ends.first, 1) << "flow " << id;
    EXPECT_EQ(ends.second, 1) << "flow " << id;
  }
}

// Drop "sim.*" metric lines: event-loop bookkeeping (when attached) is not
// protocol state.
std::string without_sim_lines(const std::string& jsonl) {
  std::string out;
  std::size_t pos = 0;
  while (pos < jsonl.size()) {
    const std::size_t nl = jsonl.find('\n', pos);
    const std::string line = jsonl.substr(pos, nl - pos);
    if (line.find("\"name\":\"sim.") == std::string::npos) {
      out += line;
      out += '\n';
    }
    pos = (nl == std::string::npos) ? jsonl.size() : nl + 1;
  }
  return out;
}

TEST(TelemetryDeterminism, TracingDoesNotPerturbProtocolEvolution) {
  // Overlay state and every protocol-level metric must evolve identically
  // whether tracing/sampling is on or off: telemetry observes the schedule,
  // it never participates in it.
  const RunOutput dark = run_once(5151, /*trace=*/false);
  const RunOutput lit = run_once(5151, /*trace=*/true);
  EXPECT_EQ(dark.overlay_digest, lit.overlay_digest);
  EXPECT_EQ(without_sim_lines(dark.metrics_jsonl), without_sim_lines(lit.metrics_jsonl));
}

}  // namespace
}  // namespace whisper
