// Shard-count invariance of the parallel engine (the CI gate DESIGN.md §13
// promises): a same-seed ScaleTestbed run must export byte-identical merged
// telemetry and canonical flight JSONL whether it runs on 1, 2, or 8
// shards, and must execute exactly the same number of events. Includes
// deterministic churn between run windows, so the gate also covers the
// planner-rng spawn/kill paths, and in-place crash-restarts.
#include <gtest/gtest.h>

#include <string>

#include "telemetry/flight.hpp"
#include "whisper/scale.hpp"

namespace whisper {
namespace {

struct RunOutput {
  std::string metrics_jsonl;
  std::string flight_jsonl;
  std::uint64_t executed = 0;
  std::uint64_t cross_shard = 0;
  std::size_t alive = 0;
  std::uint64_t peer_restarts = 0;  // restarts live nodes saw their peers make
};

RunOutput run_once(std::uint64_t seed, std::size_t shards, bool crash_restart = false) {
  ScaleConfig cfg;
  cfg.initial_nodes = 32;
  cfg.shards = shards;
  cfg.seed = seed;
  cfg.flight = true;
  cfg.node.pss.pi_min_public = 3;
  cfg.node.wcl.pi = 3;
  // Epoch-aware nodes, so peers notice the restarted incarnations.
  if (crash_restart) cfg.node.transport.incarnation = 1;
  ScaleTestbed tb(cfg);

  tb.run_for(90 * net::kSecond);
  // Deterministic churn: same planner-rng draws for every shard count.
  tb.kill_random_node();
  tb.kill_random_node();
  tb.spawn_node();
  if (crash_restart) {
    // Crash three live nodes (kill -9) and boot each again in place. Node 0
    // lives on shard 0 at every S; the others spread over the shards.
    std::size_t restarted = 0;
    for (std::size_t i = 0; i < tb.node_count() && restarted < 3; i += 5) {
      if (tb.restart_node(i) != nullptr) ++restarted;
    }
    EXPECT_EQ(restarted, 3u);
  }
  tb.run_for(90 * net::kSecond);

  RunOutput out;
  out.metrics_jsonl = tb.merged_metrics_jsonl();
  out.flight_jsonl = tb.canonical_flight_jsonl();
  out.executed = tb.executed_events();
  out.cross_shard = tb.cross_shard_messages();
  out.alive = tb.alive_count();
  for (WhisperNode* n : tb.alive_nodes()) out.peer_restarts += n->transport().peer_restarts();
  return out;
}

TEST(ShardedDeterminism, OneShardIsRerunStable) {
  const RunOutput a = run_once(7001, 1);
  const RunOutput b = run_once(7001, 1);
  EXPECT_EQ(a.metrics_jsonl, b.metrics_jsonl);
  EXPECT_EQ(a.flight_jsonl, b.flight_jsonl);
  EXPECT_EQ(a.executed, b.executed);
}

TEST(ShardedDeterminism, ShardCountDoesNotChangeTheRun) {
  const RunOutput s1 = run_once(7002, 1);
  const RunOutput s2 = run_once(7002, 2);
  const RunOutput s8 = run_once(7002, 8);

  EXPECT_EQ(s1.alive, s2.alive);
  EXPECT_EQ(s1.alive, s8.alive);
  EXPECT_EQ(s1.executed, s2.executed);
  EXPECT_EQ(s1.executed, s8.executed);

  // Byte-identity, plus the digest the CI gate logs.
  EXPECT_EQ(s1.metrics_jsonl, s2.metrics_jsonl);
  EXPECT_EQ(s1.metrics_jsonl, s8.metrics_jsonl);
  EXPECT_EQ(telemetry::flight_digest(s1.flight_jsonl),
            telemetry::flight_digest(s2.flight_jsonl));
  EXPECT_EQ(s1.flight_jsonl, s2.flight_jsonl);
  EXPECT_EQ(s1.flight_jsonl, s8.flight_jsonl);

  // The gate is only meaningful if the run did real work and traffic
  // actually crossed shards (the 3-minute 32-node scenario executes ~4.3k
  // events; a floor well below that still catches a gutted run).
  EXPECT_GT(s1.executed, 3000u);
  EXPECT_EQ(s1.cross_shard, 0u);
  EXPECT_GT(s2.cross_shard, 1000u);
  EXPECT_GT(s8.cross_shard, 1000u);
}

TEST(ShardedDeterminism, CrashRestartDoesNotDependOnShardCount) {
  const RunOutput s1 = run_once(7005, 1, /*crash_restart=*/true);
  const RunOutput s2 = run_once(7005, 2, /*crash_restart=*/true);
  const RunOutput s8 = run_once(7005, 8, /*crash_restart=*/true);
  EXPECT_EQ(s1.alive, s2.alive);
  EXPECT_EQ(s1.alive, s8.alive);
  EXPECT_EQ(s1.executed, s2.executed);
  EXPECT_EQ(s1.executed, s8.executed);
  EXPECT_EQ(s1.metrics_jsonl, s2.metrics_jsonl);
  EXPECT_EQ(s1.metrics_jsonl, s8.metrics_jsonl);
  EXPECT_EQ(s1.flight_jsonl, s2.flight_jsonl);
  EXPECT_EQ(s1.flight_jsonl, s8.flight_jsonl);
  // Non-vacuous: peers saw the new incarnations, and the restarted run
  // differs from the plain one.
  EXPECT_EQ(s1.peer_restarts, s2.peer_restarts);
  EXPECT_EQ(s1.peer_restarts, s8.peer_restarts);
  EXPECT_GT(s1.peer_restarts, 0u);
  EXPECT_NE(s1.metrics_jsonl, run_once(7005, 1).metrics_jsonl);
}

TEST(ShardedDeterminism, SeedChangesTheRun) {
  const RunOutput a = run_once(7003, 2);
  const RunOutput b = run_once(7004, 2);
  EXPECT_NE(a.metrics_jsonl, b.metrics_jsonl);
}

}  // namespace
}  // namespace whisper
