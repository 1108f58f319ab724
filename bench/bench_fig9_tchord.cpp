// Figure 9: routing delays of a private T-Chord DHT over WHISPER.
//
// Paper setup: a 400-node cluster; 60 of the nodes operate a private
// Chord index inside one group, built with T-Chord over the PPSS; 350
// random queries are routed greedily, and the owner answers the querying
// node directly through a single WCL path (the query ships the querier's
// contact information). Reported: CDF of routing delays, ~190 ms to
// ~1.5 s. Expected shape: smooth CDF from a couple of network RTTs up to a
// multi-hop tail.
#include <cmath>
#include <cstdio>
#include <map>

#include "bench_util.hpp"
#include "chord/tchord.hpp"
#include "common/stats.hpp"

int main(int argc, char** argv) {
  using namespace whisper;
  const std::size_t nodes = bench::arg_size(argc, argv, "nodes", 150);
  const std::size_t members = bench::arg_size(argc, argv, "members", 30);
  const std::size_t queries = bench::arg_size(argc, argv, "queries", 120);

  bench::banner("Figure 9 - private T-Chord routing delays (n=" + std::to_string(nodes) +
                    ", group=" + std::to_string(members) + ")",
                "delays from ~2 network RTTs to a ~1.5 s-scale multi-hop tail; "
                "smooth CDF; correct owners found");

  ScaleConfig cfg;
  cfg.initial_nodes = nodes;
  cfg.natted_fraction = 0.7;
  cfg.latency = "cluster";
  cfg.node.pss.pi_min_public = 3;
  cfg.node.wcl.pi = 3;
  cfg.node.ppss.cycle = 30 * net::kSecond;
  cfg.seed = 1200;
  ScaleTestbed tb(cfg);
  Rng rng(1201);

  tb.run_for(5 * net::kMinute);
  const GroupId gid{4242};
  auto nodes_alive = tb.alive_nodes();
  crypto::Drbg d(4242);
  auto& founder_ppss = nodes_alive[0]->create_group(gid, crypto::RsaKeyPair::generate(512, d));
  std::vector<WhisperNode*> group_members{nodes_alive[0]};
  for (std::size_t i = 1; i < members && i < nodes_alive.size(); ++i) {
    auto accr = founder_ppss.invite(nodes_alive[i]->id());
    nodes_alive[i]->join_group(gid, *accr, founder_ppss.self_descriptor());
    group_members.push_back(nodes_alive[i]);
    tb.run_for(3 * net::kSecond);
  }
  tb.run_for(5 * net::kMinute);

  chord::TChordConfig tc;
  tc.cycle = 20 * net::kSecond;
  std::vector<std::unique_ptr<chord::TChord>> rings;
  Rng ring_rng(cfg.seed ^ 0xc40d);
  for (WhisperNode* m : group_members) {
    rings.push_back(std::make_unique<chord::TChord>(tb.simulator(0), *m->group(gid), tc,
                                                    ring_rng.fork()));
    rings.back()->start();
  }
  tb.run_for(10 * net::kMinute);  // T-Chord converges in a few cycles

  // Global ring for correctness checking.
  std::map<chord::ChordKey, NodeId> ring;
  for (WhisperNode* m : group_members) ring[chord::chord_key_of(m->id())] = m->id();

  Samples delays;
  std::size_t answered = 0, correct = 0;
  std::vector<std::uint32_t> hop_counts;
  for (std::size_t q = 0; q < queries; ++q) {
    auto& querier = rings[rng.pick_index(rings)];
    const chord::ChordKey key = rng.next_u64();
    auto it = ring.lower_bound(key);
    if (it == ring.end()) it = ring.begin();
    const NodeId expected = it->second;
    querier->lookup(key, [&, expected](std::optional<chord::TChord::LookupResult> result) {
      if (!result) return;
      ++answered;
      if (result->owner.id() == expected) ++correct;
      delays.add(static_cast<double>(result->rtt) / net::kSecond);
      hop_counts.push_back(result->hops);
    });
    tb.run_for(5 * net::kSecond);
  }
  tb.run_for(90 * net::kSecond);  // drain stragglers (incl. one retry round)

  std::printf("queries answered: %zu / %zu (correct owner: %zu)\n", answered, queries, correct);
  std::printf("routing delay (s): %s\n", format_stacked_percentiles(delays).c_str());
  std::printf("%s", format_cdf(delays, 14, "delay(s)").c_str());
  double mean_hops = 0;
  for (auto h : hop_counts) mean_hops += h;
  if (!hop_counts.empty()) mean_hops /= static_cast<double>(hop_counts.size());
  std::printf("mean hops: %.2f (Chord expectation: ~log2(%zu)/2 = %.2f)\n", mean_hops,
              members, std::log2(static_cast<double>(members)) / 2.0);
  std::printf("shape-check: delays span a few network RTTs (local keys) up to a\n"
              "multi-hop tail; paper reports 190 ms .. ~1.5 s on its cluster.\n");
  return 0;
}
