#include "chord/tchord.hpp"

#include <gtest/gtest.h>

#include <map>

#include "whisper/scale.hpp"

namespace whisper::chord {
namespace {

constexpr GroupId kGroup{5000};

ScaleConfig config(std::size_t n, std::uint64_t seed) {
  ScaleConfig cfg;
  cfg.initial_nodes = n;
  cfg.node.pss.pi_min_public = 3;
  cfg.node.wcl.pi = 3;
  cfg.node.ppss.cycle = 30 * net::kSecond;
  cfg.seed = seed;
  return cfg;
}

struct RingFixture {
  ScaleTestbed tb;
  std::vector<WhisperNode*> members;
  std::vector<std::unique_ptr<TChord>> rings;

  RingFixture(std::size_t n_nodes, std::size_t n_members, std::uint64_t seed = 91)
      : tb(config(n_nodes, seed)) {
    tb.run_for(6 * net::kMinute);
    auto nodes = tb.alive_nodes();
    WhisperNode* founder = nodes[0];
    auto& fg = founder->create_group(kGroup, [&] {
      crypto::Drbg d(seed);
      return crypto::RsaKeyPair::generate(512, d);
    }());
    members.push_back(founder);
    for (std::size_t i = 1; i < n_members; ++i) {
      nodes[i]->join_group(kGroup, *fg.invite(nodes[i]->id()), fg.self_descriptor());
      members.push_back(nodes[i]);
      tb.run_for(5 * net::kSecond);
    }
    tb.run_for(5 * net::kMinute);  // private views converge

    TChordConfig tc;
    tc.cycle = 20 * net::kSecond;
    Rng ring_rng(seed ^ 0xc40d);
    for (WhisperNode* m : members) {
      rings.push_back(
          std::make_unique<TChord>(tb.simulator(0), *m->group(kGroup), tc, ring_rng.fork()));
      rings.back()->start();
    }
  }

  /// Expected successor of each member key given global knowledge.
  std::map<ChordKey, NodeId> global_ring() const {
    std::map<ChordKey, NodeId> ring;
    for (WhisperNode* m : members) ring[chord_key_of(m->id())] = m->id();
    return ring;
  }
};

TEST(TChord, RingConvergesToCorrectSuccessors) {
  RingFixture f(35, 10);
  f.tb.run_for(10 * net::kMinute);
  auto ring = f.global_ring();
  std::size_t correct = 0;
  for (std::size_t i = 0; i < f.rings.size(); ++i) {
    auto succ = f.rings[i]->successor();
    if (!succ) continue;
    // Expected: next key clockwise in the global ring.
    auto it = ring.upper_bound(f.rings[i]->self_key());
    if (it == ring.end()) it = ring.begin();
    if (succ->id() == it->second) ++correct;
  }
  // T-Chord converges to the perfect ring in a few cycles.
  EXPECT_GE(correct, f.rings.size() - 1);
}

TEST(TChord, PredecessorsConsistent) {
  RingFixture f(35, 8, 92);
  f.tb.run_for(10 * net::kMinute);
  auto ring = f.global_ring();
  std::size_t correct = 0;
  for (auto& r : f.rings) {
    auto pred = r->predecessor();
    if (!pred) continue;
    auto it = ring.lower_bound(r->self_key());
    if (it == ring.begin()) it = ring.end();
    --it;
    if (pred->id() == it->second) ++correct;
  }
  EXPECT_GE(correct, f.rings.size() - 1);
}

TEST(TChord, FingersPopulated) {
  RingFixture f(35, 10, 93);
  f.tb.run_for(10 * net::kMinute);
  for (auto& r : f.rings) {
    EXPECT_GE(r->fingers().size(), 2u);
    EXPECT_GT(r->candidate_count(), 3u);
  }
}

TEST(TChord, LookupFindsCorrectOwner) {
  RingFixture f(35, 10, 94);
  f.tb.run_for(12 * net::kMinute);
  auto ring = f.global_ring();

  int answered = 0, correct = 0;
  Rng rng(4242);
  for (int q = 0; q < 20; ++q) {
    auto& querier = f.rings[rng.pick_index(f.rings)];
    const ChordKey key = rng.next_u64();
    auto it = ring.lower_bound(key);
    if (it == ring.end()) it = ring.begin();
    const NodeId expected = it->second;
    querier->lookup(key, [&, expected](std::optional<TChord::LookupResult> result) {
      if (!result) return;
      ++answered;
      if (result->owner.id() == expected || result->owner.id().is_nil()) {
        // nil id happens only for local self-hits where id comes from self.
      }
      if (result->owner.id() == expected) ++correct;
    });
    f.tb.run_for(30 * net::kSecond);
  }
  EXPECT_GE(answered, 16);
  EXPECT_GE(correct, answered * 8 / 10);
}

TEST(TChord, LookupDelaysReasonable) {
  RingFixture f(35, 10, 95);
  f.tb.run_for(12 * net::kMinute);
  std::vector<net::Time> rtts;
  Rng rng(777);
  for (int q = 0; q < 15; ++q) {
    auto& querier = f.rings[rng.pick_index(f.rings)];
    querier->lookup(rng.next_u64(), [&](std::optional<TChord::LookupResult> result) {
      if (result) rtts.push_back(result->rtt);
    });
    f.tb.run_for(30 * net::kSecond);
  }
  ASSERT_GE(rtts.size(), 10u);
  for (net::Time rtt : rtts) {
    EXPECT_LT(rtt, 20 * net::kSecond);
  }
}

TEST(ChordKeyOf, DeterministicAndSpread) {
  EXPECT_EQ(chord_key_of(NodeId{1}), chord_key_of(NodeId{1}));
  EXPECT_NE(chord_key_of(NodeId{1}), chord_key_of(NodeId{2}));
}

TEST(RingDistance, WrapsCorrectly) {
  EXPECT_EQ(ring_distance(10, 20), 10u);
  EXPECT_EQ(ring_distance(20, 10), static_cast<ChordKey>(-10));
  EXPECT_EQ(ring_distance(5, 5), 0u);
}

}  // namespace
}  // namespace whisper::chord
