#include "keysvc/keyservice.hpp"

#include <gtest/gtest.h>

#include "whisper/scale.hpp"

namespace whisper::keysvc {
namespace {

ScaleConfig config(std::size_t n) {
  ScaleConfig cfg;
  cfg.initial_nodes = n;
  cfg.seed = 21;
  return cfg;
}

TEST(KeyService, PiggybackRoundTrips) {
  ScaleTestbed tb(config(2));
  WhisperNode* a = tb.alive_nodes()[0];
  const Bytes piggy = a->keys().piggyback();
  EXPECT_EQ(piggy.size(), KeyServiceConfig{}.key_wire_size);
  auto key = crypto::RsaPublicKey::deserialize(piggy);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(*key, a->keypair().pub);
}

TEST(KeyService, GossipSpreadsKeys) {
  ScaleTestbed tb(config(20));
  tb.run_for(3 * net::kMinute);
  // After a few cycles every node holds keys for (at least) its CB.
  for (WhisperNode* n : tb.alive_nodes()) {
    EXPECT_GT(n->keys().cache_size(), 0u);
    for (const auto& e : n->wcl().backlog().entries()) {
      EXPECT_TRUE(n->keys().key_of(e.card.id).has_value());
    }
  }
}

TEST(KeyService, CachedKeysMatchRealKeys) {
  ScaleTestbed tb(config(15));
  tb.run_for(3 * net::kMinute);
  for (WhisperNode* n : tb.alive_nodes()) {
    for (WhisperNode* other : tb.alive_nodes()) {
      if (auto k = n->keys().key_of(other->id())) {
        EXPECT_EQ(*k, other->keypair().pub);
      }
    }
  }
}

TEST(KeyService, ExplicitRequestDeliversKey) {
  ScaleTestbed tb(config(5));
  tb.run_for(30 * net::kSecond);
  WhisperNode* a = tb.alive_nodes()[0];
  WhisperNode* b = tb.alive_nodes()[1];
  std::optional<crypto::RsaPublicKey> got;
  a->keys().request_key(b->transport().self_card(),
                        [&](std::optional<crypto::RsaPublicKey> k) { got = k; });
  tb.run_for(10 * net::kSecond);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, b->keypair().pub);
}

TEST(KeyService, RequestToDeadNodeTimesOut) {
  ScaleTestbed tb(config(5));
  tb.run_for(30 * net::kSecond);
  WhisperNode* a = tb.alive_nodes()[0];
  // A node that does not exist (never cached, never answers).
  pss::ContactCard ghost;
  ghost.id = NodeId{424242};
  ghost.is_public = true;
  ghost.addr = Endpoint{0x7f7f7f7f, 9};
  bool called = false;
  std::optional<crypto::RsaPublicKey> got;
  a->keys().request_key(ghost, [&](std::optional<crypto::RsaPublicKey> k) {
    called = true;
    got = k;
  });
  tb.run_for(30 * net::kSecond);
  EXPECT_TRUE(called);
  EXPECT_FALSE(got.has_value());
}

TEST(KeyService, CacheHitAnswersSynchronously) {
  ScaleTestbed tb(config(5));
  tb.run_for(2 * net::kMinute);
  WhisperNode* a = tb.alive_nodes()[0];
  // Prime the cache.
  WhisperNode* b = tb.alive_nodes()[1];
  a->keys().store(b->id(), b->keypair().pub);
  bool called = false;
  a->keys().request_key(b->transport().self_card(),
                        [&](std::optional<crypto::RsaPublicKey> k) {
                          called = true;
                          EXPECT_TRUE(k.has_value());
                        });
  EXPECT_TRUE(called);  // no network round-trip needed
}

}  // namespace
}  // namespace whisper::keysvc
