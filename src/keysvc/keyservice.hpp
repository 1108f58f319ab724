// Decentralized public key management (§III-B-2).
//
// Every gossip exchange piggybacks the sender's public key, so a node ends
// up knowing the key of everything in its connection backlog (the CB is fed
// by the same exchanges). Keys are additionally fetchable on demand — the
// WCL uses this when it must pull a fresh P-node into the CB to restore the
// Π invariant ("keys are also exchanged with the P-nodes that are
// explicitly contacted").
//
// Keys travel padded to `key_wire_size` bytes (default 1 KB, the figure the
// paper uses for its bandwidth accounting).
#pragma once

#include <functional>
#include <optional>
#include "common/densemap.hpp"
#include "common/fifo.hpp"

#include "crypto/rsa.hpp"
#include "nylon/transport.hpp"
#include "net/spi.hpp"

namespace whisper::keysvc {

struct KeyServiceConfig {
  /// Wire size each public key is padded to (the paper accounts 1 KB per
  /// key). 0 disables piggybacking entirely (Fig. 6's no-KS baseline).
  std::size_t key_wire_size = 1024;
  net::Time request_timeout = 5 * net::kSecond;
};

class KeyService {
 public:
  KeyService(net::Clock& clock, nylon::Transport& transport, const crypto::RsaKeyPair& own,
             KeyServiceConfig config = {});
  ~KeyService();

  KeyService(const KeyService&) = delete;
  KeyService& operator=(const KeyService&) = delete;

  const crypto::RsaPublicKey& own_public() const { return own_.pub; }
  const crypto::RsaKeyPair& own_pair() const { return own_; }

  /// PSS piggyback hooks. Wire these to NylonPss::extra_provider/consumer.
  Bytes piggyback() const;
  void consume(const pss::ContactCard& from, BytesView extra);

  void store(NodeId id, const crypto::RsaPublicKey& key);
  std::optional<crypto::RsaPublicKey> key_of(NodeId id) const;
  std::size_t cache_size() const { return cache_.size(); }
  std::uint64_t decode_rejects() const { return decode_rejects_; }
  std::uint64_t cache_evictions() const { return cache_evictions_; }

  /// Explicitly fetch `target`'s public key (request/response over the
  /// transport). The callback fires exactly once: with the key, or with
  /// nullopt after the timeout.
  void request_key(const pss::ContactCard& target,
                   std::function<void(std::optional<crypto::RsaPublicKey>)> callback);

 private:
  void handle_message(NodeId from, BytesView payload);

  net::Clock& clock_;
  nylon::Transport& transport_;
  const crypto::RsaKeyPair& own_;
  KeyServiceConfig config_;
  DenseMap<NodeId, crypto::RsaPublicKey> cache_;
  Fifo<NodeId> cache_order_;  // insertion order, for FIFO eviction
  std::uint64_t decode_rejects_ = 0;
  std::uint64_t cache_evictions_ = 0;

  struct PendingRequest {
    NodeId target;
    std::function<void(std::optional<crypto::RsaPublicKey>)> callback;
    net::TimerId timeout_timer = 0;
  };
  DenseMap<std::uint32_t, PendingRequest> pending_;
  std::uint32_t next_seq_ = 1;
};

}  // namespace whisper::keysvc
