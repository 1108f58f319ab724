#include "keysvc/keyservice.hpp"

namespace whisper::keysvc {

namespace {
constexpr std::uint8_t kKindRequest = 1;
constexpr std::uint8_t kKindResponse = 2;

/// Hard cap on cached peer keys (peer-driven state; FIFO eviction).
constexpr std::size_t kMaxCachedKeys = 4096;
static_assert(kMaxCachedKeys > 0, "the key cache is always bounded");
}  // namespace

KeyService::KeyService(net::Clock& clock, nylon::Transport& transport,
                       const crypto::RsaKeyPair& own, KeyServiceConfig config)
    : clock_(clock), transport_(transport), own_(own), config_(config) {
  transport_.register_handler(nylon::kTagKeys,
                              [this](NodeId from, BytesView p) { handle_message(from, p); });
}

KeyService::~KeyService() {
  for (auto&& [seq, pending] : pending_) {
    if (pending.timeout_timer != 0) clock_.cancel(pending.timeout_timer);
  }
}

Bytes KeyService::piggyback() const {
  // key_wire_size == 0 disables the key sampling service entirely (the
  // Fig. 6 baseline): no key travels with gossip messages.
  if (config_.key_wire_size == 0) return {};
  return own_.pub.serialize_padded(config_.key_wire_size);
}

void KeyService::consume(const pss::ContactCard& from, BytesView extra) {
  if (extra.empty()) return;
  auto key = crypto::RsaPublicKey::deserialize(extra);
  if (key) store(from.id, *key);
}

void KeyService::store(NodeId id, const crypto::RsaPublicKey& key) {
  auto it = cache_.find(id);
  if (it != cache_.end()) {
    it->second = key;
    return;
  }
  while (cache_.size() >= kMaxCachedKeys && !cache_order_.empty()) {
    cache_.erase(cache_order_.front());
    cache_order_.pop_front();
    ++cache_evictions_;
  }
  cache_order_.push_back(id);
  cache_.emplace(id, key);
}

std::optional<crypto::RsaPublicKey> KeyService::key_of(NodeId id) const {
  auto it = cache_.find(id);
  if (it == cache_.end()) return std::nullopt;
  return it->second;
}

void KeyService::request_key(
    const pss::ContactCard& target,
    std::function<void(std::optional<crypto::RsaPublicKey>)> callback) {
  // Serve from cache when possible.
  if (auto cached = key_of(target.id)) {
    callback(*cached);
    return;
  }
  const std::uint32_t seq = next_seq_++;
  Writer w;
  w.u8(kKindRequest);
  w.u32(seq);
  transport_.self_card().serialize(w);  // so a natted requester can be answered
  transport_.send(target, nylon::kTagKeys, w.data(), net::Proto::kKeys);

  PendingRequest pending;
  pending.target = target.id;
  pending.callback = std::move(callback);
  pending.timeout_timer = clock_.schedule_after(config_.request_timeout, [this, seq] {
    auto it = pending_.find(seq);
    if (it == pending_.end()) return;
    auto cb = std::move(it->second.callback);
    pending_.erase(it);
    cb(std::nullopt);
  });
  pending_[seq] = std::move(pending);
}

void KeyService::handle_message(NodeId from, BytesView payload) {
  Reader r(payload);
  const std::uint8_t kind = r.u8();
  const std::uint32_t seq = r.u32();
  if (!r.ok() || (kind != kKindRequest && kind != kKindResponse)) {
    ++decode_rejects_;
    return;
  }

  if (kind == kKindRequest) {
    pss::ContactCard requester = pss::ContactCard::deserialize(r);
    if (!r.expect_done() || requester.id != from) {
      ++decode_rejects_;
      return;
    }
    Writer w;
    w.u8(kKindResponse);
    w.u32(seq);
    w.bytes(piggyback());
    transport_.send(requester, nylon::kTagKeys, w.data(), net::Proto::kKeys);
    return;
  }
  if (kind == kKindResponse) {
    auto it = pending_.find(seq);
    if (it == pending_.end() || it->second.target != from) return;
    Bytes key_bytes = r.bytes(crypto::kMaxKeyWireBytes);
    if (!r.expect_done()) {
      ++decode_rejects_;
      return;
    }
    auto key = crypto::RsaPublicKey::deserialize(key_bytes);
    if (key) store(from, *key);
    auto cb = std::move(it->second.callback);
    if (it->second.timeout_timer != 0) clock_.cancel(it->second.timeout_timer);
    pending_.erase(it);
    cb(key);
  }
}

}  // namespace whisper::keysvc
