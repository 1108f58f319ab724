#include "crypto/hmac.hpp"

#include <algorithm>
#include <cstring>

namespace whisper::crypto {

Digest256 hmac_sha256(BytesView key, BytesView data) {
  std::uint8_t block[64] = {};
  if (key.size() > 64) {
    const Digest256 hashed = Sha256::hash(key);
    std::memcpy(block, hashed.data(), hashed.size());
  } else {
    std::copy(key.begin(), key.end(), block);  // memcpy would reject an empty key's null data()
  }

  std::uint8_t ipad[64], opad[64];
  for (int i = 0; i < 64; ++i) {
    ipad[i] = static_cast<std::uint8_t>(block[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(block[i] ^ 0x5c);
  }

  Sha256 inner;
  inner.update(ipad, 64);
  inner.update(data);
  const Digest256 inner_digest = inner.finish();

  Sha256 outer;
  outer.update(opad, 64);
  outer.update(inner_digest.data(), inner_digest.size());
  return outer.finish();
}

namespace {

// Derive the MAC key from the encryption key so the onion header still only
// carries 32 bytes of key material.
Bytes derive_mac_key(const AesKey& key, const AesBlock& iv) {
  Bytes in;
  in.reserve(16 + 16 + 4);
  in.insert(in.end(), key.begin(), key.end());
  in.insert(in.end(), iv.begin(), iv.end());
  const char tag[4] = {'m', 'a', 'c', '1'};
  in.insert(in.end(), tag, tag + 4);
  const Digest256 d = Sha256::hash(in);
  return Bytes(d.begin(), d.end());
}

}  // namespace

Bytes seal_authenticated(const AesKey& key, const AesBlock& iv, BytesView plaintext) {
  Bytes out = aes128_ctr(key, iv, plaintext);
  const Digest256 tag = hmac_sha256(derive_mac_key(key, iv), out);
  out.insert(out.end(), tag.begin(), tag.end());
  return out;
}

std::optional<Bytes> open_authenticated(const AesKey& key, const AesBlock& iv,
                                        BytesView sealed) {
  if (sealed.size() < 32) return std::nullopt;
  const BytesView ciphertext = sealed.subspan(0, sealed.size() - 32);
  const BytesView tag = sealed.subspan(sealed.size() - 32);
  const Digest256 expected = hmac_sha256(derive_mac_key(key, iv), ciphertext);
  // Constant-time comparison.
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < 32; ++i) diff |= static_cast<std::uint8_t>(expected[i] ^ tag[i]);
  if (diff != 0) return std::nullopt;
  return aes128_ctr(key, iv, ciphertext);
}

}  // namespace whisper::crypto
