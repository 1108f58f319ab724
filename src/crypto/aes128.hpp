// AES-128 (FIPS 197) block cipher plus CTR mode.
//
// The paper uses AES for the symmetric leg of the hybrid onion encryption
// (content encrypted under a fresh random key k, k itself RSA-wrapped).
// CTR mode keeps ciphertext length equal to plaintext length, which keeps
// onion-layer size accounting simple.
//
// aes128_ctr runs the key schedule and its counter blocks through AES-NI
// when the CPU has it (checked once at run time; no build flag), and
// aes128_ctr_portable everywhere else. The portable path is built on the
// byte-wise encrypt_block, the reference the fast path is tested against:
// both produce the same bytes.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace whisper::crypto {

using AesKey = std::array<std::uint8_t, 16>;
using AesBlock = std::array<std::uint8_t, 16>;

/// AES-128 with a precomputed key schedule.
class Aes128 {
 public:
  explicit Aes128(const AesKey& key);

  /// Portable byte-wise encryption (not constant-time: S-box lookups).
  void encrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const;

 private:
  std::uint8_t round_keys_[11][16];
};

/// CTR-mode encryption/decryption (the operation is its own inverse).
/// The 16-byte IV is the initial counter block, incremented as one
/// big-endian 128-bit integer.
Bytes aes128_ctr(const AesKey& key, const AesBlock& iv, BytesView data);

/// The same CTR keystream through the byte-wise encrypt_block: what
/// aes128_ctr runs on CPUs without AES-NI and on other architectures.
Bytes aes128_ctr_portable(const AesKey& key, const AesBlock& iv, BytesView data);

}  // namespace whisper::crypto
