// RSA: key generation, encryption, and signatures.
//
// Used by WHISPER in three places:
//  - each node's keypair wraps the per-layer AES keys of onion paths (WCL);
//  - each private group's keypair signs member passports (PPSS);
//  - leaders sign key-rotation announcements after leader election.
//
// Padding is PKCS#1 v1.5 style (type 2 for encryption, type 1 for
// signatures). Key size is configurable: large simulations default to
// 512-bit keys so that generating a thousand keypairs stays cheap, while
// 1024/2048-bit keys are exercised in tests and micro-benchmarks. The paper
// quotes 1 KB serialized public keys; the wire encoding below can pad to an
// arbitrary width so bandwidth experiments can match that figure.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "common/bytes.hpp"
#include "crypto/bigint.hpp"
#include "crypto/random.hpp"

namespace whisper::crypto {

/// Wire cap on each serialized key component (n, e): 1024 bytes covers
/// 8192-bit moduli, far above anything the stack generates. A forged length
/// prefix cannot allocate (or modexp) beyond it.
inline constexpr std::size_t kMaxKeyComponentBytes = 1024;
static_assert(kMaxKeyComponentBytes <= 8 * MontgomeryCtx::kMaxLimbs,
              "every modulus the wire accepts must fit a MontgomeryCtx");
/// Cap on a whole serialized public key blob (two components + prefixes,
/// plus fixed-width piggyback padding).
inline constexpr std::size_t kMaxKeyWireBytes = 4096;

struct RsaPublicKey {
  BigInt n;
  BigInt e;

  /// Modulus size in bytes; ciphertexts and signatures have this length.
  std::size_t block_size() const { return (n.bit_length() + 7) / 8; }
  /// Largest message acceptable to encrypt() (padding takes 11 bytes).
  std::size_t max_message() const { return block_size() >= 11 ? block_size() - 11 : 0; }

  Bytes serialize() const;
  static std::optional<RsaPublicKey> deserialize(BytesView data);

  /// Serialize padded with trailing zeros to exactly `width` bytes (to match
  /// the paper's 1 KB-per-public-key accounting). Must fit.
  Bytes serialize_padded(std::size_t width) const;

  /// Stable 64-bit fingerprint of the key (used as a key id).
  std::uint64_t fingerprint() const;

  bool operator==(const RsaPublicKey& o) const { return n == o.n && e == o.e; }

  /// Cached Montgomery context for n, built on first use. Copies of the key
  /// made after the first operation share the context (shared_ptr), so
  /// repeated envelope_seal/onion_build_header calls against the same key
  /// reuse the precomputed constants instead of rebuilding them.
  /// deserialize() always yields a key with a cold cache, so a stale
  /// context can never survive a wire round-trip; code that assigns `n`
  /// directly must also reset `mont_cache`.
  const MontgomeryCtx& mont() const;

  // Lazily-built cache; excluded from serialize()/operator==. Public so the
  // struct stays an aggregate (RsaPublicKey{n, e} is used throughout).
  mutable std::shared_ptr<const MontgomeryCtx> mont_cache{};
};

struct RsaKeyPair {
  RsaPublicKey pub;
  BigInt d;  // private exponent

  // CRT material (n = p*q, dp = d mod p-1, dq = d mod q-1,
  // qinv = q^{-1} mod p). Zero for keys assembled from just (n, e, d);
  // private operations then fall back to one full-size exponentiation.
  BigInt p;
  BigInt q;
  BigInt dp;
  BigInt dq;
  BigInt qinv;

  bool has_crt() const { return !p.is_zero(); }

  /// Cached Montgomery contexts for the CRT primes (see RsaPublicKey::mont
  /// for the caching/invalidation contract). Only valid when has_crt().
  const MontgomeryCtx& mont_p() const;
  const MontgomeryCtx& mont_q() const;

  /// Pre-build all Montgomery caches (modulus and CRT primes) so that
  /// copies of this keypair share them. The keypool warms each pooled key
  /// once; every node borrowing the key then hits warm caches.
  void warm_cache() const;

  mutable std::shared_ptr<const MontgomeryCtx> mont_p_cache{};
  mutable std::shared_ptr<const MontgomeryCtx> mont_q_cache{};

  /// Generate a keypair with the given modulus size from the DRBG. Fills
  /// the CRT fields.
  static RsaKeyPair generate(std::size_t bits, Drbg& drbg);
};

/// The RSA private-key primitive: c^d mod n. Routes through two half-size
/// exponentiations recombined with Garner's formula when CRT material is
/// present (~3-4x faster); bit-identical to the plain path either way.
/// `c` must be < n.
BigInt rsa_private_op(const RsaKeyPair& key, const BigInt& c);

/// PKCS#1-v1.5-type-2 encryption of msg (must be <= pub.max_message()).
/// Returns block_size() bytes; empty on oversize input.
Bytes rsa_encrypt(const RsaPublicKey& pub, BytesView msg, Drbg& drbg);

/// Inverse of rsa_encrypt; nullopt on malformed padding.
std::optional<Bytes> rsa_decrypt(const RsaKeyPair& key, BytesView ciphertext);

/// Sign SHA-256(msg) with PKCS#1-v1.5-type-1 padding.
Bytes rsa_sign(const RsaKeyPair& key, BytesView msg);

bool rsa_verify(const RsaPublicKey& pub, BytesView msg, BytesView signature);

/// Miller-Rabin probabilistic primality test (`rounds` random bases).
bool is_probable_prime(const BigInt& n, Drbg& drbg, int rounds = 24);

/// Generate a random prime of exactly `bits` bits (top two bits set).
BigInt generate_prime(std::size_t bits, Drbg& drbg);

}  // namespace whisper::crypto
