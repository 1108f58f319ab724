#include "crypto/rsa.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace whisper::crypto {
namespace {

// Keygen is the slow part; share keypairs across tests in this file.
const RsaKeyPair& key512() {
  static const RsaKeyPair kp = [] {
    Drbg d(101);
    return RsaKeyPair::generate(512, d);
  }();
  return kp;
}

const RsaKeyPair& key1024() {
  static const RsaKeyPair kp = [] {
    Drbg d(202);
    return RsaKeyPair::generate(1024, d);
  }();
  return kp;
}

TEST(Prime, KnownPrimesAccepted) {
  Drbg d(1);
  for (std::uint64_t p : {2ull, 3ull, 5ull, 65537ull, 1000003ull, 2147483647ull}) {
    EXPECT_TRUE(is_probable_prime(BigInt{p}, d)) << p;
  }
}

TEST(Prime, KnownCompositesRejected) {
  Drbg d(2);
  // Includes Carmichael numbers 561, 1105, 6601.
  for (std::uint64_t n : {1ull, 4ull, 100ull, 561ull, 1105ull, 6601ull, 1000001ull}) {
    EXPECT_FALSE(is_probable_prime(BigInt{n}, d)) << n;
  }
}

TEST(Prime, SmallNumbersMatchSieve) {
  // Every composite below 349^2 has a prime factor of at most 347, so trial
  // division alone rejects it, and a prime passes Miller-Rabin whatever the
  // bases: the answer is exact, for the small primes themselves included.
  constexpr std::uint64_t kLimit = 5000;
  std::vector<bool> prime(kLimit, true);
  prime[0] = prime[1] = false;
  for (std::uint64_t i = 2; i * i < kLimit; ++i) {
    for (std::uint64_t j = i * i; prime[i] && j < kLimit; j += i) prime[j] = false;
  }
  Drbg d(5);
  for (std::uint64_t n = 0; n < kLimit; ++n) {
    EXPECT_EQ(is_probable_prime(BigInt{n}, d), prime[n]) << n;
  }
}

TEST(Prime, GeneratedPrimeHasExactBitLength) {
  Drbg d(3);
  for (std::size_t bits : {64u, 128u, 256u}) {
    BigInt p = generate_prime(bits, d);
    EXPECT_EQ(p.bit_length(), bits);
    EXPECT_TRUE(p.is_odd());
    EXPECT_TRUE(is_probable_prime(p, d));
  }
}

TEST(Prime, TopTwoBitsSet) {
  Drbg d(4);
  BigInt p = generate_prime(128, d);
  EXPECT_TRUE(p.bit(127));
  EXPECT_TRUE(p.bit(126));
}

TEST(RsaKeyPair, GeneratedModulusHasRequestedSize) {
  EXPECT_EQ(key512().pub.n.bit_length(), 512u);
  EXPECT_EQ(key512().pub.block_size(), 64u);
  EXPECT_EQ(key1024().pub.n.bit_length(), 1024u);
}

TEST(RsaKeyPair, DeterministicFromSeed) {
  Drbg d1(77), d2(77);
  const RsaKeyPair a = RsaKeyPair::generate(512, d1);
  const RsaKeyPair b = RsaKeyPair::generate(512, d2);
  EXPECT_EQ(a.pub.n, b.pub.n);
  EXPECT_EQ(a.d, b.d);
}

TEST(RsaEncrypt, RoundTrip) {
  Drbg d(5);
  const Bytes msg = to_bytes("hello whisper");
  const Bytes ct = rsa_encrypt(key512().pub, msg, d);
  ASSERT_EQ(ct.size(), 64u);
  auto pt = rsa_decrypt(key512(), ct);
  ASSERT_TRUE(pt.has_value());
  EXPECT_EQ(*pt, msg);
}

TEST(RsaEncrypt, MaxSizeMessage) {
  Drbg d(6);
  const Bytes msg(key512().pub.max_message(), 0xaa);
  const Bytes ct = rsa_encrypt(key512().pub, msg, d);
  ASSERT_FALSE(ct.empty());
  auto pt = rsa_decrypt(key512(), ct);
  ASSERT_TRUE(pt.has_value());
  EXPECT_EQ(*pt, msg);
}

TEST(RsaEncrypt, OversizedMessageRejected) {
  Drbg d(7);
  const Bytes msg(key512().pub.max_message() + 1, 0xaa);
  EXPECT_TRUE(rsa_encrypt(key512().pub, msg, d).empty());
}

TEST(RsaEncrypt, EmptyMessageRoundTrip) {
  Drbg d(8);
  const Bytes ct = rsa_encrypt(key512().pub, Bytes{}, d);
  auto pt = rsa_decrypt(key512(), ct);
  ASSERT_TRUE(pt.has_value());
  EXPECT_TRUE(pt->empty());
}

TEST(RsaEncrypt, RandomizedPadding) {
  Drbg d(9);
  const Bytes msg = to_bytes("same message");
  EXPECT_NE(rsa_encrypt(key512().pub, msg, d), rsa_encrypt(key512().pub, msg, d));
}

TEST(RsaDecrypt, WrongKeyFails) {
  Drbg d(10);
  const Bytes ct = rsa_encrypt(key512().pub, to_bytes("secret"), d);
  Drbg d2(11);
  const RsaKeyPair other = RsaKeyPair::generate(512, d2);
  auto pt = rsa_decrypt(other, ct);
  // Either padding check fails or garbage comes out; it must not be "secret".
  if (pt.has_value()) {
    EXPECT_NE(*pt, to_bytes("secret"));
  }
}

TEST(RsaDecrypt, CorruptedCiphertextFails) {
  Drbg d(12);
  Bytes ct = rsa_encrypt(key512().pub, to_bytes("secret"), d);
  ct[10] ^= 0x01;
  auto pt = rsa_decrypt(key512(), ct);
  if (pt.has_value()) {
    EXPECT_NE(*pt, to_bytes("secret"));
  }
}

TEST(RsaDecrypt, WrongLengthRejected) {
  EXPECT_FALSE(rsa_decrypt(key512(), Bytes(63, 0)).has_value());
  EXPECT_FALSE(rsa_decrypt(key512(), Bytes(65, 0)).has_value());
}

TEST(RsaSign, VerifyAccepts) {
  const Bytes msg = to_bytes("signed payload");
  const Bytes sig = rsa_sign(key512(), msg);
  EXPECT_TRUE(rsa_verify(key512().pub, msg, sig));
}

TEST(RsaSign, VerifyRejectsTamperedMessage) {
  const Bytes msg = to_bytes("signed payload");
  const Bytes sig = rsa_sign(key512(), msg);
  EXPECT_FALSE(rsa_verify(key512().pub, to_bytes("signed payloaD"), sig));
}

TEST(RsaSign, VerifyRejectsTamperedSignature) {
  const Bytes msg = to_bytes("signed payload");
  Bytes sig = rsa_sign(key512(), msg);
  sig[0] ^= 0x01;
  EXPECT_FALSE(rsa_verify(key512().pub, msg, sig));
}

TEST(RsaSign, VerifyRejectsWrongKey) {
  const Bytes msg = to_bytes("signed payload");
  const Bytes sig = rsa_sign(key512(), msg);
  EXPECT_FALSE(rsa_verify(key1024().pub, msg, sig));
}

TEST(RsaSign, SignatureDeterministic) {
  const Bytes msg = to_bytes("msg");
  EXPECT_EQ(rsa_sign(key512(), msg), rsa_sign(key512(), msg));
}

TEST(RsaSign, WorksAt1024Bits) {
  const Bytes msg = to_bytes("larger key");
  const Bytes sig = rsa_sign(key1024(), msg);
  EXPECT_EQ(sig.size(), 128u);
  EXPECT_TRUE(rsa_verify(key1024().pub, msg, sig));
}

TEST(RsaPublicKey, SerializeRoundTrip) {
  const Bytes wire = key512().pub.serialize();
  auto back = RsaPublicKey::deserialize(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, key512().pub);
}

TEST(RsaPublicKey, PaddedSerializationStillParses) {
  const Bytes wire = key512().pub.serialize_padded(1024);
  EXPECT_EQ(wire.size(), 1024u);
  auto back = RsaPublicKey::deserialize(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, key512().pub);
}

TEST(RsaPublicKey, DeserializeGarbageFails) {
  EXPECT_FALSE(RsaPublicKey::deserialize(Bytes{1, 2, 3}).has_value());
  EXPECT_FALSE(RsaPublicKey::deserialize(Bytes{}).has_value());
}

TEST(RsaPublicKey, EvenModulusFromTheWireRejected) {
  // A hostile peer's key with an even n would make Montgomery arithmetic
  // compute wrong results; it must not parse. n - 1 of a real key is even
  // and otherwise well formed.
  RsaPublicKey even = key512().pub;
  even.n = even.n - BigInt(1);
  ASSERT_FALSE(even.n.is_odd());
  EXPECT_FALSE(RsaPublicKey::deserialize(even.serialize()).has_value());
  EXPECT_FALSE(RsaPublicKey::deserialize(even.serialize_padded(1024)).has_value());
  // The odd original still parses.
  EXPECT_TRUE(RsaPublicKey::deserialize(key512().pub.serialize()).has_value());
}

TEST(RsaPublicKey, FingerprintStableAndDistinct) {
  EXPECT_EQ(key512().pub.fingerprint(), key512().pub.fingerprint());
  EXPECT_NE(key512().pub.fingerprint(), key1024().pub.fingerprint());
}

TEST(RsaEncrypt, RoundTrip1024) {
  Drbg d(13);
  const Bytes msg(64, 0x5c);
  const Bytes ct = rsa_encrypt(key1024().pub, msg, d);
  ASSERT_EQ(ct.size(), 128u);
  auto pt = rsa_decrypt(key1024(), ct);
  ASSERT_TRUE(pt.has_value());
  EXPECT_EQ(*pt, msg);
}

}  // namespace
}  // namespace whisper::crypto
