#include "crypto/aes128.hpp"

#include <gtest/gtest.h>

#include "common/bytes.hpp"
#include "common/rng.hpp"

namespace whisper::crypto {
namespace {

AesKey key_from_hex(const std::string& hex) {
  Bytes b = from_hex(hex);
  AesKey k{};
  std::copy(b.begin(), b.end(), k.begin());
  return k;
}

AesBlock block_from_hex(const std::string& hex) {
  Bytes b = from_hex(hex);
  AesBlock blk{};
  std::copy(b.begin(), b.end(), blk.begin());
  return blk;
}

// CTR over the scalar encrypt_block, with its own counter arithmetic: the
// reference both aes128_ctr (AES-NI where the CPU has it) and the portable
// fallback must match byte for byte.
Bytes reference_ctr(const AesKey& key, AesBlock counter, const Bytes& data) {
  const Aes128 cipher(key);
  Bytes out(data.size());
  std::uint8_t keystream[16];
  for (std::size_t off = 0; off < data.size(); off += 16) {
    cipher.encrypt_block(counter.data(), keystream);
    for (std::size_t i = 0; i < 16 && off + i < data.size(); ++i) {
      out[off + i] = static_cast<std::uint8_t>(data[off + i] ^ keystream[i]);
    }
    std::size_t carry = 16;
    while (carry-- > 0 && ++counter[carry] == 0) {
    }
  }
  return out;
}

// FIPS-197 Appendix C.1 vector.
TEST(Aes128, Fips197KnownAnswer) {
  const AesKey key = key_from_hex("000102030405060708090a0b0c0d0e0f");
  const Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  const Aes128 cipher(key);
  std::uint8_t ct[16];
  cipher.encrypt_block(pt.data(), ct);
  EXPECT_EQ(to_hex(BytesView(ct, 16)), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

// NIST SP 800-38A F.1.1 (ECB-AES128 block 1).
TEST(Aes128, Sp800_38aKnownAnswer) {
  const AesKey key = key_from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Bytes pt = from_hex("6bc1bee22e409f96e93d7e117393172a");
  const Aes128 cipher(key);
  std::uint8_t ct[16];
  cipher.encrypt_block(pt.data(), ct);
  EXPECT_EQ(to_hex(BytesView(ct, 16)), "3ad77bb40d7a3660a89ecaf32466ef97");
}

// NIST SP 800-38A F.5.1 CTR-AES128.
TEST(Aes128Ctr, Sp800_38aKnownAnswer) {
  const AesKey key = key_from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const AesBlock iv = block_from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  const Bytes pt = from_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51");
  const std::string want =
      "874d6191b620e3261bef6864990db6ce"
      "9806f66b7970fdff8617187bb9fffdff";
  EXPECT_EQ(to_hex(aes128_ctr(key, iv, pt)), want);
  EXPECT_EQ(to_hex(aes128_ctr_portable(key, iv, pt)), want);
}

TEST(Aes128Ctr, RoundTripVariousLengths) {
  Rng rng(2);
  for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 31u, 32u, 100u, 1000u}) {
    AesKey key;
    AesBlock iv;
    rng.fill_bytes(key.data(), key.size());
    rng.fill_bytes(iv.data(), iv.size());
    Bytes pt(len);
    rng.fill_bytes(pt.data(), len);
    const Bytes ct = aes128_ctr(key, iv, pt);
    EXPECT_EQ(ct.size(), len);
    EXPECT_EQ(aes128_ctr(key, iv, ct), pt) << "len " << len;
  }
}

TEST(Aes128Ctr, CounterIncrementCrossesByteBoundary) {
  // IV ending in 0xff forces a carry into the next counter byte.
  const AesKey key = key_from_hex("000102030405060708090a0b0c0d0e0f");
  const AesBlock iv = block_from_hex("000000000000000000000000000000ff");
  const Bytes pt(48, 0);
  const Bytes ct = aes128_ctr(key, iv, pt);
  EXPECT_EQ(aes128_ctr(key, iv, ct), pt);
  // Keystream blocks must differ (counter actually advanced).
  EXPECT_NE(Bytes(ct.begin(), ct.begin() + 16), Bytes(ct.begin() + 16, ct.begin() + 32));
}

TEST(Aes128Ctr, MatchesScalarReferenceAtEveryLength) {
  Rng rng(3);
  for (std::size_t len = 0; len <= 600; ++len) {
    AesKey key;
    AesBlock iv;
    rng.fill_bytes(key.data(), key.size());
    rng.fill_bytes(iv.data(), iv.size());
    Bytes pt(len);
    rng.fill_bytes(pt.data(), len);
    const Bytes want = reference_ctr(key, iv, pt);
    ASSERT_EQ(aes128_ctr(key, iv, pt), want) << "len " << len;
    ASSERT_EQ(aes128_ctr_portable(key, iv, pt), want) << "len " << len;
  }
}

TEST(Aes128Ctr, CounterWrapsAllSixteenBytes) {
  // From an all-0xff IV the second counter block is all zeros: the carry
  // runs through every byte and off the top.
  Rng rng(4);
  AesKey key;
  rng.fill_bytes(key.data(), key.size());
  AesBlock iv;
  iv.fill(0xff);
  Bytes pt(200);
  rng.fill_bytes(pt.data(), pt.size());
  EXPECT_EQ(aes128_ctr(key, iv, pt), reference_ctr(key, iv, pt));
  EXPECT_EQ(aes128_ctr_portable(key, iv, pt), reference_ctr(key, iv, pt));

  const Bytes ct = aes128_ctr(key, iv, Bytes(32, 0));
  const std::uint8_t zero[16] = {};
  std::uint8_t keystream[16];
  Aes128(key).encrypt_block(zero, keystream);
  EXPECT_EQ(Bytes(ct.begin() + 16, ct.end()), Bytes(keystream, keystream + 16));
}

TEST(Aes128Ctr, DifferentIvDifferentCiphertext) {
  const AesKey key = key_from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Bytes pt(32, 0x42);
  const Bytes c1 = aes128_ctr(key, block_from_hex("00000000000000000000000000000000"), pt);
  const Bytes c2 = aes128_ctr(key, block_from_hex("00000000000000000000000000000001"), pt);
  EXPECT_NE(c1, c2);
}

TEST(Aes128Ctr, DifferentKeyDifferentCiphertext) {
  const AesBlock iv{};
  const Bytes pt(32, 0x42);
  const Bytes c1 = aes128_ctr(key_from_hex("2b7e151628aed2a6abf7158809cf4f3c"), iv, pt);
  const Bytes c2 = aes128_ctr(key_from_hex("2b7e151628aed2a6abf7158809cf4f3d"), iv, pt);
  EXPECT_NE(c1, c2);
}

}  // namespace
}  // namespace whisper::crypto
