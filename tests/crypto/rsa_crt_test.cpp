// Crypto fast-path equivalence: the CRT private-op and the cached
// fixed-window Montgomery exponentiation must be bit-identical to the plain
// implementations they replaced, across random keys, messages and operand
// shapes. A fast path that is ever wrong is worse than no fast path.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "crypto/bigint.hpp"
#include "crypto/rsa.hpp"

namespace whisper::crypto {
namespace {

// Strip the CRT material: private ops on the result take the plain
// single-exponentiation path.
RsaKeyPair without_crt(const RsaKeyPair& key) { return RsaKeyPair{key.pub, key.d}; }

// --- CRT private ops vs the plain path. ---

class CrtEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CrtEquivalence, GenerateFillsConsistentCrtMaterial) {
  Drbg d(3100 + GetParam());
  const RsaKeyPair key = RsaKeyPair::generate(GetParam(), d);
  ASSERT_TRUE(key.has_crt());
  EXPECT_EQ(key.p * key.q, key.pub.n);
  EXPECT_EQ(key.dp, key.d % (key.p - BigInt{1}));
  EXPECT_EQ(key.dq, key.d % (key.q - BigInt{1}));
  EXPECT_EQ((key.qinv * key.q) % key.p, BigInt{1});
}

TEST_P(CrtEquivalence, PrivateOpMatchesPlainOnRandomInputs) {
  Drbg d(3200 + GetParam());
  const RsaKeyPair key = RsaKeyPair::generate(GetParam(), d);
  const RsaKeyPair plain = without_crt(key);
  ASSERT_FALSE(plain.has_crt());
  for (int i = 0; i < 8; ++i) {
    const BigInt c = BigInt::from_bytes(d.bytes(GetParam() / 8)) % key.pub.n;
    EXPECT_EQ(rsa_private_op(key, c), rsa_private_op(plain, c)) << "input " << i;
  }
}

TEST_P(CrtEquivalence, DecryptByteIdenticalToPlain) {
  Drbg d(3300 + GetParam());
  const RsaKeyPair key = RsaKeyPair::generate(GetParam(), d);
  const RsaKeyPair plain = without_crt(key);
  for (int i = 0; i < 5; ++i) {
    Bytes msg(1 + static_cast<std::size_t>(d.below(key.pub.max_message())), 0);
    d.fill(msg.data(), msg.size());
    const Bytes ct = rsa_encrypt(key.pub, msg, d);
    const auto fast = rsa_decrypt(key, ct);
    const auto slow = rsa_decrypt(plain, ct);
    ASSERT_TRUE(fast.has_value());
    ASSERT_TRUE(slow.has_value());
    EXPECT_EQ(*fast, *slow);
    EXPECT_EQ(*fast, msg);
  }
}

TEST_P(CrtEquivalence, SignByteIdenticalToPlain) {
  Drbg d(3400 + GetParam());
  const RsaKeyPair key = RsaKeyPair::generate(GetParam(), d);
  const RsaKeyPair plain = without_crt(key);
  for (int i = 0; i < 5; ++i) {
    const Bytes msg = d.bytes(1 + static_cast<std::size_t>(d.below(200)));
    const Bytes fast = rsa_sign(key, msg);
    EXPECT_EQ(fast, rsa_sign(plain, msg));
    EXPECT_TRUE(rsa_verify(key.pub, msg, fast));
  }
}

TEST_P(CrtEquivalence, EdgeInputsMatchPlain) {
  Drbg d(3500 + GetParam());
  const RsaKeyPair key = RsaKeyPair::generate(GetParam(), d);
  const RsaKeyPair plain = without_crt(key);
  // 0, 1, and values congruent to 0 mod one prime (not coprime to n).
  for (const BigInt& c : {BigInt{0}, BigInt{1}, key.p, key.q, key.pub.n - BigInt{1}}) {
    EXPECT_EQ(rsa_private_op(key, c), rsa_private_op(plain, c));
  }
}

INSTANTIATE_TEST_SUITE_P(KeySizes, CrtEquivalence, ::testing::Values(512u, 768u));

// --- Cached public-key context: operations survive a wire round-trip. ---

TEST(MontCache, DeserializedKeyComputesIdenticalCiphertextChecks) {
  Drbg d(3600);
  const RsaKeyPair key = RsaKeyPair::generate(512, d);
  const Bytes msg = to_bytes("cache invalidation");
  const Bytes sig = rsa_sign(key, msg);
  ASSERT_TRUE(rsa_verify(key.pub, msg, sig));  // warms key.pub's cache

  const auto wire = RsaPublicKey::deserialize(key.pub.serialize());
  ASSERT_TRUE(wire.has_value());
  EXPECT_FALSE(wire->mont_cache);  // deserialize always starts cold
  EXPECT_TRUE(rsa_verify(*wire, msg, sig));
  EXPECT_TRUE(wire->mont_cache);  // first op built it

  // Copies made after warm-up share the context rather than rebuilding.
  const RsaPublicKey copy = key.pub;
  EXPECT_EQ(copy.mont_cache.get(), key.pub.mont_cache.get());
}

// --- Fixed-window Montgomery modexp vs a square-and-multiply reference. ---

// Textbook left-to-right square-and-multiply on top of divmod only; slow
// but independent of the Montgomery machinery under test.
BigInt reference_modexp(const BigInt& base, const BigInt& exp, const BigInt& m) {
  if (m.is_one()) return BigInt{};
  BigInt acc{1};
  const BigInt b = base % m;
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    acc = (acc * acc) % m;
    if (exp.bit(i)) acc = (acc * b) % m;
  }
  return acc;
}

TEST(MontgomeryCtx, MatchesReferenceAcrossShapes) {
  Drbg d(3700);
  // 256 bits (4 limbs, the CRT half of a 512-bit key) takes the fixed-width
  // multiply; every other width, 320 and 2048 bits included, the run-time
  // one.
  for (const std::size_t bits : {64u, 192u, 256u, 320u, 512u, 1024u, 2048u}) {
    BigInt m = BigInt::from_bytes(d.bytes(bits / 8));
    if (!m.is_odd()) m = m + BigInt{1};
    const MontgomeryCtx ctx(m);
    ASSERT_EQ(ctx.limb_count(), bits / 64);
    for (int i = 0; i < 6; ++i) {
      // Bases both below and above the modulus; exponents from tiny (binary
      // path) through full-width (windowed path).
      const BigInt base = BigInt::from_bytes(d.bytes(bits / 8 + 8));
      const BigInt exp = BigInt::from_bytes(d.bytes(1 + (bits / 8) * static_cast<std::size_t>(i) / 5));
      EXPECT_EQ(ctx.modexp(base, exp), reference_modexp(base, exp, m))
          << bits << " bits, round " << i;
    }
  }
}

TEST(MontgomeryCtx, ShortExponentBoundary) {
  // Exponents straddling the 20-bit binary/windowed cutover, including the
  // RSA public exponent.
  Drbg d(3800);
  BigInt m = BigInt::from_bytes(d.bytes(64));
  if (!m.is_odd()) m = m + BigInt{1};
  const MontgomeryCtx ctx(m);
  const BigInt base = BigInt::from_bytes(d.bytes(64));
  for (const std::uint64_t e : {1ull, 2ull, 3ull, 65537ull, (1ull << 20) - 1, 1ull << 20,
                                (1ull << 20) + 1, (1ull << 40) + 12345}) {
    EXPECT_EQ(ctx.modexp(base, BigInt{e}), reference_modexp(base, BigInt{e}, m)) << e;
  }
}

TEST(MontgomeryCtx, DegenerateOperands) {
  Drbg d(3900);
  BigInt m = BigInt::from_bytes(d.bytes(32));
  if (!m.is_odd()) m = m + BigInt{1};
  const MontgomeryCtx ctx(m);
  EXPECT_EQ(ctx.modexp(BigInt{0}, BigInt{5}), BigInt{0});
  EXPECT_EQ(ctx.modexp(BigInt{7}, BigInt{0}), BigInt{1});
  EXPECT_EQ(ctx.modexp(BigInt{0}, BigInt{0}), BigInt{1});  // 0^0 == 1 here, as before
  EXPECT_EQ(ctx.modexp(m, BigInt{3}), BigInt{0});          // base ≡ 0 (mod m)
  EXPECT_TRUE(MontgomeryCtx(BigInt{1}).modexp(BigInt{5}, BigInt{5}).is_zero());
  EXPECT_EQ(ctx.modulus(), m);
}

TEST(MontgomeryCtx, AgreesWithBigIntModexp) {
  // BigInt::modexp routes through a fresh context; a cached context must
  // give the very same bytes (this is the determinism guarantee the golden
  // telemetry test leans on).
  Drbg d(4000);
  BigInt m = BigInt::from_bytes(d.bytes(64));
  if (!m.is_odd()) m = m + BigInt{1};
  const MontgomeryCtx ctx(m);
  for (int i = 0; i < 4; ++i) {
    const BigInt base = BigInt::from_bytes(d.bytes(64));
    const BigInt exp = BigInt::from_bytes(d.bytes(64));
    EXPECT_EQ(ctx.modexp(base, exp), base.modexp(exp, m));
  }
}

TEST(MontgomeryCtx, SharedAcrossThreads) {
  // Copies of a warmed key share its contexts, and nodes that borrow one
  // pooled key can run on different shard threads: concurrent private ops
  // through one context, via the same key object or via copies, must each
  // get their own plaintext and signature back. Each op runs both CRT
  // halves in one window loop.
  Drbg d(4300);
  const RsaKeyPair key = RsaKeyPair::generate(512, d);
  key.warm_cache();
  std::vector<Bytes> msgs;
  std::vector<Bytes> cts;
  std::vector<Bytes> sigs;
  for (std::size_t i = 0; i < 64; ++i) {
    msgs.push_back(d.bytes(8 + i % 40));
    cts.push_back(rsa_encrypt(key.pub, msgs.back(), d));
    sigs.push_back(rsa_sign(key, msgs.back()));
  }
  for (const bool copies : {false, true}) {
    const RsaKeyPair copy_a = key;
    const RsaKeyPair copy_b = key;
    ASSERT_EQ(copy_a.mont_p_cache.get(), key.mont_p_cache.get());
    std::atomic<int> wrong{0};
    auto worker = [&](const RsaKeyPair* k, std::size_t offset) {
      for (std::size_t i = 0; i < 2000; ++i) {
        const std::size_t j = (i + offset) % cts.size();
        const auto pt = rsa_decrypt(*k, cts[j]);
        if (!pt || *pt != msgs[j]) ++wrong;
        if (i % 4 == 0 && rsa_sign(*k, msgs[j]) != sigs[j]) ++wrong;
      }
    };
    std::thread a(worker, copies ? &copy_a : &key, 0);
    std::thread b(worker, copies ? &copy_b : &key, 17);
    a.join();
    b.join();
    EXPECT_EQ(wrong.load(), 0) << (copies ? "copies of one key" : "one key object");
  }
}

// --- In-place entry points. ---

TEST(BigIntInPlace, MulIntoMatchesOperatorStar) {
  Drbg d(4100);
  BigInt out;
  for (int i = 0; i < 8; ++i) {
    const BigInt a = BigInt::from_bytes(d.bytes(1 + static_cast<std::size_t>(d.below(64))));
    const BigInt b = BigInt::from_bytes(d.bytes(1 + static_cast<std::size_t>(d.below(64))));
    BigInt::mul_into(a, b, out);
    EXPECT_EQ(out, a * b);
  }
  BigInt::mul_into(BigInt{0}, BigInt{5}, out);
  EXPECT_TRUE(out.is_zero());
}

TEST(BigIntInPlace, ModAssignMatchesOperatorPercent) {
  Drbg d(4200);
  for (int i = 0; i < 8; ++i) {
    const BigInt m = BigInt::from_bytes(d.bytes(16)) + BigInt{1};
    BigInt v = BigInt::from_bytes(d.bytes(1 + static_cast<std::size_t>(d.below(48))));
    const BigInt expected = v % m;
    v.mod_assign(m);
    EXPECT_EQ(v, expected);
  }
  // Below-modulus fast path leaves the value untouched.
  BigInt small{7};
  small.mod_assign(BigInt{1000});
  EXPECT_EQ(small, BigInt{7});
}

}  // namespace
}  // namespace whisper::crypto
