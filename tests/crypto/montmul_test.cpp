// The 4-limb Montgomery kernels and the two-chain window loop.
//
// mul4 is the kernel MontgomeryCtx runs on this CPU, the BMI2/ADX one where
// the CPU has both; mul4_portable is the CIOS reference and the fallback
// everywhere else. Both must give the same limbs for every operand, and the
// portable one runs here on any host. modexp_pair must give what two modexp
// calls give, whatever the two exponents' window counts.
#include "crypto/montmul.hpp"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "common/rng.hpp"
#include "crypto/bigint.hpp"
#include "crypto/random.hpp"

namespace whisper::crypto {
namespace {

using u64 = std::uint64_t;
using Limbs = std::array<u64, 4>;
using Kernel = void (*)(const u64*, const u64*, const u64*, u64, u64*);

Limbs limbs_of(const BigInt& v) {
  Limbs out{};
  std::copy(v.limbs().begin(), v.limbs().end(), out.begin());
  return out;
}

BigInt big(const Limbs& l) {
  BigInt v;
  for (std::size_t i = l.size(); i-- > 0;) v = (v << 64) + BigInt{l[i]};
  return v;
}

u64 neg_inverse(u64 n0) {
  u64 inv = n0;
  for (int i = 0; i < 5; ++i) inv *= 2 - n0 * inv;
  return ~inv + 1;
}

// Both kernels: the one this CPU dispatches to (the BMI2/ADX one where the
// CPU has both) and the portable one.
const std::pair<const char*, Kernel> kKernels[] = {{"mul4", montmul::mul4},
                                                   {"mul4_portable", montmul::mul4_portable}};

// A 4-limb modulus: odd, top limb non-zero.
Limbs random_modulus(Rng& rng) {
  Limbs n{};
  for (u64& l : n) l = rng.next_u64();
  n[0] |= 1;
  if (n[3] == 0) n[3] = 1;
  return n;
}

// Below n: the top limb is drawn below n's.
Limbs random_below(Rng& rng, const Limbs& n) {
  return {rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_below(n[3])};
}

// What the CIOS loop computes before its final subtraction:
// t = (a*b + m*n) / 2^256 with m = a*b*n' mod 2^256. The kernels subtract
// n once when t >= n.
bool needs_final_subtraction(const Limbs& a, const Limbs& b, const Limbs& n) {
  const BigInt r = BigInt{1} << 256;
  const BigInt nn = big(n);
  const BigInt n_prime = r - nn.modinv(r);
  const BigInt ab = big(a) * big(b);
  const BigInt m = (ab * n_prime) % r;
  return (ab + m * nn) >> 256 >= nn;
}

// Runs each kernel on (a, b) and checks it against the portable result and,
// through big integers, against a*b*2^-256 mod n.
void expect_kernels_agree(const Limbs& a, const Limbs& b, const Limbs& n, bool check_value) {
  const u64 np = neg_inverse(n[0]);
  Limbs want{};
  montmul::mul4_portable(a.data(), b.data(), n.data(), np, want.data());
  for (const auto& [name, kernel] : kKernels) {
    Limbs got{};
    kernel(a.data(), b.data(), n.data(), np, got.data());
    ASSERT_EQ(got, want) << name << " a=" << big(a).to_hex() << " b=" << big(b).to_hex()
                         << " n=" << big(n).to_hex();
  }
  if (check_value) {
    const BigInt nn = big(n);
    ASSERT_LT(big(want), nn);
    // want * 2^256 == a * b (mod n)
    ASSERT_EQ((big(want) << 256) % nn, (big(a) * big(b)) % nn);
  }
}

TEST(MontMul4, KernelsAgreeOnRandomOperands) {
  Rng rng(0x3041);
  std::size_t pairs = 0;
  for (int m = 0; m < 200; ++m) {
    const Limbs n = random_modulus(rng);
    for (int i = 0; i < 500; ++i, ++pairs) {
      expect_kernels_agree(random_below(rng, n), random_below(rng, n), n, i < 4);
    }
  }
  EXPECT_GE(pairs, 100'000u);
}

TEST(MontMul4, KernelsAgreeOnEdgeOperands) {
  Rng rng(0x3042);
  const u64 kMax = ~u64{0};
  std::vector<Limbs> moduli = {
      {1, 0, 0, 1},                 // top limb 1
      {kMax, kMax, kMax, 1},        // top limb 1, all low bits set
      {kMax, kMax, kMax, kMax},     // 2^256 - 1
      {kMax - 188, kMax, kMax, kMax},  // 2^256 - 189, prime
      {0xb, 0, 0, kMax},            // top limb 2^64 - 1, sparse
  };
  for (int i = 0; i < 4; ++i) moduli.push_back(random_modulus(rng));
  std::size_t subtractions = 0;
  for (const Limbs& n : moduli) {
    const BigInt nn = big(n);
    std::vector<Limbs> operands = {Limbs{0, 0, 0, 0}, Limbs{1, 0, 0, 0},
                                   limbs_of(nn - BigInt{1}), limbs_of(nn - BigInt{2}),
                                   limbs_of((BigInt{1} << 256) % nn)};  // R mod n
    for (int i = 0; i < 12; ++i) operands.push_back(random_below(rng, n));
    for (const Limbs& a : operands) {
      for (const Limbs& b : operands) {
        expect_kernels_agree(a, b, n, true);
        if (needs_final_subtraction(a, b, n)) ++subtractions;
      }
    }
  }
  // The edge set must reach the branch-free subtraction's taken side.
  EXPECT_GT(subtractions, 20u);
}

TEST(MontMul4, OutputMayAliasEitherInput) {
  Rng rng(0x3043);
  for (int m = 0; m < 50; ++m) {
    const Limbs n = random_modulus(rng);
    const u64 np = neg_inverse(n[0]);
    const Limbs a = random_below(rng, n);
    const Limbs b = random_below(rng, n);
    Limbs ab{}, aa{};
    montmul::mul4_portable(a.data(), b.data(), n.data(), np, ab.data());
    montmul::mul4_portable(a.data(), a.data(), n.data(), np, aa.data());
    for (const auto& [name, kernel] : kKernels) {
      Limbs x = a;
      kernel(x.data(), b.data(), n.data(), np, x.data());  // out == a
      EXPECT_EQ(x, ab) << name << " out aliases a";
      Limbs y = b;
      kernel(a.data(), y.data(), n.data(), np, y.data());  // out == b
      EXPECT_EQ(y, ab) << name << " out aliases b";
      Limbs z = a;
      kernel(z.data(), z.data(), n.data(), np, z.data());  // out == a == b
      EXPECT_EQ(z, aa) << name << " out aliases a and b";
    }
  }
}

// --- Two chains in one window loop vs two exponentiations. ---

BigInt odd_modulus(Drbg& d, std::size_t bytes) {
  BigInt m = BigInt::from_bytes(d.bytes(bytes));
  if (!m.is_odd()) m = m + BigInt{1};
  return m;
}

TEST(MontgomeryCtx, ModexpPairMatchesTwoModexps) {
  Drbg d(4400);
  // (p bytes, q bytes): both 4 limbs, as in a 512-bit key; 4 and 5 limbs;
  // both run-time width.
  for (const auto& [pb, qb] : {std::pair<std::size_t, std::size_t>{32, 32}, {32, 40}, {64, 64}}) {
    const MontgomeryCtx p(odd_modulus(d, pb));
    const MontgomeryCtx q(odd_modulus(d, qb));
    const BigInt p_exp = BigInt::from_bytes(d.bytes(pb));
    const BigInt exponents[] = {
        BigInt{0},
        BigInt{1},
        BigInt{65537},                          // binary loop
        BigInt::from_bytes(d.bytes(3)),         // 24 bits: 6 windows
        BigInt::from_bytes(d.bytes(pb / 2)),    // half the windows
        BigInt::from_bytes(d.bytes(pb - 1)),    // one byte short
        p_exp,                                  // the same windows as exp_p
    };
    for (const BigInt& exp_q : exponents) {
      for (const BigInt& base : {BigInt::from_bytes(d.bytes(qb + 8)), BigInt{0}, BigInt{1}}) {
        const auto [mp, mq] = MontgomeryCtx::modexp_pair(base, p, p_exp, q, exp_q);
        EXPECT_EQ(mp, p.modexp(base, p_exp)) << pb << "/" << qb << " exp_q " << exp_q.to_hex();
        EXPECT_EQ(mq, q.modexp(base, exp_q)) << pb << "/" << qb << " exp_q " << exp_q.to_hex();
        // The exponents the other way round: the first chain is the shorter.
        const auto [nq, np] = MontgomeryCtx::modexp_pair(base, q, exp_q, p, p_exp);
        EXPECT_EQ(nq, mq);
        EXPECT_EQ(np, mp);
      }
    }
  }
}

TEST(MontgomeryCtx, ModexpPairModulusOne) {
  Drbg d(4500);
  const MontgomeryCtx one(BigInt{1});
  const MontgomeryCtx q(odd_modulus(d, 32));
  const BigInt base = BigInt::from_bytes(d.bytes(40));
  const BigInt exp = BigInt::from_bytes(d.bytes(32));
  const auto [a, b] = MontgomeryCtx::modexp_pair(base, one, exp, q, exp);
  EXPECT_TRUE(a.is_zero());
  EXPECT_EQ(b, q.modexp(base, exp));
}

}  // namespace
}  // namespace whisper::crypto
