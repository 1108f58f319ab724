// Arbitrary-precision unsigned integers, sized for RSA (512..4096 bits).
//
// Representation: little-endian vector of 64-bit limbs, normalized so the
// most significant limb is non-zero (zero is the empty vector). Intermediate
// arithmetic uses unsigned __int128. Modular exponentiation uses Montgomery
// multiplication (CIOS), which requires an odd modulus — always the case for
// RSA moduli and Miller-Rabin candidates. A general Knuth-D division is
// provided for everything else.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"

namespace whisper::crypto {

class BigInt {
 public:
  BigInt() = default;
  BigInt(std::uint64_t v);  // NOLINT(google-explicit-constructor): numeric literal convenience

  /// Big-endian byte import/export (network order, as used on the wire).
  static BigInt from_bytes(BytesView be);
  Bytes to_bytes() const;
  /// Fixed-width big-endian export, left-padded with zeros. Value must fit.
  Bytes to_bytes_padded(std::size_t width) const;

  static BigInt from_hex(const std::string& hex);
  std::string to_hex() const;

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  bool is_one() const { return limbs_.size() == 1 && limbs_[0] == 1; }
  std::size_t bit_length() const;
  bool bit(std::size_t i) const;

  // Comparisons.
  int compare(const BigInt& o) const;
  bool operator==(const BigInt& o) const { return compare(o) == 0; }
  bool operator!=(const BigInt& o) const { return compare(o) != 0; }
  bool operator<(const BigInt& o) const { return compare(o) < 0; }
  bool operator<=(const BigInt& o) const { return compare(o) <= 0; }
  bool operator>(const BigInt& o) const { return compare(o) > 0; }
  bool operator>=(const BigInt& o) const { return compare(o) >= 0; }

  // Arithmetic. Subtraction requires *this >= o (unsigned domain).
  BigInt operator+(const BigInt& o) const;
  BigInt operator-(const BigInt& o) const;
  BigInt operator*(const BigInt& o) const;
  BigInt operator<<(std::size_t bits) const;
  BigInt operator>>(std::size_t bits) const;

  /// (quotient, remainder); divisor must be non-zero.
  std::pair<BigInt, BigInt> divmod(const BigInt& divisor) const;
  BigInt operator/(const BigInt& o) const { return divmod(o).first; }
  BigInt operator%(const BigInt& o) const { return divmod(o).second; }

  /// Remainder modulo a single 64-bit value (fast path for prime sieving).
  std::uint64_t mod_u64(std::uint64_t m) const;

  /// (this ^ exp) mod m. m must be odd (Montgomery); asserts otherwise.
  BigInt modexp(const BigInt& exp, const BigInt& m) const;

  /// Modular inverse via binary extended gcd; returns zero if not invertible.
  BigInt modinv(const BigInt& m) const;

  static BigInt gcd(BigInt a, BigInt b);

  /// In-place product: out = a * b, reusing out's limb storage (no
  /// allocation once its capacity suffices). out must not alias a or b.
  static void mul_into(const BigInt& a, const BigInt& b, BigInt& out);

  /// In-place reduction: *this %= m. Values already below m return without
  /// touching storage, so tight multiply-reduce loops can call this
  /// unconditionally.
  void mod_assign(const BigInt& m);

  const std::vector<std::uint64_t>& limbs() const { return limbs_; }

 private:
  friend class MontgomeryCtx;

  void trim();
  static BigInt from_limbs(std::vector<std::uint64_t> limbs);

  std::vector<std::uint64_t> limbs_;
};

/// Reusable Montgomery machinery for one odd modulus.
///
/// Construction precomputes the CIOS constants (n', R^2 mod n, R mod n),
/// which cost a full-width division — by far the most expensive part of a
/// from-scratch modexp call. Callers that repeatedly exponentiate against
/// the same modulus (every RSA operation on a given key) should build one
/// context per modulus and reuse it; `RsaPublicKey::mont()` and
/// `RsaKeyPair::mont_p()/mont_q()` cache exactly that.
///
/// modexp() uses fixed 4-bit windows: a 15-entry power table is built per
/// call (it depends on the base), then the main loop does 4 squarings plus
/// at most one table multiply per window. modexp_pair() runs two such
/// exponentiations through the same loop in lockstep, one multiply of each
/// at a time, so the CPU overlaps two independent multiply chains. Each
/// exponentiation's limb buffers take one allocation, and the CIOS
/// accumulator lives on the stack of each multiplication. At 4 limbs (the
/// CRT halves of a 512-bit key) the multiply is a fixed-width kernel,
/// BMI2/ADX assembly where the CPU has both (crypto/montmul.hpp); every
/// other width runs a loop over the run-time width. Results are
/// bit-identical to the square-and-multiply path: both compute plain
/// (base ^ exp) mod n.
///
/// Immutable after construction: a const context holds no mutable state,
/// so one context may be used from any number of threads at once (copies
/// of a warmed key share theirs, and nodes that borrow one pooled key can
/// run on different shard threads).
class MontgomeryCtx {
 public:
  /// Widest modulus accepted: 8192 bits, the kMaxKeyComponentBytes wire cap.
  static constexpr std::size_t kMaxLimbs = 128;

  /// `modulus` must be odd and non-zero; one wider than kMaxLimbs limbs
  /// throws std::invalid_argument.
  explicit MontgomeryCtx(const BigInt& modulus);

  const BigInt& modulus() const { return modulus_; }
  std::size_t limb_count() const { return n_.size(); }

  /// (base ^ exp) mod modulus. Fixed-window for large exponents, plain
  /// left-to-right binary for short ones (e.g. e = 65537), where building
  /// the window table would cost more than it saves.
  BigInt modexp(const BigInt& base, const BigInt& exp) const;

  /// {p.modexp(base, exp_p), q.modexp(base, exp_q)}, the two CRT halves of
  /// an RSA private op, computed in one window loop that alternates a
  /// multiply of each. Exponents short enough for the binary loop fall back
  /// to two modexp() calls.
  static std::pair<BigInt, BigInt> modexp_pair(const BigInt& base, const MontgomeryCtx& p,
                                               const BigInt& exp_p, const MontgomeryCtx& q,
                                               const BigInt& exp_q);

 private:
  struct Chain;  // one exponentiation in flight

  /// Montgomery multiplication: out = a*b*R^{-1} mod n on raw k-limb
  /// buffers. out may alias a or b (all reads of a/b happen before out is
  /// written).
  void mul(const std::uint64_t* a, const std::uint64_t* b, std::uint64_t* out) const;

  /// The fixed-window loop over N chains at once.
  template <std::size_t N>
  static void run_windows(Chain* chains);

  BigInt modulus_;
  std::vector<std::uint64_t> n_;         // modulus limbs
  std::uint64_t n_prime_ = 0;            // -n^{-1} mod 2^64
  std::vector<std::uint64_t> r2_;        // R^2 mod n, R = 2^(64k)
  std::vector<std::uint64_t> one_mont_;  // R mod n = Montgomery form of 1
};

}  // namespace whisper::crypto
