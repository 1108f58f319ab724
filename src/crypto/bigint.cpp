#include "crypto/bigint.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace whisper::crypto {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

BigInt::BigInt(u64 v) {
  if (v) limbs_.push_back(v);
}

void BigInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigInt BigInt::from_limbs(std::vector<u64> limbs) {
  BigInt r;
  r.limbs_ = std::move(limbs);
  r.trim();
  return r;
}

BigInt BigInt::from_bytes(BytesView be) {
  BigInt r;
  r.limbs_.assign((be.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < be.size(); ++i) {
    // be[i] is the (size-1-i)-th byte from the least significant end.
    const std::size_t byte_pos = be.size() - 1 - i;
    r.limbs_[byte_pos / 8] |= static_cast<u64>(be[i]) << (8 * (byte_pos % 8));
  }
  r.trim();
  return r;
}

Bytes BigInt::to_bytes() const {
  if (limbs_.empty()) return {0};
  const std::size_t bytes = (bit_length() + 7) / 8;
  return to_bytes_padded(bytes);
}

Bytes BigInt::to_bytes_padded(std::size_t width) const {
  Bytes out(width, 0);
  for (std::size_t byte_pos = 0; byte_pos < width; ++byte_pos) {
    const std::size_t limb = byte_pos / 8;
    if (limb >= limbs_.size()) break;
    out[width - 1 - byte_pos] = static_cast<std::uint8_t>(limbs_[limb] >> (8 * (byte_pos % 8)));
  }
  // Verify the value fits (higher bytes must be zero).
  assert(bit_length() <= width * 8);
  return out;
}

BigInt BigInt::from_hex(const std::string& hex) {
  std::string h = hex;
  if (h.size() % 2) h.insert(h.begin(), '0');
  return from_bytes(whisper::from_hex(h));
}

std::string BigInt::to_hex() const {
  Bytes b = to_bytes();
  std::string h = whisper::to_hex(b);
  // Strip leading zero nibble pairs but keep at least "0".
  std::size_t i = 0;
  while (i + 1 < h.size() && h[i] == '0') ++i;
  return h.substr(i);
}

std::size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  const u64 top = limbs_.back();
  return (limbs_.size() - 1) * 64 + (64 - static_cast<std::size_t>(__builtin_clzll(top)));
}

bool BigInt::bit(std::size_t i) const {
  const std::size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1;
}

int BigInt::compare(const BigInt& o) const {
  if (limbs_.size() != o.limbs_.size()) return limbs_.size() < o.limbs_.size() ? -1 : 1;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != o.limbs_[i]) return limbs_[i] < o.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigInt BigInt::operator+(const BigInt& o) const {
  std::vector<u64> out(std::max(limbs_.size(), o.limbs_.size()) + 1, 0);
  u128 carry = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    u128 sum = carry;
    if (i < limbs_.size()) sum += limbs_[i];
    if (i < o.limbs_.size()) sum += o.limbs_[i];
    out[i] = static_cast<u64>(sum);
    carry = sum >> 64;
  }
  return from_limbs(std::move(out));
}

BigInt BigInt::operator-(const BigInt& o) const {
  assert(compare(o) >= 0);
  std::vector<u64> out(limbs_.size(), 0);
  u64 borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const u64 rhs = i < o.limbs_.size() ? o.limbs_[i] : 0;
    const u64 lhs = limbs_[i];
    u64 diff = lhs - rhs;
    const u64 b1 = lhs < rhs ? 1 : 0;
    const u64 diff2 = diff - borrow;
    const u64 b2 = diff < borrow ? 1 : 0;
    out[i] = diff2;
    borrow = b1 | b2;
  }
  assert(borrow == 0);
  return from_limbs(std::move(out));
}

BigInt BigInt::operator*(const BigInt& o) const {
  BigInt out;
  mul_into(*this, o, out);
  return out;
}

void BigInt::mul_into(const BigInt& a, const BigInt& b, BigInt& out) {
  assert(&out != &a && &out != &b);
  if (a.limbs_.empty() || b.limbs_.empty()) {
    out.limbs_.clear();
    return;
  }
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  std::vector<u64>& prod = out.limbs_;
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    u128 carry = 0;
    const u64 ai = a.limbs_[i];
    for (std::size_t j = 0; j < b.limbs_.size(); ++j) {
      u128 cur = static_cast<u128>(ai) * b.limbs_[j] + prod[i + j] + carry;
      prod[i + j] = static_cast<u64>(cur);
      carry = cur >> 64;
    }
    std::size_t k = i + b.limbs_.size();
    while (carry) {
      u128 cur = static_cast<u128>(prod[k]) + carry;
      prod[k] = static_cast<u64>(cur);
      carry = cur >> 64;
      ++k;
    }
  }
  out.trim();
}

void BigInt::mod_assign(const BigInt& m) {
  if (compare(m) < 0) return;
  *this = divmod(m).second;
}

BigInt BigInt::operator<<(std::size_t bits) const {
  if (limbs_.empty()) return {};
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  std::vector<u64> out(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out[i + limb_shift] |= bit_shift ? (limbs_[i] << bit_shift) : limbs_[i];
    if (bit_shift) out[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
  }
  return from_limbs(std::move(out));
}

BigInt BigInt::operator>>(std::size_t bits) const {
  const std::size_t limb_shift = bits / 64;
  if (limb_shift >= limbs_.size()) return {};
  const std::size_t bit_shift = bits % 64;
  std::vector<u64> out(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = bit_shift ? (limbs_[i + limb_shift] >> bit_shift) : limbs_[i + limb_shift];
    if (bit_shift && i + limb_shift + 1 < limbs_.size())
      out[i] |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
  }
  return from_limbs(std::move(out));
}

// Knuth TAOCP vol.2 algorithm D, base 2^64.
std::pair<BigInt, BigInt> BigInt::divmod(const BigInt& divisor) const {
  assert(!divisor.is_zero());
  if (compare(divisor) < 0) return {BigInt{}, *this};

  // Single-limb divisor fast path.
  if (divisor.limbs_.size() == 1) {
    const u64 d = divisor.limbs_[0];
    std::vector<u64> q(limbs_.size(), 0);
    u128 rem = 0;
    for (std::size_t i = limbs_.size(); i-- > 0;) {
      u128 cur = (rem << 64) | limbs_[i];
      q[i] = static_cast<u64>(cur / d);
      rem = cur % d;
    }
    return {from_limbs(std::move(q)), BigInt{static_cast<u64>(rem)}};
  }

  // Normalize: shift so divisor's top limb has its high bit set.
  const int shift = __builtin_clzll(divisor.limbs_.back());
  const BigInt u_n = *this << static_cast<std::size_t>(shift);
  const BigInt v_n = divisor << static_cast<std::size_t>(shift);
  const std::size_t n = v_n.limbs_.size();
  const std::size_t m = u_n.limbs_.size() >= n ? u_n.limbs_.size() - n : 0;

  std::vector<u64> u = u_n.limbs_;
  u.resize(u_n.limbs_.size() + 1, 0);  // u[m+n] extra limb
  const std::vector<u64>& v = v_n.limbs_;
  std::vector<u64> q(m + 1, 0);

  for (std::size_t j = m + 1; j-- > 0;) {
    // Estimate q_hat = (u[j+n]*B + u[j+n-1]) / v[n-1].
    u128 num = (static_cast<u128>(u[j + n]) << 64) | u[j + n - 1];
    u128 q_hat = num / v[n - 1];
    u128 r_hat = num % v[n - 1];
    const u128 kBase = static_cast<u128>(1) << 64;
    while (q_hat >= kBase ||
           q_hat * v[n - 2] > ((r_hat << 64) | u[j + n - 2])) {
      q_hat -= 1;
      r_hat += v[n - 1];
      if (r_hat >= kBase) break;
    }

    // Multiply-and-subtract: u[j..j+n] -= q_hat * v.
    u128 borrow = 0;
    u128 carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      u128 prod = q_hat * v[i] + carry;
      carry = prod >> 64;
      const u64 plo = static_cast<u64>(prod);
      const u64 ui = u[j + i];
      u64 diff = ui - plo;
      u64 b = ui < plo ? 1 : 0;
      const u64 diff2 = diff - static_cast<u64>(borrow);
      b |= diff < static_cast<u64>(borrow) ? 1 : 0;
      u[j + i] = diff2;
      borrow = b;
    }
    {
      // carry <= B-1 and borrow <= 1, so sub can equal B: do this in 128 bits.
      const u128 sub = carry + borrow;
      const u128 top = u[j + n];
      if (top >= sub) {
        u[j + n] = static_cast<u64>(top - sub);
        borrow = 0;
      } else {
        u[j + n] = static_cast<u64>(top + (static_cast<u128>(1) << 64) - sub);
        borrow = 1;
      }
    }

    if (borrow) {
      // q_hat was one too large; add back.
      q_hat -= 1;
      u128 c = 0;
      for (std::size_t i = 0; i < n; ++i) {
        u128 sum = static_cast<u128>(u[j + i]) + v[i] + c;
        u[j + i] = static_cast<u64>(sum);
        c = sum >> 64;
      }
      u[j + n] += static_cast<u64>(c);
    }
    q[j] = static_cast<u64>(q_hat);
  }

  u.resize(n);
  BigInt rem = from_limbs(std::move(u)) >> static_cast<std::size_t>(shift);
  return {from_limbs(std::move(q)), std::move(rem)};
}

u64 BigInt::mod_u64(u64 m) const {
  assert(m != 0);
  u128 rem = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    rem = ((rem << 64) | limbs_[i]) % m;
  }
  return static_cast<u64>(rem);
}

MontgomeryCtx::MontgomeryCtx(const BigInt& modulus) : modulus_(modulus) {
  assert(modulus.is_odd() && !modulus.is_zero());
  if (modulus.limbs_.size() > kMaxLimbs) {
    throw std::invalid_argument("MontgomeryCtx: modulus wider than kMaxLimbs");
  }
  n_ = modulus.limbs_;
  const std::size_t k = n_.size();
  // n' = -n[0]^{-1} mod 2^64, via Newton iteration.
  u64 inv = n_[0];  // correct to 3 bits for odd n[0]
  for (int i = 0; i < 5; ++i) inv *= 2 - n_[0] * inv;
  n_prime_ = ~inv + 1;  // -inv
  // R^2 mod n (one full-width division — the expensive precompute).
  BigInt r = (BigInt{1} << (64 * k)) % modulus;
  BigInt r2b;
  BigInt::mul_into(r, r, r2b);
  r2b.mod_assign(modulus);
  r2_ = r2b.limbs_;
  r2_.resize(k, 0);
  // Montgomery form of 1: mul(1, R^2) = R mod n.
  one_mont_.assign(k, 0);
  std::vector<u64> one(k, 0);
  one[0] = 1;
  mul(one.data(), r2_.data(), one_mont_.data());
}

namespace {

// CIOS Montgomery multiplication on k-limb buffers: out = a*b*R^{-1} mod n.
// kFixed > 0 fixes k at compile time so the limb loops unroll; kFixed == 0
// takes k from `width` (at most MontgomeryCtx::kMaxLimbs). The accumulator
// is a local array, so concurrent calls share nothing. out may alias a or
// b: every read of a and b happens before out is written.
template <std::size_t kFixed>
void cios_mul(const u64* a, const u64* b, const u64* n, u64 n_prime, std::size_t width,
              u64* out) {
  const std::size_t k = kFixed ? kFixed : width;
  u64 t[(kFixed ? kFixed : MontgomeryCtx::kMaxLimbs) + 2];
  std::fill(t, t + k + 2, 0);
  for (std::size_t i = 0; i < k; ++i) {
    // t += a[i] * b
    u128 carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      u128 cur = static_cast<u128>(a[i]) * b[j] + t[j] + carry;
      t[j] = static_cast<u64>(cur);
      carry = cur >> 64;
    }
    u128 cur = static_cast<u128>(t[k]) + carry;
    t[k] = static_cast<u64>(cur);
    t[k + 1] = static_cast<u64>(cur >> 64);

    // m = t[0] * n' mod 2^64; t += m * n; t >>= 64
    const u64 m = t[0] * n_prime;
    carry = 0;
    {
      u128 c0 = static_cast<u128>(m) * n[0] + t[0];
      carry = c0 >> 64;
    }
    for (std::size_t j = 1; j < k; ++j) {
      u128 c = static_cast<u128>(m) * n[j] + t[j] + carry;
      t[j - 1] = static_cast<u64>(c);
      carry = c >> 64;
    }
    u128 c = static_cast<u128>(t[k]) + carry;
    t[k - 1] = static_cast<u64>(c);
    t[k] = t[k + 1] + static_cast<u64>(c >> 64);
    t[k + 1] = 0;
  }
  // Conditional subtraction if t >= n.
  bool ge = t[k] != 0;
  if (!ge) {
    ge = true;
    for (std::size_t i = k; i-- > 0;) {
      if (t[i] != n[i]) {
        ge = t[i] > n[i];
        break;
      }
    }
  }
  if (ge) {
    u64 borrow = 0;
    for (std::size_t i = 0; i < k; ++i) {
      const u64 lhs = t[i];
      u64 diff = lhs - n[i];
      u64 b2 = lhs < n[i] ? 1 : 0;
      const u64 diff2 = diff - borrow;
      b2 |= diff < borrow ? 1 : 0;
      out[i] = diff2;
      borrow = b2;
    }
  } else {
    for (std::size_t i = 0; i < k; ++i) out[i] = t[i];
  }
}

}  // namespace

void MontgomeryCtx::mul(const u64* a, const u64* b, u64* out) const {
  // Only 4 limbs (the CRT halves of a 512-bit key) measurably gains from a
  // fixed width; at 8 limbs and up the carry chain bounds the loop.
  const std::size_t k = n_.size();
  if (k == 4) return cios_mul<4>(a, b, n_.data(), n_prime_, k, out);
  cios_mul<0>(a, b, n_.data(), n_prime_, k, out);
}

BigInt MontgomeryCtx::modexp(const BigInt& base, const BigInt& exp) const {
  if (modulus_.is_one()) return {};
  const std::size_t k = n_.size();

  // base (reduced) in Montgomery form.
  BigInt b = base;
  b.mod_assign(modulus_);
  std::vector<u64> x(k, 0);
  {
    std::vector<u64> breg = b.limbs_;
    breg.resize(k, 0);
    mul(breg.data(), r2_.data(), x.data());  // x = base * R mod n
  }

  std::vector<u64> acc = one_mont_;  // acc = 1 in Montgomery form
  std::vector<u64> tmp(k, 0);
  const std::size_t bits = exp.bit_length();

  if (bits <= 20) {
    // Short exponents (RSA public e = 65537): plain left-to-right binary;
    // a window table's 14 extra multiplies would outweigh the savings.
    for (std::size_t i = bits; i-- > 0;) {
      mul(acc.data(), acc.data(), tmp.data());
      std::swap(acc, tmp);
      if (exp.bit(i)) {
        mul(acc.data(), x.data(), tmp.data());
        std::swap(acc, tmp);
      }
    }
  } else {
    // Fixed 4-bit windows: table[w] = base^w in Montgomery form.
    std::vector<u64> table(16 * k, 0);
    std::copy(one_mont_.begin(), one_mont_.end(), table.begin());
    std::copy(x.begin(), x.end(), table.begin() + static_cast<std::ptrdiff_t>(k));
    for (std::size_t w = 2; w < 16; ++w) {
      mul(&table[(w - 1) * k], x.data(), &table[w * k]);
    }
    const std::size_t windows = (bits + 3) / 4;
    for (std::size_t w = windows; w-- > 0;) {
      if (w + 1 != windows) {
        for (int s = 0; s < 4; ++s) {
          mul(acc.data(), acc.data(), tmp.data());
          std::swap(acc, tmp);
        }
      }
      unsigned win = 0;
      for (int bit_idx = 3; bit_idx >= 0; --bit_idx) {
        win = (win << 1) | static_cast<unsigned>(exp.bit(4 * w + static_cast<std::size_t>(bit_idx)));
      }
      if (win != 0) {
        mul(acc.data(), &table[win * k], tmp.data());
        std::swap(acc, tmp);
      }
    }
  }

  // Convert out of Montgomery form: acc * 1 * R^{-1}.
  std::vector<u64> one(k, 0);
  one[0] = 1;
  mul(acc.data(), one.data(), tmp.data());
  return BigInt::from_limbs(std::move(tmp));
}

BigInt BigInt::modexp(const BigInt& exp, const BigInt& m) const {
  assert(m.is_odd() && !m.is_zero());
  if (m.is_one()) return {};
  return MontgomeryCtx(m).modexp(*this, exp);
}

BigInt BigInt::modinv(const BigInt& m) const {
  // Extended Euclid on (a, m) with bookkeeping in the integers; we track
  // coefficients as (sign, magnitude) pairs since BigInt is unsigned.
  if (m.is_zero() || is_zero()) return {};
  BigInt a = *this % m;
  if (a.is_zero()) return {};

  BigInt r0 = m, r1 = a;
  // t0 = 0, t1 = 1; signs: +1 / -1
  BigInt t0{}, t1{1};
  int s0 = 1, s1 = 1;

  while (!r1.is_zero()) {
    auto [q, r2] = r0.divmod(r1);
    // t2 = t0 - q * t1 (signed arithmetic on magnitudes)
    BigInt qt = q * t1;
    BigInt t2;
    int s2;
    if (s0 == s1) {
      if (t0 >= qt) {
        t2 = t0 - qt;
        s2 = s0;
      } else {
        t2 = qt - t0;
        s2 = -s1;
      }
    } else {
      t2 = t0 + qt;
      s2 = s0;
    }
    r0 = std::move(r1);
    r1 = std::move(r2);
    t0 = std::move(t1);
    s0 = s1;
    t1 = std::move(t2);
    s1 = s2;
  }

  if (!r0.is_one()) return {};  // not coprime
  if (s0 < 0) return m - (t0 % m);
  return t0 % m;
}

BigInt BigInt::gcd(BigInt a, BigInt b) {
  while (!b.is_zero()) {
    BigInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

}  // namespace whisper::crypto
