#include "crypto/bigint.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "crypto/montmul.hpp"

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

#if defined(__x86_64__)
// The 4-limb CIOS above in BMI2/ADX assembly. The running sum t lives in
// six registers: t0..t4 hold t (below n + 2^256, so t4 is 0 or 1) and t5
// takes the carries out of t4. Each row is fully unrolled and rotates the
// register names instead of shifting t down a limb: the limb a reduction
// zeroes becomes the next row's t5.
//
// t0..t5 += rdx * x[0..3]: each mulx's low half goes onto the CF chain
// (adcx) and its high half onto the OF chain (adox), and both chains end in
// t5. The caller clears CF and OF.
#define WHISPER_MONT4_MULACC(X, T0, T1, T2, T3, T4, T5) \
  "mulxq 0(%[" #X "]), %%rax, %%rcx\n\t"                \
  "adcxq %%rax, %%" #T0 "\n\t"                          \
  "adoxq %%rcx, %%" #T1 "\n\t"                          \
  "mulxq 8(%[" #X "]), %%rax, %%rcx\n\t"                \
  "adcxq %%rax, %%" #T1 "\n\t"                          \
  "adoxq %%rcx, %%" #T2 "\n\t"                          \
  "mulxq 16(%[" #X "]), %%rax, %%rcx\n\t"               \
  "adcxq %%rax, %%" #T2 "\n\t"                          \
  "adoxq %%rcx, %%" #T3 "\n\t"                          \
  "mulxq 24(%[" #X "]), %%rax, %%rcx\n\t"               \
  "adcxq %%rax, %%" #T3 "\n\t"                          \
  "adoxq %%rcx, %%" #T4 "\n\t"                          \
  "movl $0, %%eax\n\t"                                  \
  "adcxq %%rax, %%" #T4 "\n\t"                          \
  "adoxq %%rax, %%" #T5 "\n\t"                          \
  "adcxq %%rax, %%" #T5 "\n\t"

// m = t0 * n' mod 2^64, then t += m * n, which zeroes t0.
#define WHISPER_MONT4_REDUCE(T0, T1, T2, T3, T4, T5) \
  "movq %%" #T0 ", %%rdx\n\t"                        \
  "imulq %[np], %%rdx\n\t"                           \
  "xorl %%eax, %%eax\n\t"                            \
  WHISPER_MONT4_MULACC(n, T0, T1, T2, T3, T4, T5)

// Row i > 0: t += a[i] * b, then reduce. t5 is the limb the previous row
// zeroed.
#define WHISPER_MONT4_ROW(OFF, T0, T1, T2, T3, T4, T5) \
  "movq " #OFF "(%[a]), %%rdx\n\t"                     \
  "xorl %%eax, %%eax\n\t"                              \
  WHISPER_MONT4_MULACC(b, T0, T1, T2, T3, T4, T5)      \
  WHISPER_MONT4_REDUCE(T0, T1, T2, T3, T4, T5)

// Every load of a and b comes before the stores to out, so out may alias
// either. Pointers to a, b and n take three registers the compiler picks;
// n' and out are read from memory, which leaves room for frame and base
// pointers in unoptimized and sanitizer builds.
__attribute__((always_inline)) inline void mul4_adx_asm(const u64* a, const u64* b,
                                                        const u64* n, u64 n_prime, u64* out) {
  __asm__ volatile(
      // Row 0: t = a[0] * b on one carry chain, then reduce.
      "xorl %%r13d, %%r13d\n\t"
      "movq 0(%[a]), %%rdx\n\t"
      "mulxq 0(%[b]), %%r8, %%r9\n\t"
      "mulxq 8(%[b]), %%rax, %%r10\n\t"
      "addq %%rax, %%r9\n\t"
      "mulxq 16(%[b]), %%rax, %%r11\n\t"
      "adcq %%rax, %%r10\n\t"
      "mulxq 24(%[b]), %%rax, %%r12\n\t"
      "adcq %%rax, %%r11\n\t"
      "adcq $0, %%r12\n\t"
      WHISPER_MONT4_REDUCE(r8, r9, r10, r11, r12, r13)
      WHISPER_MONT4_ROW(8, r9, r10, r11, r12, r13, r8)
      WHISPER_MONT4_ROW(16, r10, r11, r12, r13, r8, r9)
      WHISPER_MONT4_ROW(24, r11, r12, r13, r8, r9, r10)
      // t = r10:r9:r8:r13:r12. Subtract n; keep t where that borrows.
      "movq %%r12, %%rax\n\t"
      "subq 0(%[n]), %%rax\n\t"
      "movq %%r13, %%rcx\n\t"
      "sbbq 8(%[n]), %%rcx\n\t"
      "movq %%r8, %%rdx\n\t"
      "sbbq 16(%[n]), %%rdx\n\t"
      "movq %%r9, %%r11\n\t"
      "sbbq 24(%[n]), %%r11\n\t"
      "sbbq $0, %%r10\n\t"
      "cmovbq %%r12, %%rax\n\t"
      "cmovbq %%r13, %%rcx\n\t"
      "cmovbq %%r8, %%rdx\n\t"
      "cmovbq %%r9, %%r11\n\t"
      "movq %[out], %%r12\n\t"
      "movq %%rax, 0(%%r12)\n\t"
      "movq %%rcx, 8(%%r12)\n\t"
      "movq %%rdx, 16(%%r12)\n\t"
      "movq %%r11, 24(%%r12)\n\t"
      :
      : [a] "r"(a), [b] "r"(b), [n] "r"(n), [np] "m"(n_prime), [out] "m"(out)
      : "rax", "rcx", "rdx", "r8", "r9", "r10", "r11", "r12", "r13", "cc", "memory");
}

#undef WHISPER_MONT4_ROW
#undef WHISPER_MONT4_REDUCE
#undef WHISPER_MONT4_MULACC

// CPUID leaf 7: BMI2 is EBX bit 8, ADX EBX bit 19. Read once per process.
bool cpu_has_bmi2_adx() {
  static const bool has = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
    return (ebx & bit_BMI2) != 0 && (ebx & bit_ADX) != 0;
  }();
  return has;
}
#endif

// The 4-limb kernel for this CPU, inlined into MontgomeryCtx::mul.
__attribute__((always_inline)) inline void mul4_dispatch(const u64* a, const u64* b,
                                                         const u64* n, u64 n_prime, u64* out) {
#if defined(__x86_64__)
  if (cpu_has_bmi2_adx()) return mul4_adx_asm(a, b, n, n_prime, out);
#endif
  cios_mul<4>(a, b, n, n_prime, 4, out);
}

// Exponents of at most this many bits (RSA public e = 65537) take the plain
// binary loop: a window table's 14 extra multiplies would outweigh it.
constexpr std::size_t kBinaryMaxBits = 20;

}  // namespace

namespace montmul {

void mul4_portable(const u64* a, const u64* b, const u64* n, u64 n_prime, u64* out) {
  cios_mul<4>(a, b, n, n_prime, 4, out);
}

void mul4(const u64* a, const u64* b, const u64* n, u64 n_prime, u64* out) {
  mul4_dispatch(a, b, n, n_prime, out);
}

}  // namespace montmul

void MontgomeryCtx::mul(const u64* a, const u64* b, u64* out) const {
  // Only 4 limbs (the CRT halves of a 512-bit key) has a kernel of its own;
  // at 8 limbs and up the carry chain bounds the loop.
  const std::size_t k = n_.size();
  if (k == 4) return mul4_dispatch(a, b, n_.data(), n_prime_, out);
  cios_mul<0>(a, b, n_.data(), n_prime_, k, out);
}

// One exponentiation in flight: base^exp mod n for one context, its limb
// buffers in one allocation: the accumulator, a scratch product, then
// base^1..base^15 in Montgomery form (base^1 alone for a short exponent).
struct MontgomeryCtx::Chain {
  Chain(const MontgomeryCtx& c, const BigInt& base, const BigInt& e)
      : ctx(c),
        exp(e),
        k(c.n_.size()),
        windows((e.bit_length() + 3) / 4),
        buf((e.bit_length() > kBinaryMaxBits ? 17 : 3) * k, 0),
        acc(buf.data()),
        tmp(buf.data() + k) {
    std::copy(c.one_mont_.begin(), c.one_mont_.end(), acc);  // acc = 1
    BigInt b = base;
    b.mod_assign(c.modulus_);
    std::copy(b.limbs_.begin(), b.limbs_.end(), tmp);
    c.mul(tmp, c.r2_.data(), power(1));  // base * R mod n
  }

  u64* power(std::size_t w) { return buf.data() + (w + 1) * k; }

  void step(const u64* x) {
    ctx.mul(acc, x, tmp);
    std::swap(acc, tmp);
  }

  // The exponent's 4-bit window w, counted from the least significant.
  unsigned window(std::size_t w) const {
    const std::size_t bit = 4 * w;
    const std::vector<u64>& e = exp.limbs_;
    return bit / 64 < e.size() ? static_cast<unsigned>(e[bit / 64] >> (bit % 64)) & 0xf : 0;
  }

  // Short exponents: plain left-to-right binary.
  void binary() {
    for (std::size_t i = exp.bit_length(); i-- > 0;) {
      step(acc);
      if (exp.bit(i)) step(power(1));
    }
  }

  // Out of Montgomery form (acc * 1 * R^-1), fully reduced.
  BigInt finish() {
    u64* one = power(1);
    std::fill(one, one + k, 0);
    one[0] = 1;
    ctx.mul(acc, one, tmp);
    return BigInt::from_limbs(std::vector<u64>(tmp, tmp + k));
  }

  const MontgomeryCtx& ctx;
  const BigInt& exp;
  const std::size_t k;
  const std::size_t windows;
  std::vector<u64> buf;
  u64* acc;
  u64* tmp;
};

// Fixed 4-bit windows for N chains at once. Every step (a table entry, a
// squaring, a window multiply) runs once for each chain before the next
// step, so with two chains the CPU has two independent multiplies in
// flight instead of one chain of dependent ones. The windows line up at
// the least significant end: a chain with fewer windows starts later.
template <std::size_t N>
void MontgomeryCtx::run_windows(Chain* chains) {
  for (std::size_t w = 2; w < 16; ++w) {
    for (std::size_t i = 0; i < N; ++i) {
      Chain& c = chains[i];
      c.ctx.mul(c.power(w - 1), c.power(1), c.power(w));
    }
  }
  std::size_t windows = 0;
  for (std::size_t i = 0; i < N; ++i) windows = std::max(windows, chains[i].windows);
  for (std::size_t w = windows; w-- > 0;) {
    for (int s = 0; s < 4; ++s) {
      for (std::size_t i = 0; i < N; ++i) {
        if (w + 1 < chains[i].windows) chains[i].step(chains[i].acc);
      }
    }
    for (std::size_t i = 0; i < N; ++i) {
      if (const unsigned win = chains[i].window(w)) chains[i].step(chains[i].power(win));
    }
  }
}

BigInt MontgomeryCtx::modexp(const BigInt& base, const BigInt& exp) const {
  if (modulus_.is_one()) return {};
  Chain c(*this, base, exp);
  if (exp.bit_length() > kBinaryMaxBits) {
    run_windows<1>(&c);
  } else {
    c.binary();
  }
  return c.finish();
}

std::pair<BigInt, BigInt> MontgomeryCtx::modexp_pair(const BigInt& base, const MontgomeryCtx& p,
                                                     const BigInt& exp_p, const MontgomeryCtx& q,
                                                     const BigInt& exp_q) {
  if (p.modulus_.is_one() || q.modulus_.is_one() || exp_p.bit_length() <= kBinaryMaxBits ||
      exp_q.bit_length() <= kBinaryMaxBits) {
    return {p.modexp(base, exp_p), q.modexp(base, exp_q)};
  }
  Chain chains[2] = {Chain(p, base, exp_p), Chain(q, base, exp_q)};
  run_windows<2>(chains);
  return {chains[0].finish(), chains[1].finish()};
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
