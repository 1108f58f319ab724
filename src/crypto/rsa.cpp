#include "crypto/rsa.hpp"

#include <array>

#include "common/serialize.hpp"

namespace whisper::crypto {

namespace {

// Small primes for fast trial division before Miller-Rabin.
constexpr std::uint64_t kSmallPrimes[] = {
    3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,  47,  53,  59,  61,
    67,  71,  73,  79,  83,  89,  97,  101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229, 233, 239,
    241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311, 313, 317, 331, 337, 347};

// kSmallPrimes in consecutive runs whose products fit in 64 bits: a
// candidate is divided once per run, and each prime of the run is tested
// against that one-limb residue.
struct PrimeRun {
  std::uint64_t product = 1;
  std::size_t end = 0;  // one past the run's last prime in kSmallPrimes
};

constexpr auto kPrimeRuns = [] {
  std::array<PrimeRun, 8> runs{};
  std::size_t r = 0;
  for (std::size_t i = 0; i < std::size(kSmallPrimes); ++i) {
    if (runs[r].product > UINT64_MAX / kSmallPrimes[i]) ++r;
    runs[r].product *= kSmallPrimes[i];
    runs[r].end = i + 1;
  }
  return runs;
}();
static_assert(kPrimeRuns.back().end == std::size(kSmallPrimes));

}  // namespace

bool is_probable_prime(const BigInt& n, Drbg& drbg, int rounds) {
  if (n < BigInt{2}) return false;
  if (n == BigInt{2} || n == BigInt{3}) return true;
  if (!n.is_odd()) return false;
  std::size_t next = 0;
  for (const PrimeRun& run : kPrimeRuns) {
    const std::uint64_t residue = n.mod_u64(run.product);
    for (; next < run.end; ++next) {
      // The first small prime that divides n decides: n is prime only if it
      // is that prime.
      if (residue % kSmallPrimes[next] == 0) {
        return n.limbs().size() == 1 && n.limbs()[0] == kSmallPrimes[next];
      }
    }
  }

  // Write n-1 = d * 2^r with d odd.
  const BigInt n_minus_1 = n - BigInt{1};
  BigInt d = n_minus_1;
  std::size_t r = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++r;
  }

  // One context for every round (building one costs a full-width division).
  const MontgomeryCtx mont(n);
  const BigInt two{2};
  const BigInt n_minus_2 = n - two;
  const std::size_t bits = n.bit_length();
  for (int round = 0; round < rounds; ++round) {
    // Random base a in [2, n-2].
    BigInt a;
    do {
      Bytes raw = drbg.bytes((bits + 7) / 8);
      a = BigInt::from_bytes(raw) % n;
    } while (a < two || a > n_minus_2);

    BigInt x = mont.modexp(a, d);
    if (x.is_one() || x == n_minus_1) continue;
    bool composite = true;
    BigInt sq;
    for (std::size_t i = 0; i + 1 < r; ++i) {
      BigInt::mul_into(x, x, sq);
      sq.mod_assign(n);
      std::swap(x, sq);
      if (x == n_minus_1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

BigInt generate_prime(std::size_t bits, Drbg& drbg) {
  for (;;) {
    Bytes raw = drbg.bytes((bits + 7) / 8);
    // Force exact bit length with the top two bits set (so products of two
    // such primes have exactly 2*bits bits), and force odd.
    const std::size_t top_bit = (bits - 1) % 8;
    raw[0] |= static_cast<std::uint8_t>(1u << top_bit);
    if (top_bit > 0)
      raw[0] |= static_cast<std::uint8_t>(1u << (top_bit - 1));
    else if (raw.size() > 1)
      raw[1] |= 0x80;
    // Clear any bits above the requested length.
    raw[0] &= static_cast<std::uint8_t>((2u << top_bit) - 1);
    raw.back() |= 1;
    BigInt candidate = BigInt::from_bytes(raw);
    if (is_probable_prime(candidate, drbg)) return candidate;
  }
}

RsaKeyPair RsaKeyPair::generate(std::size_t bits, Drbg& drbg) {
  const BigInt e{65537};
  for (;;) {
    const BigInt p = generate_prime(bits / 2, drbg);
    const BigInt q = generate_prime(bits - bits / 2, drbg);
    if (p == q) continue;
    const BigInt n = p * q;
    const BigInt phi = (p - BigInt{1}) * (q - BigInt{1});
    if (BigInt::gcd(e, phi) != BigInt{1}) continue;
    const BigInt d = e.modinv(phi);
    if (d.is_zero()) continue;
    RsaKeyPair key{RsaPublicKey{n, e}, d};
    key.p = p;
    key.q = q;
    key.dp = d % (p - BigInt{1});
    key.dq = d % (q - BigInt{1});
    key.qinv = q.modinv(p);
    return key;
  }
}

const MontgomeryCtx& RsaPublicKey::mont() const {
  if (!mont_cache) mont_cache = std::make_shared<const MontgomeryCtx>(n);
  return *mont_cache;
}

const MontgomeryCtx& RsaKeyPair::mont_p() const {
  if (!mont_p_cache) mont_p_cache = std::make_shared<const MontgomeryCtx>(p);
  return *mont_p_cache;
}

const MontgomeryCtx& RsaKeyPair::mont_q() const {
  if (!mont_q_cache) mont_q_cache = std::make_shared<const MontgomeryCtx>(q);
  return *mont_q_cache;
}

void RsaKeyPair::warm_cache() const {
  pub.mont();
  if (has_crt()) {
    mont_p();
    mont_q();
  }
}

BigInt rsa_private_op(const RsaKeyPair& key, const BigInt& c) {
  if (!key.has_crt()) return c.modexp(key.d, key.pub.n);
  // Two half-size exponentiations in lockstep (each reduces the base)...
  const auto [m1, m2] = MontgomeryCtx::modexp_pair(c, key.mont_p(), key.dp, key.mont_q(), key.dq);
  // ...recombined with Garner: m = m2 + q * (qinv * (m1 - m2) mod p).
  BigInt diff = (m1 + key.p) - m2 % key.p;  // keep the subtraction non-negative
  diff.mod_assign(key.p);
  const BigInt h = (key.qinv * diff) % key.p;
  return m2 + h * key.q;
}

Bytes RsaPublicKey::serialize() const {
  Writer w;
  w.bytes(n.to_bytes());
  w.bytes(e.to_bytes());
  return std::move(w).take();
}

std::optional<RsaPublicKey> RsaPublicKey::deserialize(BytesView data) {
  Reader r(data);
  Bytes nb = r.bytes(kMaxKeyComponentBytes);
  Bytes eb = r.bytes(kMaxKeyComponentBytes);
  if (!r.ok()) return std::nullopt;
  // Trailing bytes must be all-zero padding: serialize_padded() pads keys to
  // a fixed width for the key-sampling piggyback, and that padding is the
  // only tail a well-formed encoding can carry.
  for (const std::uint8_t b : r.rest()) {
    if (b != 0) return std::nullopt;
  }
  RsaPublicKey key{BigInt::from_bytes(nb), BigInt::from_bytes(eb)};
  // An RSA modulus is odd, and MontgomeryCtx relies on it (an even n only
  // trips an assert in Debug; Release would compute wrong ciphertexts for a
  // hostile peer's key). Zero is even too.
  if (!key.n.is_odd() || key.e.is_zero()) return std::nullopt;
  return key;
}

Bytes RsaPublicKey::serialize_padded(std::size_t width) const {
  Bytes out = serialize();
  if (out.size() < width) out.resize(width, 0);
  return out;
}

std::uint64_t RsaPublicKey::fingerprint() const { return fingerprint64(serialize()); }

Bytes rsa_encrypt(const RsaPublicKey& pub, BytesView msg, Drbg& drbg) {
  const std::size_t k = pub.block_size();
  if (msg.size() > pub.max_message()) return {};
  // 0x00 0x02 PS(nonzero random, >=8 bytes) 0x00 msg
  Bytes block(k, 0);
  block[1] = 0x02;
  const std::size_t ps_len = k - 3 - msg.size();
  // Batch-fill the PS region, then resample only the (rare) zero bytes:
  // PKCS#1 requires every padding byte to be nonzero.
  drbg.fill(block.data() + 2, ps_len);
  for (std::size_t i = 0; i < ps_len; ++i) {
    while (block[2 + i] == 0) drbg.fill(&block[2 + i], 1);
  }
  block[2 + ps_len] = 0x00;
  std::copy(msg.begin(), msg.end(), block.begin() + static_cast<std::ptrdiff_t>(3 + ps_len));

  const BigInt m = BigInt::from_bytes(block);
  const BigInt c = pub.mont().modexp(m, pub.e);
  return c.to_bytes_padded(k);
}

std::optional<Bytes> rsa_decrypt(const RsaKeyPair& key, BytesView ciphertext) {
  const std::size_t k = key.pub.block_size();
  if (ciphertext.size() != k) return std::nullopt;
  const BigInt c = BigInt::from_bytes(ciphertext);
  if (c >= key.pub.n) return std::nullopt;
  const BigInt m = rsa_private_op(key, c);
  const Bytes block = m.to_bytes_padded(k);
  if (block[0] != 0x00 || block[1] != 0x02) return std::nullopt;
  std::size_t i = 2;
  while (i < k && block[i] != 0x00) ++i;
  if (i < 10 || i >= k) return std::nullopt;  // PS must be >= 8 bytes
  return Bytes(block.begin() + static_cast<std::ptrdiff_t>(i + 1), block.end());
}

Bytes rsa_sign(const RsaKeyPair& key, BytesView msg) {
  const std::size_t k = key.pub.block_size();
  const Digest256 digest = Sha256::hash(msg);
  // 0x00 0x01 0xFF..0xFF 0x00 digest
  Bytes block(k, 0xff);
  block[0] = 0x00;
  block[1] = 0x01;
  block[k - 33] = 0x00;
  std::copy(digest.begin(), digest.end(), block.begin() + static_cast<std::ptrdiff_t>(k - 32));
  const BigInt m = BigInt::from_bytes(block);
  const BigInt s = rsa_private_op(key, m);
  return s.to_bytes_padded(k);
}

bool rsa_verify(const RsaPublicKey& pub, BytesView msg, BytesView signature) {
  const std::size_t k = pub.block_size();
  if (signature.size() != k || k < 35) return false;
  const BigInt s = BigInt::from_bytes(signature);
  if (s >= pub.n) return false;
  const BigInt m = pub.mont().modexp(s, pub.e);
  const Bytes block = m.to_bytes_padded(k);
  if (block[0] != 0x00 || block[1] != 0x01) return false;
  for (std::size_t i = 2; i < k - 33; ++i) {
    if (block[i] != 0xff) return false;
  }
  if (block[k - 33] != 0x00) return false;
  const Digest256 digest = Sha256::hash(msg);
  return std::equal(digest.begin(), digest.end(),
                    block.begin() + static_cast<std::ptrdiff_t>(k - 32));
}

}  // namespace whisper::crypto
