#include "crypto/aes128.hpp"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace whisper::crypto {

namespace {

// S-box built once at startup from the GF(2^8) inverse + affine map.
struct SboxTables {
  std::uint8_t sbox[256];

  SboxTables() {
    // Multiplicative inverses via exp/log tables over generator 3.
    std::uint8_t exp[256], log[256];
    std::uint8_t x = 1;
    for (int i = 0; i < 256; ++i) {
      exp[i] = x;
      log[x] = static_cast<std::uint8_t>(i);
      // multiply x by 3 in GF(2^8)
      x = static_cast<std::uint8_t>(x ^ ((x << 1) ^ ((x & 0x80) ? 0x1b : 0)));
    }
    for (int i = 0; i < 256; ++i) {
      std::uint8_t inv = i == 0 ? 0 : exp[255 - log[i]];
      // Affine transformation.
      sbox[i] = static_cast<std::uint8_t>(
          inv ^ static_cast<std::uint8_t>((inv << 1) | (inv >> 7)) ^
          static_cast<std::uint8_t>((inv << 2) | (inv >> 6)) ^
          static_cast<std::uint8_t>((inv << 3) | (inv >> 5)) ^
          static_cast<std::uint8_t>((inv << 4) | (inv >> 4)) ^ 0x63);
    }
  }
};

const SboxTables& tables() {
  static const SboxTables t;
  return t;
}

std::uint8_t xtime(std::uint8_t a) {
  return static_cast<std::uint8_t>((a << 1) ^ ((a & 0x80) ? 0x1b : 0));
}

// Increment the counter block as one big-endian 128-bit integer.
void increment(AesBlock& counter) {
  for (int i = 15; i >= 0; --i) {
    if (++counter[static_cast<std::size_t>(i)] != 0) break;
  }
}

#if defined(__x86_64__)
bool cpu_has_aesni() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("aes") != 0;
  }();
  return has;
}

// One step of the AES-128 key expansion: the next round key from the
// previous one and the RotWord/SubWord/Rcon word aeskeygenassist made.
inline __m128i expand_key_step(__m128i key, __m128i assist) {
  assist = _mm_shuffle_epi32(assist, 0xff);
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  return _mm_xor_si128(key, assist);
}

// CTR keystream on AES-NI, four counter blocks in flight per step. The key
// schedule runs on AES-NI too, so no table is indexed by key or data.
__attribute__((target("aes"))) void ctr_aesni(const AesKey& key, AesBlock counter, BytesView in,
                                              std::uint8_t* out) {
  __m128i rk[11];
  rk[0] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(key.data()));
  // aeskeygenassist takes Rcon as an immediate, so the ten steps are unrolled.
  rk[1] = expand_key_step(rk[0], _mm_aeskeygenassist_si128(rk[0], 0x01));
  rk[2] = expand_key_step(rk[1], _mm_aeskeygenassist_si128(rk[1], 0x02));
  rk[3] = expand_key_step(rk[2], _mm_aeskeygenassist_si128(rk[2], 0x04));
  rk[4] = expand_key_step(rk[3], _mm_aeskeygenassist_si128(rk[3], 0x08));
  rk[5] = expand_key_step(rk[4], _mm_aeskeygenassist_si128(rk[4], 0x10));
  rk[6] = expand_key_step(rk[5], _mm_aeskeygenassist_si128(rk[5], 0x20));
  rk[7] = expand_key_step(rk[6], _mm_aeskeygenassist_si128(rk[6], 0x40));
  rk[8] = expand_key_step(rk[7], _mm_aeskeygenassist_si128(rk[7], 0x80));
  rk[9] = expand_key_step(rk[8], _mm_aeskeygenassist_si128(rk[8], 0x1b));
  rk[10] = expand_key_step(rk[9], _mm_aeskeygenassist_si128(rk[9], 0x36));
  for (std::size_t off = 0; off < in.size(); off += 64) {
    __m128i b[4];
    for (auto& blk : b) {
      blk = _mm_xor_si128(_mm_loadu_si128(reinterpret_cast<const __m128i*>(counter.data())), rk[0]);
      increment(counter);
    }
    for (int r = 1; r < 10; ++r) {
      for (auto& blk : b) blk = _mm_aesenc_si128(blk, rk[r]);
    }
    for (auto& blk : b) blk = _mm_aesenclast_si128(blk, rk[10]);

    const std::size_t n = std::min<std::size_t>(64, in.size() - off);
    if (n == 64) {
      const auto* src = reinterpret_cast<const __m128i*>(in.data() + off);
      auto* dst = reinterpret_cast<__m128i*>(out + off);
      for (int i = 0; i < 4; ++i) {
        _mm_storeu_si128(dst + i, _mm_xor_si128(_mm_loadu_si128(src + i), b[i]));
      }
    } else {
      std::uint8_t ks[64];
      for (int i = 0; i < 4; ++i) _mm_storeu_si128(reinterpret_cast<__m128i*>(ks) + i, b[i]);
      for (std::size_t i = 0; i < n; ++i) {
        out[off + i] = static_cast<std::uint8_t>(in[off + i] ^ ks[i]);
      }
    }
  }
}
#endif

}  // namespace

Aes128::Aes128(const AesKey& key) {
  const auto& t = tables();
  std::memcpy(round_keys_[0], key.data(), 16);
  std::uint8_t rcon = 1;
  for (int r = 1; r <= 10; ++r) {
    std::uint8_t* rk = round_keys_[r];
    const std::uint8_t* prev = round_keys_[r - 1];
    // RotWord + SubWord + Rcon on the last word of the previous round key.
    rk[0] = static_cast<std::uint8_t>(prev[0] ^ t.sbox[prev[13]] ^ rcon);
    rk[1] = static_cast<std::uint8_t>(prev[1] ^ t.sbox[prev[14]]);
    rk[2] = static_cast<std::uint8_t>(prev[2] ^ t.sbox[prev[15]]);
    rk[3] = static_cast<std::uint8_t>(prev[3] ^ t.sbox[prev[12]]);
    for (int i = 4; i < 16; ++i) rk[i] = static_cast<std::uint8_t>(prev[i] ^ rk[i - 4]);
    rcon = xtime(rcon);
  }
}

void Aes128::encrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const {
  const auto& t = tables();
  std::uint8_t s[16];
  for (int i = 0; i < 16; ++i) s[i] = static_cast<std::uint8_t>(in[i] ^ round_keys_[0][i]);

  for (int round = 1; round <= 10; ++round) {
    // SubBytes
    for (auto& b : s) b = t.sbox[b];
    // ShiftRows (state is column-major: s[4c + r] is row r, column c)
    std::uint8_t tmp[16];
    for (int c = 0; c < 4; ++c)
      for (int r = 0; r < 4; ++r) tmp[4 * c + r] = s[4 * ((c + r) % 4) + r];
    std::memcpy(s, tmp, 16);
    // MixColumns (skipped in the final round)
    if (round < 10) {
      for (int c = 0; c < 4; ++c) {
        std::uint8_t* col = s + 4 * c;
        const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
        col[0] = static_cast<std::uint8_t>(xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
        col[1] = static_cast<std::uint8_t>(a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3);
        col[2] = static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3));
        col[3] = static_cast<std::uint8_t>((xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3));
      }
    }
    // AddRoundKey
    for (int i = 0; i < 16; ++i) s[i] = static_cast<std::uint8_t>(s[i] ^ round_keys_[round][i]);
  }
  std::memcpy(out, s, 16);
}

Bytes aes128_ctr(const AesKey& key, const AesBlock& iv, BytesView data) {
#if defined(__x86_64__)
  if (cpu_has_aesni()) {
    Bytes out(data.size());
    ctr_aesni(key, iv, data, out.data());
    return out;
  }
#endif
  return aes128_ctr_portable(key, iv, data);
}

Bytes aes128_ctr_portable(const AesKey& key, const AesBlock& iv, BytesView data) {
  const Aes128 cipher(key);
  Bytes out(data.size());
  AesBlock counter = iv;
  std::uint8_t keystream[16];
  for (std::size_t off = 0; off < data.size(); off += 16) {
    cipher.encrypt_block(counter.data(), keystream);
    const std::size_t n = std::min<std::size_t>(16, data.size() - off);
    for (std::size_t i = 0; i < n; ++i)
      out[off + i] = static_cast<std::uint8_t>(data[off + i] ^ keystream[i]);
    increment(counter);
  }
  return out;
}

}  // namespace whisper::crypto
