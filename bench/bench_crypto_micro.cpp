// Crypto primitive micro-benchmarks (google-benchmark).
//
// These back the computational claims of Table II and Fig. 7: RSA private
// operations dominate AES by orders of magnitude, and onion build/peel
// costs are a few RSA operations plus AES over the body.
//
// Each dispatched kernel runs beside its fallback (CRT beside the plain
// exponentiation, aes128_ctr beside aes128_ctr_portable, mul4 beside
// mul4_portable), so bench/check_floors.py can hold every fast path to a
// floor within one run, whatever the machine.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "crypto/aes128.hpp"
#include "crypto/bigint.hpp"
#include "crypto/envelope.hpp"
#include "crypto/montmul.hpp"
#include "crypto/onion.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"

namespace whisper::crypto {
namespace {

const RsaKeyPair& key(std::size_t bits) {
  static std::map<std::size_t, RsaKeyPair> keys;
  auto it = keys.find(bits);
  if (it == keys.end()) {
    Drbg d(bits);
    it = keys.emplace(bits, RsaKeyPair::generate(bits, d)).first;
  }
  return it->second;
}

void BM_Sha256(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(20 * 1024);

void BM_Aes128Ctr(benchmark::State& state) {
  AesKey k{};
  AesBlock iv{};
  Bytes data(static_cast<std::size_t>(state.range(0)), 0x7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aes128_ctr(k, iv, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Aes128Ctr)->Arg(64)->Arg(1024)->Arg(20 * 1024);

void BM_Aes128CtrPortable(benchmark::State& state) {
  AesKey k{};
  AesBlock iv{};
  Bytes data(static_cast<std::size_t>(state.range(0)), 0x7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aes128_ctr_portable(k, iv, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Aes128CtrPortable)->Arg(1024);

void BM_RsaKeygen(benchmark::State& state) {
  Drbg d(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RsaKeyPair::generate(static_cast<std::size_t>(state.range(0)), d));
  }
}
BENCHMARK(BM_RsaKeygen)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_RsaEncrypt(benchmark::State& state) {
  const auto& kp = key(static_cast<std::size_t>(state.range(0)));
  Drbg d(1);
  const Bytes msg(16, 0xaa);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_encrypt(kp.pub, msg, d));
  }
}
BENCHMARK(BM_RsaEncrypt)->Arg(512)->Arg(1024)->Arg(2048);

void BM_RsaDecrypt(benchmark::State& state) {
  const auto& kp = key(static_cast<std::size_t>(state.range(0)));
  Drbg d(2);
  const Bytes ct = rsa_encrypt(kp.pub, Bytes(16, 0xaa), d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_decrypt(kp, ct));
  }
}
BENCHMARK(BM_RsaDecrypt)->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMicrosecond);

// The same key with its CRT material stripped: one full-size exponentiation,
// the path BM_RsaDecrypt's CRT halves replace.
void BM_RsaDecryptNoCrt(benchmark::State& state) {
  const auto& kp = key(static_cast<std::size_t>(state.range(0)));
  const RsaKeyPair plain{kp.pub, kp.d};
  Drbg d(2);
  const Bytes ct = rsa_encrypt(kp.pub, Bytes(16, 0xaa), d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_decrypt(plain, ct));
  }
}
BENCHMARK(BM_RsaDecryptNoCrt)->Arg(512)->Arg(1024)->Unit(benchmark::kMicrosecond);

void BM_RsaSign(benchmark::State& state) {
  const auto& kp = key(static_cast<std::size_t>(state.range(0)));
  const Bytes msg(64, 0x3c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_sign(kp, msg));
  }
}
BENCHMARK(BM_RsaSign)->Arg(512)->Arg(1024)->Unit(benchmark::kMicrosecond);

void BM_RsaVerify(benchmark::State& state) {
  const auto& kp = key(static_cast<std::size_t>(state.range(0)));
  const Bytes msg(64, 0x3c);
  const Bytes sig = rsa_sign(kp, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_verify(kp.pub, msg, sig));
  }
}
BENCHMARK(BM_RsaVerify)->Arg(512)->Arg(1024);

void BM_EnvelopeSeal(benchmark::State& state) {
  const auto& kp = key(512);
  Drbg d(3);
  const Bytes payload(static_cast<std::size_t>(state.range(0)), 0x11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(envelope_seal(kp.pub, payload, d));
  }
}
BENCHMARK(BM_EnvelopeSeal)->Arg(256)->Arg(20 * 1024);

// Onion build: the paper's 2-mix path (S->A->B->D) over a 20 KB view
// exchange payload — exactly the WCL request cost of Fig. 7.
void BM_OnionBuild2Mixes(benchmark::State& state) {
  Drbg d(4);
  std::vector<OnionHop> path{{NodeId{1}, key(512).pub, {}},
                             {NodeId{2}, key(512).pub, {}},
                             {NodeId{3}, key(512).pub, {}}};
  const Bytes content(static_cast<std::size_t>(state.range(0)), 0x2f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(onion_build(path, content, d));
  }
}
BENCHMARK(BM_OnionBuild2Mixes)->Arg(256)->Arg(20 * 1024)->Unit(benchmark::kMicrosecond);

void BM_OnionPeelOneHop(benchmark::State& state) {
  Drbg d(5);
  std::vector<OnionHop> path{{NodeId{1}, key(512).pub, {}},
                             {NodeId{2}, key(512).pub, {}},
                             {NodeId{3}, key(512).pub, {}}};
  const OnionPacket pkt = onion_build(path, Bytes(1024, 0x2f), d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(onion_peel_header(key(512), pkt));
  }
}
BENCHMARK(BM_OnionPeelOneHop)->Unit(benchmark::kMicrosecond);

void BM_BigIntModExp(benchmark::State& state) {
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  Drbg d(6);
  BigInt base = BigInt::from_bytes(d.bytes(bits / 8));
  BigInt exp = BigInt::from_bytes(d.bytes(bits / 8));
  BigInt mod = BigInt::from_bytes(d.bytes(bits / 8));
  if (!mod.is_odd()) mod = mod + BigInt{1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(base.modexp(exp, mod));
  }
}
BENCHMARK(BM_BigIntModExp)->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMicrosecond);

// One 4-limb Montgomery multiply per iteration modulo a CRT half of a
// 512-bit key, each squaring the last result: the dependent chain modexp
// runs.
using MontMul4 = void (*)(const std::uint64_t*, const std::uint64_t*, const std::uint64_t*,
                          std::uint64_t, std::uint64_t*);
void mont_mul4_chain(benchmark::State& state, MontMul4 mul) {
  std::uint64_t n[4] = {};
  std::copy(key(512).p.limbs().begin(), key(512).p.limbs().end(), n);
  std::uint64_t inv = n[0];  // Newton's iteration for n^-1 mod 2^64
  for (int i = 0; i < 5; ++i) inv *= 2 - n[0] * inv;
  const std::uint64_t n_prime = ~inv + 1;
  std::uint64_t x[4] = {0x0123456789abcdef, 0xfedcba9876543210, 0x0f1e2d3c4b5a6978, 1};
  for (auto _ : state) {
    mul(x, x, n, n_prime, x);
    benchmark::ClobberMemory();
  }
}
void BM_MontMul4(benchmark::State& state) { mont_mul4_chain(state, montmul::mul4); }
BENCHMARK(BM_MontMul4);
void BM_MontMul4Portable(benchmark::State& state) {
  mont_mul4_chain(state, montmul::mul4_portable);
}
BENCHMARK(BM_MontMul4Portable);

/// The CPU features mul4 dispatches on ("bmi2 adx" where both are present),
/// for the results' context: check_floors.py holds BM_MontMul4 to its floor
/// only where they show.
std::string cpu_flags() {
  std::string flags;
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0) {
    if ((ebx & bit_BMI2) != 0) flags += "bmi2";
    if ((ebx & bit_ADX) != 0) flags += flags.empty() ? "adx" : " adx";
  }
#endif
  return flags;
}

}  // namespace
}  // namespace whisper::crypto

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("cpu_flags", whisper::crypto::cpu_flags());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
