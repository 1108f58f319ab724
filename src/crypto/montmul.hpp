// The 4-limb Montgomery multiply kernels behind MontgomeryCtx (defined in
// bigint.cpp). MontgomeryCtx runs mul4; the tests compare it with
// mul4_portable here, and bench_crypto_micro times both.
//
// Four limbs is 256 bits, the width of each CRT half of a 512-bit key, so
// every private op on the simulator's keys runs on this kernel. On x86-64
// CPUs with BMI2 and ADX (read once per process from CPUID leaf 7; no build
// flag) it is an inline-asm CIOS: the four rows unrolled, each multiply a
// mulx with its low halves summed on the adcx carry chain and its high
// halves on the adox chain, and a final subtraction without a branch.
// Elsewhere it is the portable CIOS loop.
#pragma once

#include <cstdint>

namespace whisper::crypto::montmul {

/// out = a * b * 2^-256 mod n on 4-limb little-endian buffers, fully
/// reduced when a and b are below n. n is odd, n_prime = -n^-1 mod 2^64.
/// out may alias a or b. CIOS in portable C++: the fallback, and the
/// reference the dispatched kernel is tested against.
void mul4_portable(const std::uint64_t* a, const std::uint64_t* b, const std::uint64_t* n,
                   std::uint64_t n_prime, std::uint64_t* out);

/// The same product, bit for bit, through the kernel this CPU runs: the
/// BMI2/ADX one where the CPU has both, mul4_portable elsewhere.
void mul4(const std::uint64_t* a, const std::uint64_t* b, const std::uint64_t* n,
          std::uint64_t n_prime, std::uint64_t* out);

}  // namespace whisper::crypto::montmul
