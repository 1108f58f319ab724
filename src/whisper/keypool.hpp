// Process-wide pool of deterministic RSA keypairs.
//
// Key generation is the only genuinely expensive part of booting a
// simulated node. Benches build several thousand-node deployments per run,
// so keypairs are generated once per (index, bits) from fixed seeds and
// reused across testbeds. This is purely a simulation-bootstrap shortcut:
// every node still holds a distinct keypair and every cryptographic
// operation is performed for real.
//
// A miss builds its keys in batches on the CPUs of the calling thread's
// affinity mask. With B keys built, a miss at idx builds
// [B, max(idx+1, min(2B, B + 64 * cpus))): up to min(cpus, batch / 8)
// threads (the caller among them) take indices from one counter, and the
// keys are appended in index order once every thread has joined; if a
// helper thread cannot start, the threads that did build its share. A batch
// too small for two threads, or a single usable CPU, builds exactly
// [B, idx] on the calling thread. Each key is keypair_for_index(i, bits)
// whichever thread builds it, so the pool is byte-identical to one grown a
// key at a time.
#pragma once

#include "crypto/rsa.hpp"

namespace whisper {

/// The idx-th pooled keypair with the given modulus size. Thread-compatible
/// (callers serialize); grows the pool on demand, and references it has
/// handed out stay valid while it grows. An exception thrown while a
/// batch is built reaches the caller, and the pool keeps the keys it had.
const crypto::RsaKeyPair& pooled_keypair(std::size_t idx, std::size_t bits);

/// The keypair pooled_keypair(idx, bits) holds, built from its fixed seed
/// without touching the pool, Montgomery caches warmed. For a process that
/// needs one identity, not the idx keys before it.
crypto::RsaKeyPair keypair_for_index(std::size_t idx, std::size_t bits);

}  // namespace whisper
