#include "whisper/keypool.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>
#include <map>
#include <system_error>
#include <thread>
#include <vector>

namespace whisper {

namespace {

/// Fewest keys that earn a batch thread (a 512-bit key is ~2.5 ms of CPU).
constexpr std::size_t kMinKeysPerThread = 8;
/// A miss looks ahead at most this many keys per usable CPU.
constexpr std::size_t kLookAheadPerCpu = 64;

/// CPUs in the calling thread's affinity mask, not the host's hardware
/// threads: a process pinned to one core must not start four keygen threads
/// on it. Batch threads inherit the mask.
std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(CPU_COUNT(&set), 1));
}

/// Keys [begin, end), in index order, built by up to `threads` threads
/// (the caller is one) that take indices from one counter. Joins every thread
/// before it returns; the first worker exception is then rethrown.
std::vector<crypto::RsaKeyPair> build_batch(std::size_t begin, std::size_t end,
                                            std::size_t bits, std::size_t threads) {
  std::vector<crypto::RsaKeyPair> keys(end - begin);
  std::vector<std::exception_ptr> errors(threads);
  std::atomic<std::size_t> next{begin};
  auto work = [&](std::size_t t) {
    try {
      for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < end;) {
        keys[i - begin] = keypair_for_index(i, bits);
      }
    } catch (...) {
      errors[t] = std::current_exception();
      next.store(end, std::memory_order_relaxed);  // the others stop early
    }
  };
  {
    std::vector<std::jthread> helpers;
    helpers.reserve(threads - 1);
    try {
      for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(work, t);
    } catch (const std::system_error&) {
      // No thread to spare (a pids or process limit): the caller and the
      // helpers that did start build the rest from the same counter.
    }
    work(0);
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return keys;
}

}  // namespace

crypto::RsaKeyPair keypair_for_index(std::size_t idx, std::size_t bits) {
  // Seed derived from (bits, index) so pools are stable across runs.
  crypto::Drbg drbg(0x57A7 + bits * 1'000'003 + idx);
  crypto::RsaKeyPair key = crypto::RsaKeyPair::generate(bits, drbg);
  // CRT params are computed by generate(); warm the Montgomery caches too,
  // so every copy of a pooled key (node cards, onion hops) shares them.
  key.warm_cache();
  return key;
}

const crypto::RsaKeyPair& pooled_keypair(std::size_t idx, std::size_t bits) {
  // deque: references stay valid while the pool grows (nodes hold on to
  // their keypair by reference).
  static std::map<std::size_t, std::deque<crypto::RsaKeyPair>> pools;
  auto& pool = pools[bits];
  if (idx < pool.size()) return pool[idx];

  const std::size_t built = pool.size();
  const std::size_t cpus = usable_cpus();
  const std::size_t end =
      std::max(idx + 1, std::min(2 * built, built + kLookAheadPerCpu * cpus));
  const std::size_t threads = std::min(cpus, (end - built) / kMinKeysPerThread);
  // Without a second thread the caller builds exactly [built, idx].
  for (crypto::RsaKeyPair& key : build_batch(built, threads < 2 ? idx + 1 : end, bits,
                                             std::max<std::size_t>(threads, 1))) {
    pool.push_back(std::move(key));
  }
  return pool[idx];
}

}  // namespace whisper
