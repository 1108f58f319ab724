// Known answers for RSA key generation and private-key operations.
//
// Every key a deployment holds comes from keypair_for_index, and every onion
// peel and passport signature from rsa_decrypt / rsa_sign. The determinism
// tests compare one build with itself; these SHA-256 digests pin the bytes
// across builds, so a prime test, multiply kernel or exponentiation loop
// that changed one key or one output fails here.
#include <gtest/gtest.h>

#include <string>

#include "common/serialize.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "whisper/keypool.hpp"

namespace whisper {
namespace {

using crypto::BigInt;
using crypto::RsaKeyPair;

// Every component of the keypair, length-prefixed, in a fixed order.
Bytes key_material(const RsaKeyPair& k) {
  Writer w;
  for (const BigInt* v : {&k.pub.n, &k.pub.e, &k.d, &k.p, &k.q, &k.dp, &k.dq, &k.qinv}) {
    w.bytes(v->to_bytes());
  }
  return std::move(w).take();
}

std::string digest_hex(crypto::Sha256& h) {
  const crypto::Digest256 d = h.finish();
  return to_hex(BytesView(d.data(), d.size()));
}

std::string keys_digest(std::size_t bits, std::size_t count) {
  crypto::Sha256 h;
  for (std::size_t i = 0; i < count; ++i) h.update(key_material(keypair_for_index(i, bits)));
  return digest_hex(h);
}

// Ciphertexts, decryptions, signatures and raw private ops (CRT and plain)
// of one key on inputs drawn from a fixed DRBG.
std::string private_ops_digest(const RsaKeyPair& key, std::uint64_t seed) {
  crypto::Drbg drbg(seed);
  const RsaKeyPair plain{key.pub, key.d};
  crypto::Sha256 h;
  for (std::size_t i = 0; i < 16; ++i) {
    const Bytes msg = drbg.bytes(1 + i * 3 % key.pub.max_message());
    const Bytes ct = crypto::rsa_encrypt(key.pub, msg, drbg);
    const auto pt = crypto::rsa_decrypt(key, ct);
    EXPECT_TRUE(pt && *pt == msg) << "message " << i;
    h.update(ct);
    if (pt) h.update(*pt);
    h.update(crypto::rsa_sign(key, msg));
    const BigInt c = BigInt::from_bytes(drbg.bytes(key.pub.block_size())) % key.pub.n;
    const BigInt m = crypto::rsa_private_op(key, c);
    EXPECT_EQ(m, crypto::rsa_private_op(plain, c)) << "input " << i;
    h.update(m.to_bytes_padded(key.pub.block_size()));
  }
  return digest_hex(h);
}

TEST(RsaKnownAnswer, PooledKeys512) {
  EXPECT_EQ(keys_digest(512, 32),
            "ac3de3978beb7ec6b2c8029741d89b323ddda60a70721be132e4d8fe1c8d7473");
}

TEST(RsaKnownAnswer, Keys384And1024) {
  EXPECT_EQ(keys_digest(384, 4),
            "4fe5176987c8be44f3d5e060a38faf408db87e66907c6c23725d63b19a150a88");
  EXPECT_EQ(keys_digest(1024, 2),
            "a358cc3e210895595642dec794abf6c8c5a406f91771699e4742c6cad7a07be4");
}

TEST(RsaKnownAnswer, PrivateOps) {
  EXPECT_EQ(private_ops_digest(keypair_for_index(0, 384), 11),
            "96c032cbc1ba3afc5301d792f4117eb7b5181ece98777dec95bd30eb899acc04");
  EXPECT_EQ(private_ops_digest(keypair_for_index(0, 512), 12),
            "69eb1cd1a155d974cfedd72780ae251eae8423c01380e4335d20199682893ee3");
  EXPECT_EQ(private_ops_digest(keypair_for_index(0, 1024), 13),
            "821599c7428ff3b065b08ccfd472196b87be0d6d326b26c80741a92bb2ad1a25");
  // The primes of a 520-bit key are 260 bits, five limbs each, so neither
  // CRT half runs on the 4-limb kernel.
  crypto::Drbg keyseed(520);
  EXPECT_EQ(private_ops_digest(RsaKeyPair::generate(520, keyseed), 14),
            "3f7e66e3f7a9a18a85199646b0ee622737c60cec3cc0560ef0aac0acb8555d06");
}

}  // namespace
}  // namespace whisper
