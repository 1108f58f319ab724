// Onion codec: the layered encryption used by the WCL (Section III-A).
//
// The source S prepares a path S -> M_1 -> ... -> M_f -> D. It first seals
// (content key k, ⊥) to D, then wraps layers outside-in: for each mix M the
// layer plaintext is (next-hop id || inner layer), sealed to M's public key
// with the hybrid envelope. The message body is AES-CTR(k, content) and
// travels next to the onion header unchanged; only D can read it.
//
// A mix that peels its layer learns the next hop's id from the layer.
// Nothing in the layer says whether that hop is another mix or the
// destination, but the header does: it shrinks by one envelope per hop (the
// paper uses no fixed-size cells, and neither do we), so for a known path
// length f its size tells a mix, and anyone watching its links, which hop
// of the path it is: whether its predecessor was the source and whether
// its next hop is the destination. Multi-point traffic analysis stays
// outside the threat model.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "crypto/envelope.hpp"

namespace whisper::crypto {

/// One hop of an onion path (a mix or the final destination).
struct OnionHop {
  NodeId id;
  RsaPublicKey key;
  /// Address hint for reaching this hop, baked into the *previous* layer so
  /// the forwarding mix knows where to send. May be nil when the forwarder
  /// is expected to resolve the node locally (e.g. the next-to-last hop has
  /// a NAT-traversal route to the destination from a recent gossip
  /// exchange).
  Endpoint addr;
};

/// Wire caps for onion frames. Headers hold one envelope per hop (a few
/// hundred bytes each at the paper's key sizes); bodies carry application
/// payloads. A forged length prefix beyond these is rejected before any
/// allocation happens.
inline constexpr std::size_t kMaxOnionHeader = 16 * 1024;
inline constexpr std::size_t kMaxOnionBody = 1024 * 1024;

/// A fully built onion message: the layered header plus the content body.
struct OnionPacket {
  Bytes header;
  Bytes body;

  Bytes serialize() const;
  static std::optional<OnionPacket> deserialize(BytesView data);
  std::size_t wire_size() const { return header.size() + body.size() + 8; }
};

/// The symmetric content key material carried in the innermost layer.
struct OnionKeys {
  AesKey k;
  AesBlock iv;
};

OnionKeys onion_fresh_keys(Drbg& drbg);

/// Encrypt/decrypt the content body with the content key (CTR mode: the
/// same operation in both directions). Split out from onion_build so that
/// callers can account AES time separately from RSA time (Table II).
Bytes onion_crypt_body(const OnionKeys& keys, BytesView data);

/// Build just the layered header for `path` carrying `keys` to the
/// destination. Path: mixes in forward order, destination last; the source
/// is not part of the path. Must be non-empty.
Bytes onion_build_header(std::span<const OnionHop> path, const OnionKeys& keys, Drbg& drbg);

/// Convenience: fresh keys + body encryption + header build.
OnionPacket onion_build(std::span<const OnionHop> path, BytesView content, Drbg& drbg);

/// Result of peeling one layer at a node.
struct OnionPeel {
  /// True iff this node is the destination; `content` is then the decrypted
  /// message and `next_hop`/`next_packet` are meaningless.
  bool is_destination = false;
  NodeId next_hop;
  /// Address hint for the next hop (nil if the forwarder must resolve it).
  Endpoint next_addr;
  OnionPacket next_packet;
  /// Destination only: content key material (for onion_crypt_body).
  OnionKeys keys{};
  /// Destination only, onion_peel() convenience: the decrypted content.
  Bytes content;
};

/// Peel one header layer with the local private key; does NOT decrypt the
/// body (at the destination, `keys` is populated instead). nullopt if the
/// packet is not addressed to this key or is malformed.
std::optional<OnionPeel> onion_peel_header(const RsaKeyPair& key, const OnionPacket& packet);

/// Convenience: peel and, at the destination, also decrypt the body.
std::optional<OnionPeel> onion_peel(const RsaKeyPair& key, const OnionPacket& packet);

}  // namespace whisper::crypto
