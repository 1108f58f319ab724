// Simulator-side NAT fabric (the paper's SPLAY NAT-emulation feature, §V-A).
//
// The per-device mapping/filtering rules live in the backend-agnostic rule
// engine (nat/rules.hpp) — shared verbatim with the real-socket interposer
// in net/shim.hpp. This file keeps the sim coupling: NatFabric owns every
// device in a simulated deployment, allocates the address plan, and plugs
// into sim::Network as its AddressTranslator.
#pragma once

#include <memory>
#include <vector>

#include "common/densemap.hpp"
#include "common/ids.hpp"
#include "nat/rules.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace whisper::nat {

/// The collection of all NAT devices in a deployment; implements the
/// sim::Network translator hook. Also acts as the address allocator for
/// the whole simulated internet.
class NatFabric : public sim::AddressTranslator {
 public:
  explicit NatFabric(sim::Simulator& sim, NatConfig config = {});

  /// Allocate a public node address (no NAT device).
  Endpoint add_public_node();

  /// Allocate a private address behind a fresh NAT device of the given type.
  Endpoint add_natted_node(NatType type);

  /// Explicit-address variants for the sharded testbed: addresses there are
  /// a pure function of the global node index, so every shard's fabric
  /// registers non-colliding, shard-count-invariant endpoints instead of
  /// drawing from its own sequential allocator.
  Endpoint add_public_node_at(std::uint32_t public_ip);
  Endpoint add_natted_node_at(NatType type, std::uint32_t private_ip,
                              std::uint32_t device_ip);

  /// Remove a node's addressing state (churn departure).
  void remove_node(Endpoint internal_ep);

  /// Reset the NAT device in front of `internal_ep` (no-op for public
  /// nodes). Returns true if a device was reset.
  bool reset_mappings(Endpoint internal_ep);

  bool is_public(Endpoint internal_ep) const;
  NatType type_of(Endpoint internal_ep) const;

  // sim::AddressTranslator:
  std::optional<Endpoint> outbound(Endpoint internal_src, Endpoint public_dst) override;
  std::optional<Endpoint> inbound(Endpoint public_dst, Endpoint public_src) override;

 private:
  sim::Simulator& sim_;
  NatConfig config_;
  std::uint32_t next_public_ip_ = (1u << 24) | 1;    // 1.0.0.1...
  std::uint32_t next_private_ip_ = (10u << 24) | 1;  // 10.0.0.1...
  std::uint32_t next_device_ip_ = (100u << 24) | 1;  // 100.0.0.1...
  // internal endpoint -> owning device index (or none for public nodes)
  DenseMap<Endpoint, std::size_t> node_device_;
  DenseMap<std::uint32_t, std::size_t> device_by_ip_;
  std::vector<std::unique_ptr<NatDevice>> devices_;
  DenseMap<Endpoint, NatType> node_type_;
};

}  // namespace whisper::nat
