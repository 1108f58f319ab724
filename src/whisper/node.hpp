// WhisperNode: one node's full protocol stack, wired together.
//
//   Transport (Nylon routing) -> NylonPss (+Π bias) -> KeyService -> WCL
//   -> per-group Ppss instances -> applications (e.g. T-Chord)
//
// The node owns the WCL payload dispatcher: every confidential payload is
// prefixed with a GroupId and routed to the matching Ppss instance. Nodes
// that are not members of the group have no instance and silently drop the
// payload — consistent with membership secrecy.
#pragma once

#include <memory>
#include "common/densemap.hpp"

#include "keysvc/keyservice.hpp"
#include "nylon/pss.hpp"
#include "nylon/transport.hpp"
#include "ppss/ppss.hpp"
#include "net/cpumeter.hpp"
#include "telemetry/scope.hpp"
#include "wcl/wcl.hpp"

namespace whisper {

struct NodeConfig {
  nylon::TransportConfig transport;
  nylon::PssConfig pss;
  keysvc::KeyServiceConfig keys;
  wcl::WclConfig wcl;
  ppss::PpssConfig ppss;
  std::size_t rsa_bits = 512;
};

/// How many existing node cards a booting node receives, in a simulated
/// deployment (ScaleTestbed) and an in-process UDP mesh (UdpMesh) alike.
inline constexpr std::size_t kBootstrapContacts = 5;

class WhisperNode {
 public:
  /// `keypair` must outlive the node (typically from the key pool).
  /// `sinks` (optional) routes every layer's metrics and flight events into
  /// the testbed's registry and flight recorder, on this node's timeline.
  WhisperNode(net::Clock& clock, net::Stack& net, NodeId id, Endpoint internal_ep,
              bool is_public, const crypto::RsaKeyPair& keypair, NodeConfig config, Rng rng,
              telemetry::Sinks sinks = {});
  ~WhisperNode();

  WhisperNode(const WhisperNode&) = delete;
  WhisperNode& operator=(const WhisperNode&) = delete;

  NodeId id() const { return id_; }
  bool is_public() const { return transport_.is_public(); }
  Endpoint internal_endpoint() const { return transport_.internal_endpoint(); }

  /// Boot: set the relay (N-nodes), seed the view, start gossiping.
  void start(const std::vector<pss::ContactCard>& bootstrap);
  /// Full shutdown (churn departure). Safe to call twice.
  void stop();
  bool running() const { return transport_.running(); }

  nylon::Transport& transport() { return transport_; }
  nylon::NylonPss& pss() { return pss_; }
  keysvc::KeyService& keys() { return keys_; }
  wcl::Wcl& wcl() { return wcl_; }
  net::CpuMeter& cpu() { return cpu_; }
  const crypto::RsaKeyPair& keypair() const { return keypair_; }

  /// Found a new private group led by this node.
  ppss::Ppss& create_group(GroupId group, crypto::RsaKeyPair group_key);
  /// Join an existing group through `entry_point` with an accreditation.
  ppss::Ppss& join_group(GroupId group, const ppss::Accreditation& accreditation,
                         const wcl::RemotePeer& entry_point);
  /// Resume a group membership from durable state after a crash: restore
  /// the key-epoch history + passport (and for leaders the group key). The
  /// instance is started; joined() is false if the persisted passport
  /// failed re-verification (callers then fall back to a fresh join()).
  ppss::Ppss& resume_group(GroupId group,
                           const std::vector<std::pair<std::uint64_t, crypto::RsaPublicKey>>& epochs,
                           const ppss::Passport& passport,
                           std::optional<crypto::RsaKeyPair> group_key = std::nullopt);
  /// Instance lookup; nullptr when this node is not a member.
  ppss::Ppss* group(GroupId group);
  std::size_t group_count() const { return groups_.size(); }

 private:
  ppss::Ppss& make_group_instance(GroupId group);
  void dispatch_wcl(Bytes payload);

  net::Clock& clock_;
  NodeId id_;
  const crypto::RsaKeyPair& keypair_;
  NodeConfig config_;
  Rng rng_;
  telemetry::Scope tel_;
  net::CpuMeter cpu_;
  nylon::Transport transport_;
  nylon::NylonPss pss_;
  keysvc::KeyService keys_;
  wcl::Wcl wcl_;
  DenseMap<GroupId, std::unique_ptr<ppss::Ppss>> groups_;
};

}  // namespace whisper
