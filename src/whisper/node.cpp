#include "whisper/node.hpp"

namespace whisper {

WhisperNode::WhisperNode(net::Clock& clock, net::Stack& net, NodeId id,
                         Endpoint internal_ep, bool is_public,
                         const crypto::RsaKeyPair& keypair, NodeConfig config, Rng rng,
                         telemetry::Sinks sinks)
    : clock_(clock), id_(id), keypair_(keypair), config_(std::move(config)), rng_(rng),
      tel_(sinks, id.value),
      transport_(clock, net, id, internal_ep, is_public, config_.transport, tel_),
      pss_(clock, transport_, config_.pss, rng_.fork(), tel_),
      keys_(clock, transport_, keypair_, config_.keys),
      wcl_(clock, transport_, keys_, pss_, cpu_, config_.wcl, rng_.fork(), tel_) {
  transport_.set_cpu_meter(&cpu_);
  // A peer that shows up with a bumped incarnation crashed and restarted:
  // the transport has already purged its routes; clear the PSS strikes (the
  // rejoin is proof-of-life) and the WCL's RTT memory of the old process.
  transport_.on_peer_restart = [this](NodeId peer) {
    pss_.note_peer_restart(peer);
    wcl_.note_peer_restart(peer);
  };
  // Public key sampling rides on the PSS gossip (§III-B-2)...
  pss_.extra_provider = [this] { return keys_.piggyback(); };
  pss_.extra_consumer = [this](const pss::ContactCard& from, BytesView extra) {
    keys_.consume(from, extra);
  };
  // ...and every completed exchange feeds the connection backlog (§III-A).
  pss_.on_exchange = [this](const pss::ContactCard& partner) {
    wcl_.on_gossip_exchange(partner);
  };
  // Confidential payloads are routed to the owning group instance.
  wcl_.on_deliver = [this](Bytes payload) { dispatch_wcl(std::move(payload)); };
}

WhisperNode::~WhisperNode() { stop(); }

void WhisperNode::start(const std::vector<pss::ContactCard>& bootstrap) {
  if (!transport_.is_public()) {
    // An N-node needs a relay before it is reachable at all: pick the first
    // public bootstrap contact (the PSS repairs the choice later if needed).
    for (const auto& card : bootstrap) {
      if (card.is_public) {
        transport_.set_relay(card);
        break;
      }
    }
  }
  pss_.bootstrap(bootstrap);
  pss_.start();
}

void WhisperNode::stop() {
  for (auto&& [gid, group] : groups_) group->stop();
  pss_.stop();
  transport_.shutdown();
}

ppss::Ppss& WhisperNode::make_group_instance(GroupId group) {
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    auto instance = std::make_unique<ppss::Ppss>(clock_, wcl_, id_, group, cpu_, config_.ppss,
                                                 rng_.fork(), tel_);
    it = groups_.emplace(group, std::move(instance)).first;
  }
  return *it->second;
}

ppss::Ppss& WhisperNode::create_group(GroupId group, crypto::RsaKeyPair group_key) {
  ppss::Ppss& instance = make_group_instance(group);
  instance.found_group(std::move(group_key));
  instance.start();
  return instance;
}

ppss::Ppss& WhisperNode::join_group(GroupId group, const ppss::Accreditation& accreditation,
                                    const wcl::RemotePeer& entry_point) {
  ppss::Ppss& instance = make_group_instance(group);
  instance.join(accreditation, entry_point);
  instance.start();
  return instance;
}

ppss::Ppss& WhisperNode::resume_group(
    GroupId group, const std::vector<std::pair<std::uint64_t, crypto::RsaPublicKey>>& epochs,
    const ppss::Passport& passport, std::optional<crypto::RsaKeyPair> group_key) {
  ppss::Ppss& instance = make_group_instance(group);
  instance.resume(epochs, passport, std::move(group_key));
  instance.start();
  return instance;
}

ppss::Ppss* WhisperNode::group(GroupId group) {
  auto it = groups_.find(group);
  return it == groups_.end() ? nullptr : it->second.get();
}

void WhisperNode::dispatch_wcl(Bytes payload) {
  Reader r(payload);
  const GroupId group = r.group_id();
  if (!r.ok()) return;
  auto it = groups_.find(group);
  if (it == groups_.end()) return;  // not a member: drop silently
  cpu_.charge(net::CpuCategory::kPpssHandler,
              [&] { it->second->handle_payload(r.rest()); });
}

}  // namespace whisper
