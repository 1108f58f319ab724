// Quickstart: the smallest end-to-end WHISPER program.
//
// Builds a small simulated network (NATs included), creates one private
// group, invites a member, and exchanges a confidential message. This
// walks the whole stack: Nylon PSS -> key sampling -> WCL onion routes ->
// PPSS group membership.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "whisper/scale.hpp"

using namespace whisper;

int main() {
  // 1. A simulated deployment: 40 nodes, 70% behind NATs, LAN latency.
  ScaleConfig cfg;
  cfg.initial_nodes = 40;
  cfg.natted_fraction = 0.7;
  cfg.latency = "cluster";
  cfg.node.pss.pi_min_public = 3;  // keep Π=3 P-nodes in every view
  cfg.node.wcl.pi = 3;
  cfg.seed = 7;
  ScaleTestbed tb(cfg);

  // 2. Let the substrate converge: peer sampling fills views, keys spread,
  //    connection backlogs fill with NAT-valid routes.
  std::printf("warming up the overlay (peer sampling + key sampling)...\n");
  tb.run_for(6 * net::kMinute);

  WhisperNode* alice = tb.alive_nodes()[0];
  WhisperNode* bob = tb.alive_nodes()[1];
  std::printf("alice=%s (%s), bob=%s (%s)\n", alice->id().str().c_str(),
              alice->is_public() ? "public" : "natted", bob->id().str().c_str(),
              bob->is_public() ? "public" : "natted");

  // 3. Alice founds a private group. The group has a keypair; Alice, as the
  //    leader, holds the private key and can issue invitations.
  const GroupId group{1};
  crypto::Drbg drbg(42);
  ppss::Ppss& alice_group = alice->create_group(group, crypto::RsaKeyPair::generate(512, drbg));
  std::printf("alice founded group %s (leader epoch %llu)\n", group.str().c_str(),
              static_cast<unsigned long long>(alice_group.leader_epoch()));

  // 4. Bob joins with an accreditation (in a real deployment this would be
  //    delivered out-of-band: email, chat, ...), gets his passport back.
  auto invitation = alice_group.invite(bob->id());
  ppss::Ppss& bob_group = bob->join_group(group, *invitation, alice_group.self_descriptor());
  tb.run_for(2 * net::kMinute);
  std::printf("bob joined: %s (passport verified: %s)\n", bob_group.joined() ? "yes" : "no",
              bob_group.keyring().verify_passport(bob_group.passport()) ? "yes" : "no");

  // 5. Confidential application traffic: content is onion-encrypted and
  //    routed S -> mix A -> mix B -> D; mixes and NAT relays see nothing.
  bob_group.on_app_message = [&](const wcl::RemotePeer& from, BytesView payload) {
    std::printf("bob received from %s: \"%s\"\n", from.card.id.str().c_str(),
                to_string(payload).c_str());
    bob_group.send_app_to(from, to_bytes("psst! got it."));
  };
  alice_group.on_app_message = [&](const wcl::RemotePeer& from, BytesView payload) {
    std::printf("alice received from %s: \"%s\"\n", from.card.id.str().c_str(),
                to_string(payload).c_str());
  };
  alice_group.send_app_to(bob_group.self_descriptor(), to_bytes("meet at the usual place"));
  tb.run_for(net::kMinute);

  // 6. What did it cost? WCL statistics from Alice's node.
  const auto& stats = alice->wcl().stats();
  std::printf("\nalice's WCL: %llu first-try paths, %llu via alternatives, %llu failures\n",
              static_cast<unsigned long long>(stats.first_try_success),
              static_cast<unsigned long long>(stats.alternative_success),
              static_cast<unsigned long long>(stats.no_alternative));
  std::printf("done.\n");
  return 0;
}
