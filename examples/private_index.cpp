// Private distributed index: the paper's §V-G scenario — a subset of nodes
// operates a Chord DHT *inside* a private group "to share the location of
// sensitive data", with all traffic over WCL confidential routes.
//
// Builds the T-Chord ring, stores a few key->value bindings at their ring
// owners, then looks them up from random members, printing routing costs.
//
//   $ ./examples/private_index
#include <cstdio>

#include <map>

#include "chord/tchord.hpp"
#include "crypto/sha256.hpp"
#include "whisper/scale.hpp"

using namespace whisper;

namespace {

chord::ChordKey key_for(const std::string& name) {
  return crypto::fingerprint64(to_bytes(name));
}

}  // namespace

int main() {
  ScaleConfig cfg;
  cfg.initial_nodes = 80;
  cfg.natted_fraction = 0.7;
  cfg.node.pss.pi_min_public = 3;
  cfg.node.wcl.pi = 3;
  cfg.node.ppss.cycle = 30 * net::kSecond;
  cfg.seed = 123;
  ScaleTestbed tb(cfg);
  std::printf("booting 80-node network; 16 nodes will run a private index...\n");
  tb.run_for(6 * net::kMinute);

  // Found the group and enroll 16 members.
  const GroupId group{7};
  auto nodes = tb.alive_nodes();
  crypto::Drbg drbg(7);
  ppss::Ppss& founder = nodes[0]->create_group(group, crypto::RsaKeyPair::generate(512, drbg));
  std::vector<WhisperNode*> members{nodes[0]};
  for (std::size_t i = 1; i < 16; ++i) {
    nodes[i]->join_group(group, *founder.invite(nodes[i]->id()), founder.self_descriptor());
    members.push_back(nodes[i]);
    tb.run_for(5 * net::kSecond);
  }
  tb.run_for(4 * net::kMinute);

  // Bootstrap T-Chord on every member.
  chord::TChordConfig tc;
  tc.cycle = 20 * net::kSecond;
  std::vector<std::unique_ptr<chord::TChord>> rings;
  Rng ring_rng(cfg.seed ^ 0xc40d);
  for (WhisperNode* m : members) {
    rings.push_back(std::make_unique<chord::TChord>(tb.simulator(0), *m->group(group), tc,
                                                    ring_rng.fork()));
    rings.back()->start();
  }
  std::printf("converging the private Chord ring...\n");
  tb.run_for(8 * net::kMinute);

  // Check ring health against global knowledge.
  std::map<chord::ChordKey, NodeId> global;
  for (WhisperNode* m : members) global[chord::chord_key_of(m->id())] = m->id();
  std::size_t correct_succ = 0;
  for (auto& r : rings) {
    auto succ = r->successor();
    auto it = global.upper_bound(r->self_key());
    if (it == global.end()) it = global.begin();
    if (succ && succ->id() == it->second) ++correct_succ;
  }
  std::printf("ring converged: %zu/%zu correct successors\n", correct_succ, rings.size());

  // "Store" documents: the owner of hash(name) is responsible for it.
  const char* documents[] = {"fieldnotes.pdf", "sources.txt", "ledger-2026.db",
                             "safehouse-map.png", "contact-sheet.csv"};
  std::printf("\nresolving document owners through the private index:\n");
  Rng rng(55);
  int resolved = 0;
  for (const char* doc : documents) {
    const chord::ChordKey key = key_for(doc);
    auto it = global.lower_bound(key);
    if (it == global.end()) it = global.begin();
    const NodeId expected = it->second;
    auto& querier = rings[rng.pick_index(rings)];
    querier->lookup(key, [&, doc, expected](std::optional<chord::TChord::LookupResult> res) {
      if (!res) {
        std::printf("  %-18s lookup timed out\n", doc);
        return;
      }
      ++resolved;
      std::printf("  %-18s -> owner %-5s (%u hops, %.0f ms)%s\n", doc,
                  res->owner.id().str().c_str(), res->hops,
                  static_cast<double>(res->rtt) / net::kMillisecond,
                  res->owner.id() == expected ? "" : "  [stale owner]");
    });
    tb.run_for(45 * net::kSecond);  // leaves room for one lookup retry
  }

  std::printf("\n%d/5 documents resolved — every hop travelled over onion-encrypted\n"
              "WCL routes; nodes outside the group cannot even tell the index exists.\n",
              resolved);
  return 0;
}
