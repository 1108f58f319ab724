// Regenerates the committed seed corpus under tests/fuzz/corpus/.
//
//   ./fuzz_make_corpus <repo>/tests/fuzz/corpus
//
// One seed per codec selector: a valid encoding prefixed with its dispatch
// byte, so coverage-guided mutation starts from the deepest paths of every
// deserializer instead of having to discover the framing from scratch.
// Deterministic (fixed Drbg/Rng seeds) — rerunning produces identical files.
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "chord/tchord.hpp"
#include "common/rng.hpp"
#include "crypto/onion.hpp"
#include "crypto/rsa.hpp"
#include "nylon/pss.hpp"
#include "ppss/group.hpp"
#include "ppss/ppss.hpp"
#include "store/state.hpp"
#include "telemetry/health.hpp"
#include "wcl/wcl.hpp"

namespace whisper {
namespace {

pss::ContactCard sample_card(Rng& rng) {
  pss::ContactCard c;
  c.id = NodeId{rng.next_u64() | 1};
  c.addr = Endpoint{static_cast<std::uint32_t>(rng.next_u64()),
                    static_cast<std::uint16_t>(rng.next_u64())};
  c.is_public = rng.next_bool(0.5);
  c.relay_id = NodeId{rng.next_u64()};
  return c;
}

wcl::RemotePeer sample_peer(Rng& rng, const crypto::RsaPublicKey& key,
                            std::size_t helpers) {
  wcl::RemotePeer p;
  p.card = sample_card(rng);
  p.key = key;
  for (std::size_t i = 0; i < helpers; ++i) {
    wcl::Helper h;
    h.card = sample_card(rng);
    h.key = key;
    p.helpers.push_back(std::move(h));
  }
  return p;
}

void emit(const std::filesystem::path& dir, const char* name,
          std::uint8_t selector, const Bytes& body) {
  Bytes seed;
  seed.push_back(selector);
  seed.insert(seed.end(), body.begin(), body.end());
  std::ofstream out(dir / name, std::ios::binary);
  out.write(reinterpret_cast<const char*>(seed.data()),
            static_cast<std::streamsize>(seed.size()));
  std::printf("wrote %s (%zu bytes)\n", (dir / name).string().c_str(), seed.size());
}

}  // namespace
}  // namespace whisper

int main(int argc, char** argv) {
  using namespace whisper;
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-dir>\n", argv[0]);
    return 1;
  }
  const std::filesystem::path root(argv[1]);
  const std::filesystem::path codecs = root / "codecs";
  std::filesystem::create_directories(codecs);

  Rng rng(2718);
  crypto::Drbg drbg(31415);
  const crypto::RsaPublicKey key = crypto::RsaKeyPair::generate(512, drbg).pub;

  {
    Writer w;
    sample_card(rng).serialize(w);
    emit(codecs, "contact_card", 0, w.data());
  }
  {
    nylon::PssEntry e;
    e.card = sample_card(rng);
    e.age = 17;
    Writer w;
    e.serialize(w);
    emit(codecs, "pss_entry", 1, w.data());
  }
  {
    ppss::PrivateEntry e;
    e.peer = sample_peer(rng, key, 3);
    e.age = 4;
    Writer w;
    e.serialize(w);
    emit(codecs, "private_entry", 2, w.data());
  }
  {
    Writer w;
    sample_peer(rng, key, 2).serialize(w);
    emit(codecs, "remote_peer", 3, w.data());
  }
  {
    chord::ChordDescriptor d;
    d.key = rng.next_u64();
    d.peer = sample_peer(rng, key, 2);
    Writer w;
    d.serialize(w);
    emit(codecs, "chord_descriptor", 4, w.data());
  }
  {
    ppss::Passport p;
    p.node = NodeId{7};
    p.epoch = 3;
    p.signature = Bytes(48, 0x5a);
    Writer w;
    p.serialize(w);
    emit(codecs, "passport", 5, w.data());
  }
  {
    ppss::Accreditation a;
    a.group = GroupId{9};
    a.node = NodeId{11};
    a.epoch = 2;
    a.signature = Bytes(48, 0xa5);
    Writer w;
    a.serialize(w);
    emit(codecs, "accreditation", 6, w.data());
  }
  emit(codecs, "rsa_public_key", 7, key.serialize());
  {
    crypto::OnionPacket pkt;
    pkt.header = Bytes(40, 0x11);
    pkt.body = Bytes(60, 0x22);
    emit(codecs, "onion_packet", 8, pkt.serialize());
  }

  // Durable-store seeds (fuzz_store selectors, see fuzz_store.cpp).
  const std::filesystem::path store_dir = root / "store";
  std::filesystem::create_directories(store_dir);
  const crypto::RsaKeyPair identity = crypto::RsaKeyPair::generate(512, drbg);

  store::StoredGroup leader_group;
  leader_group.group = GroupId{7};
  leader_group.is_leader = true;
  leader_group.epochs.emplace_back(1, identity.pub);
  leader_group.passport = ppss::issue_passport(GroupId{7}, 1, NodeId{42}, identity);
  leader_group.group_key = identity;

  store::StoredGroup member_group;
  member_group.group = GroupId{8};
  member_group.epochs.emplace_back(1, key);
  member_group.passport = ppss::issue_passport(GroupId{8}, 1, NodeId{42}, identity);
  member_group.accreditation = ppss::issue_accreditation(GroupId{8}, 1, NodeId{42}, identity);
  member_group.entry_point = sample_peer(rng, key, 2);

  {
    store::NodeState st;
    st.id = NodeId{42};
    st.is_public = true;
    st.endpoint = Endpoint{(127u << 24) | 1, 40123};
    st.incarnation = 3;
    st.identity = identity;
    st.groups.push_back(leader_group);
    st.groups.push_back(member_group);
    st.peer_hints.push_back(sample_card(rng));
    emit(store_dir, "node_state", 0, st.serialize());
  }
  {
    Writer w;
    member_group.serialize(w);
    emit(store_dir, "stored_group", 1, w.data());
  }
  {
    Writer w;
    store::serialize_keypair(w, identity);
    emit(store_dir, "keypair", 2, w.data());
  }

  // Observability-plane seeds (fuzz_admin selectors, see fuzz_admin.cpp):
  // one valid health record and one admin request.
  const std::filesystem::path admin_dir = root / "admin";
  std::filesystem::create_directories(admin_dir);
  {
    telemetry::HealthSnapshot snap;
    snap.node = 3;
    snap.pid = 12345;
    snap.incarnation = 2;
    snap.seq = 7;
    snap.now_us = 4'200'000;
    snap.uptime_us = 4'100'000;
    snap.metrics = {{"wcl.onions.delivered", 11.0},
                    {"pss.exchange.rtt_us#p95", 4321.0},
                    {"wcl.backlog.depth{node=n3}", 4.0},
                    {"proc.rss_kb", 9000.0},
                    {"proc.cpu_us", 123456.0}};
    emit(admin_dir, "health_record", 0, telemetry::encode_health_record(snap));
  }
  emit(admin_dir, "admin_request", 1,
       telemetry::encode_admin_request(telemetry::AdminOp::kStats));
  return 0;
}
