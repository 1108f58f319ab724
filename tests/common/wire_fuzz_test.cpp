// Wire-format robustness: every serializable protocol struct must
// round-trip its own encoding and reject (never crash on) random garbage.
#include <gtest/gtest.h>

#include <functional>

#include "chord/tchord.hpp"
#include "common/rng.hpp"
#include "nylon/pss.hpp"
#include "ppss/group.hpp"
#include "ppss/ppss.hpp"
#include "wcl/wcl.hpp"

namespace whisper {
namespace {

const crypto::RsaPublicKey& some_key() {
  static const crypto::RsaPublicKey k = [] {
    crypto::Drbg d(31415);
    return crypto::RsaKeyPair::generate(512, d).pub;
  }();
  return k;
}

pss::ContactCard random_card(Rng& rng) {
  pss::ContactCard c;
  c.id = NodeId{rng.next_u64() | 1};
  c.addr = Endpoint{static_cast<std::uint32_t>(rng.next_u64()),
                    static_cast<std::uint16_t>(rng.next_u64())};
  c.is_public = rng.next_bool(0.5);
  c.relay_id = NodeId{rng.next_u64()};
  return c;
}

wcl::RemotePeer random_peer(Rng& rng, std::size_t helpers) {
  wcl::RemotePeer p;
  p.card = random_card(rng);
  p.key = some_key();
  for (std::size_t i = 0; i < helpers; ++i) {
    wcl::Helper h;
    h.card = random_card(rng);
    h.key = some_key();
    p.helpers.push_back(std::move(h));
  }
  return p;
}

TEST(WireFuzz, ContactCardRoundTrip) {
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    pss::ContactCard c = random_card(rng);
    Writer w;
    c.serialize(w);
    Reader r(w.data());
    EXPECT_EQ(pss::ContactCard::deserialize(r), c);
    EXPECT_TRUE(r.done());
  }
}

TEST(WireFuzz, PssEntryRoundTrip) {
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    nylon::PssEntry e;
    e.card = random_card(rng);
    e.age = static_cast<std::uint32_t>(rng.next_u64());
    Writer w;
    e.serialize(w);
    Reader r(w.data());
    nylon::PssEntry back = nylon::PssEntry::deserialize(r);
    EXPECT_EQ(back.card, e.card);
    EXPECT_EQ(back.age, e.age);
    EXPECT_TRUE(r.done());
  }
}

TEST(WireFuzz, PrivateEntryRoundTrip) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    ppss::PrivateEntry e;
    e.peer = random_peer(rng, rng.next_below(4));
    e.age = static_cast<std::uint32_t>(rng.next_u64());
    Writer w;
    e.serialize(w);
    Reader r(w.data());
    auto back = ppss::PrivateEntry::deserialize(r);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->peer.card, e.peer.card);
    EXPECT_EQ(back->peer.helpers.size(), e.peer.helpers.size());
    EXPECT_EQ(back->age, e.age);
    EXPECT_TRUE(r.done());
  }
}

TEST(WireFuzz, ChordDescriptorRoundTrip) {
  Rng rng(4);
  for (int i = 0; i < 50; ++i) {
    chord::ChordDescriptor d;
    d.key = rng.next_u64();
    d.peer = random_peer(rng, 2);
    Writer w;
    d.serialize(w);
    Reader r(w.data());
    auto back = chord::ChordDescriptor::deserialize(r);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->key, d.key);
    EXPECT_EQ(back->peer.card, d.peer.card);
  }
}

TEST(WireFuzz, PassportAndAccreditationRoundTrip) {
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    ppss::Passport p;
    p.node = NodeId{rng.next_u64()};
    p.epoch = rng.next_u64();
    p.signature = Bytes(rng.next_below(100));
    rng.fill_bytes(p.signature.data(), p.signature.size());
    Writer w;
    p.serialize(w);
    Reader r(w.data());
    auto back = ppss::Passport::deserialize(r);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->node, p.node);
    EXPECT_EQ(back->epoch, p.epoch);
    EXPECT_EQ(back->signature, p.signature);
  }
}

// Garbage in, nullopt (or garbage values) out — never a crash or a read
// past the buffer.
TEST(WireFuzz, GarbageNeverCrashesDeserializers) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    Bytes garbage(rng.next_below(300));
    rng.fill_bytes(garbage.data(), garbage.size());
    {
      Reader r(garbage);
      (void)pss::ContactCard::deserialize(r);
    }
    {
      Reader r(garbage);
      (void)nylon::PssEntry::deserialize(r);
    }
    {
      Reader r(garbage);
      (void)ppss::PrivateEntry::deserialize(r);
    }
    {
      Reader r(garbage);
      (void)wcl::RemotePeer::deserialize(r);
    }
    {
      Reader r(garbage);
      (void)chord::ChordDescriptor::deserialize(r);
    }
    {
      Reader r(garbage);
      (void)ppss::Passport::deserialize(r);
    }
    {
      Reader r(garbage);
      (void)ppss::Accreditation::deserialize(r);
    }
    (void)crypto::RsaPublicKey::deserialize(garbage);
    (void)crypto::OnionPacket::deserialize(garbage);
  }
}

// --- Table-driven hostile-input coverage: every codec, every prefix. ---
//
// Each entry pairs a valid encoding with an `accepts` predicate that runs
// the real deserializer and applies the same acceptance rule the protocol
// handlers use: parse OK *and* input fully consumed.

struct CodecCase {
  const char* name;
  Bytes valid;
  std::function<bool(BytesView)> accepts;
};

std::vector<CodecCase> codec_table() {
  Rng rng(99);
  std::vector<CodecCase> table;

  auto framed = [](auto decode) {
    return [decode](BytesView b) {
      Reader r(b);
      decode(r);
      return r.expect_done();
    };
  };

  {
    Writer w;
    random_card(rng).serialize(w);
    table.push_back({"ContactCard", w.data(),
                     framed([](Reader& r) { (void)pss::ContactCard::deserialize(r); })});
  }
  {
    nylon::PssEntry e;
    e.card = random_card(rng);
    e.age = 17;
    Writer w;
    e.serialize(w);
    table.push_back({"PssEntry", w.data(),
                     framed([](Reader& r) { (void)nylon::PssEntry::deserialize(r); })});
  }
  {
    ppss::PrivateEntry e;
    e.peer = random_peer(rng, 3);
    e.age = 4;
    Writer w;
    e.serialize(w);
    table.push_back({"PrivateEntry", w.data(), framed([](Reader& r) {
                       if (!ppss::PrivateEntry::deserialize(r)) r.fail(DecodeError::kBadValue);
                     })});
  }
  {
    Writer w;
    random_peer(rng, 2).serialize(w);
    table.push_back({"RemotePeer", w.data(), framed([](Reader& r) {
                       if (!wcl::RemotePeer::deserialize(r)) r.fail(DecodeError::kBadValue);
                     })});
  }
  {
    chord::ChordDescriptor d;
    d.key = rng.next_u64();
    d.peer = random_peer(rng, 2);
    Writer w;
    d.serialize(w);
    table.push_back({"ChordDescriptor", w.data(), framed([](Reader& r) {
                       if (!chord::ChordDescriptor::deserialize(r)) {
                         r.fail(DecodeError::kBadValue);
                       }
                     })});
  }
  {
    ppss::Passport p;
    p.node = NodeId{7};
    p.epoch = 3;
    p.signature = Bytes(48, 0x5a);
    Writer w;
    p.serialize(w);
    table.push_back({"Passport", w.data(), framed([](Reader& r) {
                       if (!ppss::Passport::deserialize(r)) r.fail(DecodeError::kBadValue);
                     })});
  }
  {
    ppss::Accreditation a;
    a.group = GroupId{9};
    a.node = NodeId{11};
    a.epoch = 2;
    a.signature = Bytes(48, 0xa5);
    Writer w;
    a.serialize(w);
    table.push_back({"Accreditation", w.data(), framed([](Reader& r) {
                       if (!ppss::Accreditation::deserialize(r)) {
                         r.fail(DecodeError::kBadValue);
                       }
                     })});
  }
  table.push_back({"RsaPublicKey", some_key().serialize(), [](BytesView b) {
                     return crypto::RsaPublicKey::deserialize(b).has_value();
                   }});
  {
    crypto::OnionPacket pkt;
    pkt.header = Bytes(40, 0x11);
    pkt.body = Bytes(60, 0x22);
    table.push_back({"OnionPacket", pkt.serialize(), [](BytesView b) {
                       return crypto::OnionPacket::deserialize(b).has_value();
                     }});
  }
  return table;
}

TEST(WireFuzz, EveryCodecAcceptsItsOwnEncoding) {
  for (const CodecCase& c : codec_table()) {
    EXPECT_TRUE(c.accepts(c.valid)) << c.name;
  }
}

// Satellite: every strict prefix of a valid encoding (0..len-1 bytes) must
// be rejected cleanly — every field is fixed-width or length-prefixed, so a
// cut frame can never parse to completion.
TEST(WireFuzz, EveryCodecRejectsEveryTruncation) {
  for (const CodecCase& c : codec_table()) {
    for (std::size_t cut = 0; cut < c.valid.size(); ++cut) {
      EXPECT_FALSE(c.accepts(BytesView(c.valid.data(), cut)))
          << c.name << " accepted a " << cut << "-byte prefix of "
          << c.valid.size() << " bytes";
    }
  }
}

// Satellite: a valid frame followed by trailing garbage must be rejected at
// every deserialize call site (kTrailingBytes), not silently accepted.
TEST(WireFuzz, EveryCodecRejectsTrailingGarbage) {
  for (const CodecCase& c : codec_table()) {
    for (std::size_t extra = 1; extra <= 8; ++extra) {
      Bytes padded = c.valid;
      padded.insert(padded.end(), extra, 0xa5);
      EXPECT_FALSE(c.accepts(padded)) << c.name << " accepted " << extra
                                      << " trailing bytes";
    }
  }
}

// Truncation fuzz: valid encodings cut at every byte boundary must fail
// gracefully (nullopt), never crash.
TEST(WireFuzz, TruncatedEncodingsFailGracefully) {
  Rng rng(8);
  wcl::RemotePeer peer = random_peer(rng, 3);
  Writer w;
  peer.serialize(w);
  const Bytes full = w.data();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    Reader r(BytesView(full.data(), cut));
    auto back = wcl::RemotePeer::deserialize(r);
    // Any successful parse from a truncation must have consumed valid data
    // only; most cuts must fail.
    if (back.has_value()) {
      EXPECT_TRUE(r.ok());
    }
  }
}

}  // namespace
}  // namespace whisper
