// Zone container and zone-signer tests, including whole-zone invariants:
// every authoritative RRset signed, closed NSEC3 chain, correct DS.
#include <gtest/gtest.h>

#include <memory>

#include "crypto/encoding.hpp"
#include "dnssec/nsec3.hpp"
#include "edns/edns.hpp"
#include "server/auth_server.hpp"
#include "zone/signer.hpp"
#include "zone/zone.hpp"

namespace {

using namespace ede::zone;
using namespace ede::dns;

Zone make_basic_zone() {
  Zone zone(Name::of("example.com"));
  SoaRdata soa;
  soa.mname = Name::of("ns1.example.com");
  soa.rname = Name::of("hostmaster.example.com");
  soa.minimum = 300;
  zone.add(Name::of("example.com"), RRType::SOA, soa);
  zone.add(Name::of("example.com"), RRType::NS,
           NsRdata{Name::of("ns1.example.com")});
  zone.add(Name::of("ns1.example.com"), RRType::A,
           ARdata{*Ipv4Address::parse("192.0.2.53")});
  zone.add(Name::of("example.com"), RRType::A,
           ARdata{*Ipv4Address::parse("192.0.2.1")});
  zone.add(Name::of("www.example.com"), RRType::A,
           ARdata{*Ipv4Address::parse("192.0.2.2")});
  // Delegation with glue.
  zone.add(Name::of("child.example.com"), RRType::NS,
           NsRdata{Name::of("ns1.child.example.com")});
  zone.add(Name::of("ns1.child.example.com"), RRType::A,
           ARdata{*Ipv4Address::parse("192.0.2.99")});
  return zone;
}

TEST(Zone, AddMergesIntoRrsets) {
  Zone zone(Name::of("example.com"));
  zone.add(Name::of("example.com"), RRType::A,
           ARdata{*Ipv4Address::parse("192.0.2.1")});
  zone.add(Name::of("example.com"), RRType::A,
           ARdata{*Ipv4Address::parse("192.0.2.2")});
  const auto* rrset = zone.find(Name::of("example.com"), RRType::A);
  ASSERT_NE(rrset, nullptr);
  EXPECT_EQ(rrset->rdatas.size(), 2u);
}

TEST(Zone, FindIsTypeAndNameExact) {
  const Zone zone = make_basic_zone();
  EXPECT_NE(zone.find(Name::of("www.example.com"), RRType::A), nullptr);
  EXPECT_EQ(zone.find(Name::of("www.example.com"), RRType::AAAA), nullptr);
  EXPECT_EQ(zone.find(Name::of("nope.example.com"), RRType::A), nullptr);
  EXPECT_NE(zone.find(Name::of("WWW.EXAMPLE.COM"), RRType::A), nullptr);
}

TEST(Zone, RemoveDeletesRrset) {
  Zone zone = make_basic_zone();
  EXPECT_TRUE(zone.remove(Name::of("www.example.com"), RRType::A));
  EXPECT_FALSE(zone.remove(Name::of("www.example.com"), RRType::A));
  EXPECT_EQ(zone.find(Name::of("www.example.com"), RRType::A), nullptr);
}

// Every point lookup goes through the hash index, which must match names
// as Name::equals does.
TEST(Zone, MixedCaseLookupsHit) {
  Zone zone = make_basic_zone();
  const Name mixed = Name::of("Www.Example.COM");
  EXPECT_NE(zone.find(mixed, RRType::A), nullptr);
  EXPECT_NE(zone.find_mutable(mixed, RRType::A), nullptr);
  EXPECT_EQ(zone.at(mixed).size(), 1u);
  EXPECT_TRUE(zone.name_exists(mixed));
  // An add under another spelling merges into the existing RRset.
  zone.add(Name::of("WWW.example.com"), RRType::A,
           ARdata{*Ipv4Address::parse("192.0.2.3")});
  EXPECT_EQ(zone.find(mixed, RRType::A)->rdatas.size(), 2u);
  EXPECT_EQ(zone.names().size(), make_basic_zone().names().size());
  EXPECT_TRUE(zone.remove(mixed, RRType::A));
  EXPECT_EQ(zone.find(Name::of("www.example.com"), RRType::A), nullptr);
}

TEST(Zone, RemoveThenFindReturnsNull) {
  Zone zone = make_basic_zone();
  const Name www = Name::of("www.example.com");
  ASSERT_TRUE(zone.remove(www, RRType::A));
  EXPECT_EQ(zone.find(www, RRType::A), nullptr);
  EXPECT_EQ(zone.find_mutable(www, RRType::A), nullptr);
  EXPECT_TRUE(zone.at(www).empty());
  EXPECT_FALSE(zone.name_exists(www));
  EXPECT_FALSE(zone.remove(www, RRType::A));
  // The name can come back, and lookups find the new node.
  zone.add(www, RRType::AAAA, AaaaRdata{*Ipv6Address::parse("2001:db8::2")});
  EXPECT_NE(zone.find(www, RRType::AAAA), nullptr);
  EXPECT_EQ(zone.find(www, RRType::A), nullptr);
}

TEST(Zone, CopyStaysUsableAfterItsOriginalIsDestroyed) {
  auto original = std::make_unique<Zone>(make_basic_zone());
  Zone copy = *original;
  Zone assigned(Name::of("other.test"));
  assigned = *original;
  original.reset();
  for (Zone* zone : {&copy, &assigned}) {
    EXPECT_EQ(zone->origin(), Name::of("example.com"));
    EXPECT_NE(zone->find(Name::of("www.example.com"), RRType::A), nullptr);
    EXPECT_TRUE(zone->name_exists(Name::of("example.com")));
    zone->add(Name::of("new.example.com"), RRType::A,
              ARdata{*Ipv4Address::parse("192.0.2.4")});
    EXPECT_NE(zone->find(Name::of("new.example.com"), RRType::A), nullptr);
    EXPECT_TRUE(zone->remove(Name::of("www.example.com"), RRType::A));
    EXPECT_EQ(zone->find(Name::of("www.example.com"), RRType::A), nullptr);
  }
  // The copies are independent of each other.
  copy.add(Name::of("only-in-copy.example.com"), RRType::A,
           ARdata{*Ipv4Address::parse("192.0.2.5")});
  EXPECT_EQ(assigned.find(Name::of("only-in-copy.example.com"), RRType::A),
            nullptr);
}

TEST(Zone, MovedToZoneStaysUsable) {
  Zone source = make_basic_zone();
  Zone moved = std::move(source);
  EXPECT_NE(moved.find(Name::of("www.example.com"), RRType::A), nullptr);
  moved.add(Name::of("new.example.com"), RRType::A,
            ARdata{*Ipv4Address::parse("192.0.2.4")});
  EXPECT_NE(moved.find(Name::of("new.example.com"), RRType::A), nullptr);
  EXPECT_TRUE(moved.remove(Name::of("www.example.com"), RRType::A));
  EXPECT_EQ(moved.find(Name::of("www.example.com"), RRType::A), nullptr);

  Zone assigned(Name::of("other.test"));
  assigned = std::move(moved);
  EXPECT_EQ(assigned.origin(), Name::of("example.com"));
  EXPECT_NE(assigned.find(Name::of("new.example.com"), RRType::A), nullptr);
  EXPECT_TRUE(assigned.name_exists(Name::of("ns1.example.com")));
  EXPECT_TRUE(assigned.remove(Name::of("new.example.com"), RRType::A));
  EXPECT_FALSE(assigned.name_exists(Name::of("new.example.com")));
}

TEST(Zone, NameExistsIncludesEmptyNonTerminals) {
  Zone zone(Name::of("example.com"));
  zone.add(Name::of("a.b.example.com"), RRType::A,
           ARdata{*Ipv4Address::parse("192.0.2.1")});
  EXPECT_TRUE(zone.name_exists(Name::of("a.b.example.com")));
  EXPECT_TRUE(zone.name_exists(Name::of("b.example.com")));  // ENT
  EXPECT_FALSE(zone.name_exists(Name::of("c.example.com")));
}

TEST(Zone, DelegationLookup) {
  const Zone zone = make_basic_zone();
  EXPECT_FALSE(zone.delegation_for(Name::of("example.com")).has_value());
  EXPECT_FALSE(zone.delegation_for(Name::of("www.example.com")).has_value());
  EXPECT_EQ(zone.delegation_for(Name::of("child.example.com")),
            Name::of("child.example.com"));
  EXPECT_EQ(zone.delegation_for(Name::of("deep.child.example.com")),
            Name::of("child.example.com"));
  EXPECT_EQ(zone.delegation_for(Name::of("ns1.child.example.com")),
            Name::of("child.example.com"));
}

TEST(Zone, AuthoritativeNamesExcludeOccludedGlue) {
  const Zone zone = make_basic_zone();
  const auto names = zone.authoritative_names();
  const auto has = [&](const char* text) {
    return std::find(names.begin(), names.end(), Name::of(text)) !=
           names.end();
  };
  EXPECT_TRUE(has("example.com"));
  EXPECT_TRUE(has("www.example.com"));
  EXPECT_TRUE(has("child.example.com"));        // the cut itself
  EXPECT_FALSE(has("ns1.child.example.com"));   // occluded glue
}

TEST(Zone, RemoveSignaturesCovering) {
  Zone zone = make_basic_zone();
  const auto keys = make_zone_keys(zone.origin());
  sign_zone(zone, keys, {});
  EXPECT_FALSE(zone.signatures(zone.origin(), RRType::A).empty());
  EXPECT_GT(zone.remove_signatures_covering(RRType::A), 0u);
  EXPECT_TRUE(zone.signatures(zone.origin(), RRType::A).empty());
  // Other signatures survive.
  EXPECT_FALSE(zone.signatures(zone.origin(), RRType::SOA).empty());
}

TEST(Zone, RemoveAllSignatures) {
  Zone zone = make_basic_zone();
  sign_zone(zone, make_zone_keys(zone.origin()), {});
  EXPECT_GT(zone.remove_all_signatures(), 0u);
  for (const auto& name : zone.names()) {
    EXPECT_EQ(zone.find(name, RRType::RRSIG), nullptr);
  }
}

// --- signed-zone invariants (property-style checks) ---------------------

// sign_zone defers each RRSIG until it is first served; a fresh fixture
// zone has every signature still pending.
class SignedZone : public ::testing::Test {
 protected:
  void SetUp() override {
    zone_ = std::make_shared<Zone>(make_basic_zone());
    keys_ = make_zone_keys(zone_->origin());
    sign_zone(*zone_, keys_, policy_);
  }

  std::shared_ptr<Zone> zone_;
  ZoneKeys keys_;
  SigningPolicy policy_;
};

TEST_F(SignedZone, DnskeyRrsetInstalled) {
  const auto* dnskey = zone_->find(zone_->origin(), RRType::DNSKEY);
  ASSERT_NE(dnskey, nullptr);
  EXPECT_EQ(dnskey->rdatas.size(), 2u);  // KSK + ZSK
}

TEST_F(SignedZone, EveryAuthoritativeRrsetIsSigned) {
  for (const auto& name : zone_->authoritative_names()) {
    const auto cut = zone_->delegation_for(name);
    for (const auto* rrset : zone_->at(name)) {
      if (rrset->type == RRType::RRSIG) continue;
      if (cut.has_value() && rrset->type != RRType::DS) continue;  // NS at cut
      EXPECT_FALSE(zone_->signatures(name, rrset->type).empty())
          << name.to_string() << " " << to_string(rrset->type);
    }
  }
}

TEST_F(SignedZone, GlueAndDelegationNsAreNotSigned) {
  const auto unsigned_at_cut = [&] {
    return zone_->signatures(Name::of("child.example.com"), RRType::NS)
               .empty() &&
           zone_->signatures(Name::of("ns1.child.example.com"), RRType::A)
               .empty();
  };
  EXPECT_TRUE(unsigned_at_cut());        // signatures still pending
  EXPECT_GT(zone_->record_count(), 0u);  // materializes them
  EXPECT_TRUE(unsigned_at_cut());
}

TEST_F(SignedZone, SignaturesCoverTheContentAtSigningTime) {
  using ede::dnssec::verify_rrset;
  const RRset signed_a = *zone_->find(zone_->origin(), RRType::A);
  zone_->add(zone_->origin(), RRType::A,
             ARdata{*Ipv4Address::parse("192.0.2.77")});
  const auto* grown = zone_->find(zone_->origin(), RRType::A);
  ASSERT_EQ(grown->rdatas.size(), 2u);
  const auto sigs = zone_->signatures(zone_->origin(), RRType::A);
  ASSERT_EQ(sigs.size(), 1u);
  EXPECT_TRUE(verify_rrset(signed_a, sigs.front(), keys_.zsk.dnskey));
  EXPECT_FALSE(verify_rrset(*grown, sigs.front(), keys_.zsk.dnskey));
}

TEST_F(SignedZone, ServesTheSameBytesLazilyAndMaterialized) {
  auto materialized = std::make_shared<Zone>(*zone_);
  EXPECT_GT(materialized->record_count(), 0u);
  ede::server::AuthServer lazy_server;
  lazy_server.add_zone(zone_);
  ede::server::AuthServer materialized_server;
  materialized_server.add_zone(materialized);
  const auto answer = [](const ede::server::AuthServer& server,
                         const Name& qname, RRType qtype) {
    Message query = make_query(7, qname, qtype);
    ede::edns::Edns edns;
    edns.dnssec_ok = true;
    edns.udp_payload_size = 0xffff;
    ede::edns::set_edns(query, edns);
    return server
        .handle(query, ede::sim::PacketContext{
                           ede::sim::NodeAddress::of("192.0.2.100")})
        .serialize();
  };
  // RRSIG questions last: answering one materializes the lazy zone.
  std::vector<std::pair<Name, RRType>> questions;
  std::vector<std::pair<Name, RRType>> rrsig_questions;
  for (const auto& name : materialized->names()) {
    for (const auto* set : materialized->at(name)) {
      (set->type == RRType::RRSIG ? rrsig_questions : questions)
          .emplace_back(name, set->type);
    }
  }
  questions.emplace_back(Name::of("nope.example.com"), RRType::A);
  questions.emplace_back(Name::of("www.example.com"), RRType::MX);
  questions.insert(questions.end(), rrsig_questions.begin(),
                   rrsig_questions.end());
  for (const auto& [qname, qtype] : questions) {
    EXPECT_EQ(answer(lazy_server, qname, qtype),
              answer(materialized_server, qname, qtype))
        << qname.to_string() << " " << to_string(qtype);
  }
  EXPECT_GT(questions.size(), 20u);
}

TEST_F(SignedZone, SignaturesVerifyUnderTheZoneKeys) {
  using ede::dnssec::verify_rrset;
  for (const auto& name : zone_->authoritative_names()) {
    for (const auto* rrset : zone_->at(name)) {
      if (rrset->type == RRType::RRSIG) continue;
      for (const auto& sig : zone_->signatures(name, rrset->type)) {
        const bool by_ksk = sig.key_tag == keys_.ksk.tag();
        const auto& key = by_ksk ? keys_.ksk.dnskey : keys_.zsk.dnskey;
        EXPECT_TRUE(verify_rrset(*rrset, sig, key))
            << name.to_string() << " " << to_string(rrset->type);
      }
    }
  }
}

TEST_F(SignedZone, DnskeySignedByBothKeysUnderDefaultPolicy) {
  const auto sigs = zone_->signatures(zone_->origin(), RRType::DNSKEY);
  ASSERT_EQ(sigs.size(), 2u);
}

TEST_F(SignedZone, Nsec3ChainIsClosedAndOrdered) {
  // Collect the NSEC3 records; the owner hashes sorted must match the
  // next-pointers as one closed cycle.
  std::vector<std::pair<ede::crypto::Bytes, ede::crypto::Bytes>> links;
  for (const auto& name : zone_->names()) {
    const auto* rrset = zone_->find(name, RRType::NSEC3);
    if (rrset == nullptr) continue;
    for (const auto& rd : rrset->rdatas) {
      const auto& n3 = std::get<Nsec3Rdata>(rd);
      const auto owner_hash =
          ede::crypto::from_base32hex(name.labels().front());
      ASSERT_TRUE(owner_hash.has_value());
      links.emplace_back(*owner_hash, n3.next_hashed_owner);
    }
  }
  ASSERT_GE(links.size(), 3u);
  std::sort(links.begin(), links.end());
  for (std::size_t i = 0; i < links.size(); ++i) {
    const auto& expected_next = links[(i + 1) % links.size()].first;
    EXPECT_EQ(links[i].second, expected_next) << "broken chain at " << i;
  }
}

TEST_F(SignedZone, Nsec3BitmapsReflectPresentTypes) {
  const auto owner = ede::dnssec::nsec3_owner(
      zone_->origin(), zone_->origin(), policy_.nsec3_salt,
      policy_.nsec3_iterations);
  const auto* rrset = zone_->find(owner, RRType::NSEC3);
  ASSERT_NE(rrset, nullptr);
  const auto& n3 = std::get<Nsec3Rdata>(rrset->rdatas.front());
  for (const auto type : {RRType::SOA, RRType::NS, RRType::A, RRType::DNSKEY,
                          RRType::NSEC3PARAM, RRType::RRSIG}) {
    EXPECT_TRUE(n3.types.contains(type)) << to_string(type);
  }
  EXPECT_FALSE(n3.types.contains(RRType::MX));
}

TEST_F(SignedZone, DelegationWithoutDsHasNoRrsigBitInNsec3) {
  const auto owner = ede::dnssec::nsec3_owner(
      Name::of("child.example.com"), zone_->origin(), policy_.nsec3_salt,
      policy_.nsec3_iterations);
  const auto* rrset = zone_->find(owner, RRType::NSEC3);
  ASSERT_NE(rrset, nullptr);
  const auto& n3 = std::get<Nsec3Rdata>(rrset->rdatas.front());
  EXPECT_TRUE(n3.types.contains(RRType::NS));
  EXPECT_FALSE(n3.types.contains(RRType::DS));
  EXPECT_FALSE(n3.types.contains(RRType::RRSIG));
}

TEST_F(SignedZone, DsRecordsMatchTheKsk) {
  const auto ds_set = ds_records(zone_->origin(), keys_);
  ASSERT_EQ(ds_set.size(), 1u);
  EXPECT_TRUE(ede::dnssec::ds_matches(zone_->origin(), ds_set.front(),
                                      keys_.ksk.dnskey));
  EXPECT_FALSE(ede::dnssec::ds_matches(zone_->origin(), ds_set.front(),
                                       keys_.zsk.dnskey));
}

}  // namespace
