// Authoritative-server tests: RFC 1034 lookup outcomes, referral
// composition (glue, DS, insecure-delegation proof), NSEC3-backed negative
// answers, ACLs and the pathological behaviours the wild scan models.
#include <gtest/gtest.h>

#include "edns/edns.hpp"
#include "server/auth_server.hpp"
#include "zone/signer.hpp"

namespace {

using namespace ede::server;
using namespace ede::dns;
using ede::sim::NodeAddress;
using ede::sim::PacketContext;

class AuthServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto zone = std::make_shared<ede::zone::Zone>(Name::of("example.com"));
    SoaRdata soa;
    soa.mname = Name::of("ns1.example.com");
    soa.rname = Name::of("hostmaster.example.com");
    soa.minimum = 300;
    zone->add(Name::of("example.com"), RRType::SOA, soa);
    zone->add(Name::of("example.com"), RRType::NS,
              NsRdata{Name::of("ns1.example.com")});
    zone->add(Name::of("ns1.example.com"), RRType::A,
              ARdata{*Ipv4Address::parse("93.184.216.1")});
    zone->add(Name::of("example.com"), RRType::A,
              ARdata{*Ipv4Address::parse("93.184.216.34")});
    zone->add(Name::of("www.example.com"), RRType::CNAME,
              CnameRdata{Name::of("example.com")});
    // Signed delegation.
    zone->add(Name::of("signedchild.example.com"), RRType::NS,
              NsRdata{Name::of("ns1.signedchild.example.com")});
    zone->add(Name::of("ns1.signedchild.example.com"), RRType::A,
              ARdata{*Ipv4Address::parse("93.184.216.50")});
    child_keys_ =
        ede::zone::make_zone_keys(Name::of("signedchild.example.com"));
    for (const auto& ds : ede::zone::ds_records(
             Name::of("signedchild.example.com"), child_keys_)) {
      zone->add(Name::of("signedchild.example.com"), RRType::DS, ds);
    }
    // Unsigned delegation.
    zone->add(Name::of("unsignedchild.example.com"), RRType::NS,
              NsRdata{Name::of("ns1.unsignedchild.example.com")});
    zone->add(Name::of("ns1.unsignedchild.example.com"), RRType::A,
              ARdata{*Ipv4Address::parse("93.184.216.51")});

    keys_ = ede::zone::make_zone_keys(zone->origin());
    ede::zone::sign_zone(*zone, keys_, {});
    zone_ = zone;
    server_.add_zone(zone_);
  }

  Message ask(std::string_view qname, RRType qtype, bool dnssec_ok = true,
              NodeAddress source = NodeAddress::of("192.0.2.100")) {
    Message query = make_query(1, Name::of(qname), qtype);
    ede::edns::Edns edns;
    edns.dnssec_ok = dnssec_ok;
    edns.udp_payload_size = 0xffff;  // "TCP": no truncation in direct tests
    ede::edns::set_edns(query, edns);
    return server_.handle(query, PacketContext{source});
  }

  static std::size_t count_type(const std::vector<ResourceRecord>& section,
                                RRType type) {
    return static_cast<std::size_t>(
        std::count_if(section.begin(), section.end(),
                      [&](const auto& rr) { return rr.type == type; }));
  }

  std::shared_ptr<ede::zone::Zone> zone_;
  ede::zone::ZoneKeys keys_;
  ede::zone::ZoneKeys child_keys_;
  AuthServer server_;
};

TEST_F(AuthServerTest, PositiveAnswerWithSignatures) {
  const auto response = ask("example.com", RRType::A);
  EXPECT_EQ(response.header.rcode, RCode::NOERROR);
  EXPECT_TRUE(response.header.aa);
  EXPECT_EQ(count_type(response.answer, RRType::A), 1u);
  EXPECT_EQ(count_type(response.answer, RRType::RRSIG), 1u);
}

TEST_F(AuthServerTest, NoSignaturesWithoutDoBit) {
  const auto response = ask("example.com", RRType::A, /*dnssec_ok=*/false);
  EXPECT_EQ(count_type(response.answer, RRType::RRSIG), 0u);
}

TEST_F(AuthServerTest, CnameAnswersOtherTypes) {
  const auto response = ask("www.example.com", RRType::A);
  EXPECT_EQ(count_type(response.answer, RRType::CNAME), 1u);
}

TEST_F(AuthServerTest, SignedReferralCarriesDs) {
  const auto response = ask("deep.signedchild.example.com", RRType::A);
  EXPECT_EQ(response.header.rcode, RCode::NOERROR);
  EXPECT_FALSE(response.header.aa);
  EXPECT_TRUE(response.answer.empty());
  EXPECT_EQ(count_type(response.authority, RRType::NS), 1u);
  EXPECT_EQ(count_type(response.authority, RRType::DS), 1u);
  EXPECT_GE(count_type(response.authority, RRType::RRSIG), 1u);
  // Glue for the in-bailiwick nameserver.
  EXPECT_EQ(count_type(response.additional, RRType::A), 1u);
}

TEST_F(AuthServerTest, UnsignedReferralCarriesNsec3Proof) {
  const auto response = ask("unsignedchild.example.com", RRType::A);
  EXPECT_EQ(count_type(response.authority, RRType::NS), 1u);
  EXPECT_EQ(count_type(response.authority, RRType::DS), 0u);
  EXPECT_EQ(count_type(response.authority, RRType::NSEC3), 1u);
}

TEST_F(AuthServerTest, DsQueryAtCutIsAnsweredByParent) {
  const auto response = ask("signedchild.example.com", RRType::DS);
  EXPECT_TRUE(response.header.aa);
  EXPECT_EQ(count_type(response.answer, RRType::DS), 1u);
}

TEST_F(AuthServerTest, NxdomainHasSoaAndNsec3Proof) {
  const auto response = ask("nope.example.com", RRType::A);
  EXPECT_EQ(response.header.rcode, RCode::NXDOMAIN);
  EXPECT_TRUE(response.header.aa);
  EXPECT_EQ(count_type(response.authority, RRType::SOA), 1u);
  // Closest-encloser match + next-closer cover + wildcard cover, possibly
  // deduplicated.
  EXPECT_GE(count_type(response.authority, RRType::NSEC3), 1u);
  EXPECT_GE(count_type(response.authority, RRType::RRSIG), 2u);
}

TEST_F(AuthServerTest, NodataKeepsNoerror) {
  const auto response = ask("example.com", RRType::MX);
  EXPECT_EQ(response.header.rcode, RCode::NOERROR);
  EXPECT_TRUE(response.answer.empty());
  EXPECT_EQ(count_type(response.authority, RRType::SOA), 1u);
}

TEST_F(AuthServerTest, OutOfBailiwickIsRefused) {
  const auto response = ask("other.org", RRType::A);
  EXPECT_EQ(response.header.rcode, RCode::REFUSED);
}

TEST_F(AuthServerTest, EdnsIsEchoed) {
  const auto response = ask("example.com", RRType::A);
  const auto edns = ede::edns::get_edns(response);
  ASSERT_TRUE(edns.has_value());
  EXPECT_TRUE(edns->dnssec_ok);
}

TEST_F(AuthServerTest, DenyAllAclRefusesEveryone) {
  server_.config().acl = QueryAcl::DenyAll;
  EXPECT_EQ(ask("example.com", RRType::A).header.rcode, RCode::REFUSED);
}

TEST_F(AuthServerTest, LocalhostAclAdmitsOnlyLoopback) {
  server_.config().acl = QueryAcl::LocalhostOnly;
  EXPECT_EQ(ask("example.com", RRType::A).header.rcode, RCode::REFUSED);
  EXPECT_EQ(ask("example.com", RRType::A, true, NodeAddress::of("127.0.0.1"))
                .header.rcode,
            RCode::NOERROR);
}

TEST_F(AuthServerTest, FixedRcodeShortCircuits) {
  server_.config().fixed_rcode = RCode::NOTAUTH;
  const auto response = ask("example.com", RRType::A);
  EXPECT_EQ(response.header.rcode, RCode::NOTAUTH);
  EXPECT_TRUE(response.answer.empty());
}

TEST_F(AuthServerTest, FormerrOnEmptyQuestion) {
  Message query;
  query.header.id = 5;
  const auto response =
      server_.handle(query, PacketContext{NodeAddress::of("192.0.2.1")});
  EXPECT_EQ(response.header.rcode, RCode::FORMERR);
}

TEST_F(AuthServerTest, EndpointParsesWireAndResponds) {
  Message query = make_query(77, Name::of("example.com"), RRType::A);
  const auto endpoint = server_.endpoint();
  const auto wire = endpoint(query.serialize(),
                             PacketContext{NodeAddress::of("192.0.2.1")});
  ASSERT_TRUE(wire.has_value());
  const auto response = Message::parse(*wire);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().header.id, 77);
  EXPECT_EQ(response.value().header.rcode, RCode::NOERROR);
}

TEST_F(AuthServerTest, EndpointDropsGarbage) {
  const ede::crypto::Bytes garbage = {1, 2, 3};
  EXPECT_FALSE(server_.endpoint()(garbage,
                                  PacketContext{NodeAddress::of("192.0.2.1")})
                   .has_value());
}

}  // namespace
