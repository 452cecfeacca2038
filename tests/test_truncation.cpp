// UDP truncation and DoTCP fallback: the server's honest TC-bit behaviour
// (respecting the client's advertised EDNS buffer, shedding whole records
// so the counts always match the sections) and the resolver's genuine
// stream retry — including what happens when the stream side refuses or
// dies and the failure must surface as SERVFAIL with EDE 22/23.
#include <gtest/gtest.h>

#include <algorithm>

#include "edns/edns.hpp"
#include "resolver/resolver.hpp"
#include "server/auth_server.hpp"
#include "simnet/stream.hpp"
#include "zone/signer.hpp"

namespace {

using namespace ede;
using dns::Name;
using dns::RRType;

/// A zone whose TXT answer (with signatures) far exceeds 512 bytes.
std::shared_ptr<zone::Zone> big_zone(const zone::ZoneKeys& keys) {
  auto zone = std::make_shared<zone::Zone>(Name::of("big.test"));
  dns::SoaRdata soa;
  soa.mname = Name::of("ns1.big.test");
  soa.rname = Name::of("hostmaster.big.test");
  soa.minimum = 300;
  zone->add(zone->origin(), RRType::SOA, soa);
  zone->add(zone->origin(), RRType::NS, dns::NsRdata{Name::of("ns1.big.test")});
  zone->add(Name::of("ns1.big.test"), RRType::A,
            dns::ARdata{*dns::Ipv4Address::parse("93.184.223.1")});
  dns::TxtRdata txt;
  for (int i = 0; i < 8; ++i) txt.strings.push_back(std::string(200, 'x'));
  zone->add(zone->origin(), RRType::TXT, txt);
  zone->add(zone->origin(), RRType::A,
            dns::ARdata{*dns::Ipv4Address::parse("93.184.223.9")});
  zone::sign_zone(*const_cast<zone::Zone*>(zone.get()), keys, {});
  return zone;
}

class Truncation : public ::testing::Test {
 protected:
  Truncation() : keys_(zone::make_zone_keys(Name::of("big.test"))) {
    config_.udp_payload_size = 4'096;  // generous server-side cap
    server_ = std::make_unique<server::AuthServer>(config_);
    server_->add_zone(big_zone(keys_));
  }

  dns::Message ask(std::uint16_t payload_size) {
    dns::Message query = dns::make_query(1, Name::of("big.test"), RRType::TXT);
    edns::Edns e;
    e.dnssec_ok = true;
    e.udp_payload_size = payload_size;
    edns::set_edns(query, e);
    return server_->handle(
        query, sim::PacketContext{sim::NodeAddress::of("192.0.2.9")});
  }

  zone::ZoneKeys keys_;
  server::ServerConfig config_;
  std::unique_ptr<server::AuthServer> server_;
};

TEST_F(Truncation, SmallAdvertisementGetsTcBit) {
  const auto response = ask(512);
  EXPECT_TRUE(response.header.tc);
  EXPECT_TRUE(response.answer.empty());
  EXPECT_LE(response.serialize().size(), 512u);
  // The OPT record survives so the client knows EDNS worked.
  EXPECT_NE(response.find_opt(), nullptr);
}

TEST_F(Truncation, LargeAdvertisementGetsTheFullAnswer) {
  const auto response = ask(4'096);
  EXPECT_FALSE(response.header.tc);
  EXPECT_FALSE(response.answer.empty());
  EXPECT_GT(response.serialize().size(), 512u);
}

TEST_F(Truncation, ClientAdvertisementWinsOverServerCap) {
  // The server could send 4096 bytes but the client only advertised 1232:
  // the client's number governs, so the ~2 KB answer truncates.
  const auto response = ask(1'232);
  EXPECT_TRUE(response.header.tc);
  EXPECT_LE(response.serialize().size(), 1'232u);
}

TEST_F(Truncation, NonEdnsQueryIsLimitedTo512) {
  dns::Message query = dns::make_query(1, Name::of("big.test"), RRType::TXT);
  const auto response = server_->handle(
      query, sim::PacketContext{sim::NodeAddress::of("192.0.2.9")});
  EXPECT_TRUE(response.header.tc);
  EXPECT_LE(response.serialize().size(), 512u);
}

TEST_F(Truncation, TruncatedResponseIsWellFormed) {
  // Whatever is shed, the message must stay parseable and the section
  // counts must agree with the records actually present: whole RRs are
  // dropped, never trailing bytes.
  for (const std::uint16_t payload :
       {std::uint16_t{512}, std::uint16_t{700}, std::uint16_t{1'000},
        std::uint16_t{1'232}, std::uint16_t{2'000}}) {
    const auto response = ask(payload);
    const auto wire = response.serialize();
    EXPECT_LE(wire.size(), payload) << "advertised " << payload;
    const auto reparsed = dns::Message::parse(wire);
    ASSERT_TRUE(reparsed.ok()) << "advertised " << payload;
    EXPECT_EQ(reparsed.value().answer.size(), response.answer.size());
    EXPECT_EQ(reparsed.value().authority.size(), response.authority.size());
    EXPECT_EQ(reparsed.value().additional.size(),
              response.additional.size());
  }
}

TEST_F(Truncation, StreamQueriesAreNeverTruncated) {
  dns::Message query = dns::make_query(1, Name::of("big.test"), RRType::TXT);
  edns::Edns e;
  e.dnssec_ok = true;
  e.udp_payload_size = 512;  // tiny advertisement — irrelevant over TCP
  edns::set_edns(query, e);
  const auto response = server_->handle(
      query, sim::PacketContext{.source = sim::NodeAddress::of("192.0.2.9"),
                                .over_stream = true});
  EXPECT_FALSE(response.header.tc);
  EXPECT_FALSE(response.answer.empty());
  EXPECT_GT(response.serialize().size(), 512u);
}

// --- the resolver's genuine DoTCP fallback ----------------------------

struct FallbackWorld {
  FallbackWorld() {
    clock = std::make_shared<sim::Clock>();
    network = std::make_shared<sim::Network>(clock);

    child_keys = zone::make_zone_keys(Name::of("big.test"));
    server::ServerConfig config;
    config.udp_payload_size = 512;  // a stingy authority
    child_server = std::make_shared<server::AuthServer>(config);
    child_server->add_zone(big_zone(child_keys));
    network->attach(child_addr, child_server->endpoint());
    network->stream().listen(child_addr, child_server->endpoint());

    auto root = std::make_shared<zone::Zone>(Name{});
    dns::SoaRdata soa;
    soa.mname = Name::of("a.root-servers.net");
    soa.rname = Name{};
    root->add(Name{}, RRType::SOA, soa);
    root->add(Name{}, RRType::NS,
              dns::NsRdata{Name::of("a.root-servers.net")});
    root->add(Name::of("a.root-servers.net"), RRType::A,
              dns::ARdata{*dns::Ipv4Address::parse("198.41.0.4")});
    root->add(Name::of("big.test"), RRType::NS,
              dns::NsRdata{Name::of("ns1.big.test")});
    root->add(Name::of("ns1.big.test"), RRType::A,
              dns::ARdata{*dns::Ipv4Address::parse("93.184.223.1")});
    for (const auto& ds : zone::ds_records(Name::of("big.test"), child_keys)) {
      root->add(Name::of("big.test"), RRType::DS, ds);
    }
    root_keys = zone::make_zone_keys(Name{});
    zone::sign_zone(*root, root_keys, {});
    root_server = std::make_shared<server::AuthServer>();
    root_server->add_zone(root);
    network->attach(root_addr, root_server->endpoint());
    network->stream().listen(root_addr, root_server->endpoint());
  }

  resolver::RecursiveResolver make_resolver() {
    return resolver::RecursiveResolver(network, resolver::profile_cloudflare(),
                                       {root_addr}, root_keys.ksk.dnskey, {});
  }

  std::shared_ptr<sim::Clock> clock;
  std::shared_ptr<sim::Network> network;
  sim::NodeAddress child_addr = sim::NodeAddress::of("93.184.223.1");
  sim::NodeAddress root_addr = sim::NodeAddress::of("198.41.0.4");
  zone::ZoneKeys child_keys;
  zone::ZoneKeys root_keys;
  std::shared_ptr<server::AuthServer> child_server;
  std::shared_ptr<server::AuthServer> root_server;
};

TEST(TruncationResolver, FallsBackOverTheStreamAndGetsTheAnswer) {
  FallbackWorld w;
  auto resolver = w.make_resolver();

  // The big TXT answer truncates at 512 and must arrive via a real
  // stream exchange, not a bigger UDP advertisement.
  const auto outcome = resolver.resolve(Name::of("big.test"), RRType::TXT);
  EXPECT_EQ(outcome.rcode, dns::RCode::NOERROR);
  EXPECT_EQ(outcome.security, dnssec::Security::Secure);
  bool has_txt = false;
  for (const auto& rr : outcome.response.answer)
    has_txt |= rr.type == RRType::TXT;
  EXPECT_TRUE(has_txt);

  const auto& h = resolver.hardening_stats();
  EXPECT_GE(h.tc_seen, 1u);
  EXPECT_GE(h.tcp_fallbacks, 1u);
  EXPECT_GE(h.tcp_success, 1u);
  EXPECT_GE(w.network->stream().stats().frames_delivered, 1u);
}

TEST(TruncationResolver, RefusedStreamDegradesToServfailWithEde) {
  FallbackWorld w;
  w.network->stream().set_behaviors(w.child_addr,
                                    {sim::StreamBehavior::refuse()});
  auto resolver = w.make_resolver();

  const auto outcome = resolver.resolve(Name::of("big.test"), RRType::TXT);
  EXPECT_EQ(outcome.rcode, dns::RCode::SERVFAIL);
  std::vector<std::uint16_t> codes;
  for (const auto& error : outcome.errors)
    codes.push_back(static_cast<std::uint16_t>(error.code));
  EXPECT_TRUE(std::find(codes.begin(), codes.end(), 22) != codes.end() ||
              std::find(codes.begin(), codes.end(), 23) != codes.end())
      << "a failed DoTCP fallback must surface EDE 22 or 23";
  EXPECT_GE(resolver.hardening_stats().tcp_connect_failures, 1u);
  EXPECT_EQ(resolver.hardening_stats().tcp_success, 0u);
}

TEST(TruncationResolver, MidStreamCloseDegradesToServfailWithEde) {
  FallbackWorld w;
  w.network->stream().set_behaviors(w.child_addr,
                                    {sim::StreamBehavior::mid_close()});
  auto resolver = w.make_resolver();

  const auto outcome = resolver.resolve(Name::of("big.test"), RRType::TXT);
  EXPECT_EQ(outcome.rcode, dns::RCode::SERVFAIL);
  std::vector<std::uint16_t> codes;
  for (const auto& error : outcome.errors)
    codes.push_back(static_cast<std::uint16_t>(error.code));
  EXPECT_TRUE(std::find(codes.begin(), codes.end(), 23) != codes.end())
      << "a stream that dies mid-answer must surface EDE 23";
  EXPECT_GE(resolver.hardening_stats().tcp_stream_failures, 1u);
}

}  // namespace
