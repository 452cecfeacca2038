// Recursive-resolver behaviour tests on top of the testbed: caching
// (positive, negative, stale, cached-error), the delegation cache, CNAME
// chasing, iteration limits and wire-level annotation.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "edns/ede.hpp"
#include "edns/edns.hpp"
#include "resolver/resolver.hpp"
#include "server/auth_server.hpp"
#include "simnet/byzantine.hpp"
#include "testbed/testbed.hpp"
#include "zone/signer.hpp"
#include "zone/zone.hpp"

namespace {

using namespace ede;
using resolver::RecursiveResolver;
using resolver::ResolverOptions;

class ResolverTest : public ::testing::Test {
 protected:
  ResolverTest()
      : clock_(std::make_shared<sim::Clock>()),
        network_(std::make_shared<sim::Network>(clock_)),
        testbed_(network_) {}

  RecursiveResolver make(ResolverOptions options = {}) {
    return testbed_.make_resolver(resolver::profile_cloudflare(), options);
  }

  dns::Name valid_name() const {
    return dns::Name::of("valid.extended-dns-errors.com");
  }

  std::shared_ptr<sim::Clock> clock_;
  std::shared_ptr<sim::Network> network_;
  testbed::Testbed testbed_;
};

TEST_F(ResolverTest, ResolvesTheControlDomainSecurely) {
  auto resolver = make();
  const auto outcome = resolver.resolve(valid_name(), dns::RRType::A);
  EXPECT_EQ(outcome.rcode, dns::RCode::NOERROR);
  EXPECT_EQ(outcome.security, dnssec::Security::Secure);
  EXPECT_TRUE(outcome.errors.empty());
  ASSERT_FALSE(outcome.response.answer.empty());
  EXPECT_EQ(outcome.response.answer.front().type, dns::RRType::A);
  // The answer carries its RRSIG.
  bool has_sig = false;
  for (const auto& rr : outcome.response.answer)
    has_sig |= rr.type == dns::RRType::RRSIG;
  EXPECT_TRUE(has_sig);
}

TEST_F(ResolverTest, SecondResolutionIsServedFromCache) {
  auto resolver = make();
  (void)resolver.resolve(valid_name(), dns::RRType::A);
  const auto sent_before = network_->stats().packets_sent;
  const auto outcome = resolver.resolve(valid_name(), dns::RRType::A);
  EXPECT_EQ(network_->stats().packets_sent, sent_before);  // zero upstream
  EXPECT_EQ(outcome.rcode, dns::RCode::NOERROR);
  EXPECT_EQ(outcome.security, dnssec::Security::Secure);
}

TEST_F(ResolverTest, DelegationCacheSkipsTheUpperHierarchy) {
  auto resolver = make();
  const auto first = resolver.resolve(valid_name(), dns::RRType::A);
  const auto second = resolver.resolve(
      dns::Name::of("unsigned.extended-dns-errors.com"), dns::RRType::A);
  // The second resolution reuses root/com/extended-dns-errors.com contexts.
  EXPECT_LT(second.upstream_queries, first.upstream_queries);
}

TEST_F(ResolverTest, CacheDisabledGoesUpstreamEveryTime) {
  ResolverOptions options;
  options.cache.enabled = false;
  auto resolver = make(options);
  (void)resolver.resolve(valid_name(), dns::RRType::A);
  const auto sent_before = network_->stats().packets_sent;
  (void)resolver.resolve(valid_name(), dns::RRType::A);
  EXPECT_GT(network_->stats().packets_sent, sent_before);
}

TEST_F(ResolverTest, NegativeAnswersAreCached) {
  auto resolver = make();
  const auto name = dns::Name::of("nope.valid.extended-dns-errors.com");
  const auto first = resolver.resolve(name, dns::RRType::A);
  EXPECT_EQ(first.rcode, dns::RCode::NXDOMAIN);
  const auto sent_before = network_->stats().packets_sent;
  const auto second = resolver.resolve(name, dns::RRType::A);
  EXPECT_EQ(second.rcode, dns::RCode::NXDOMAIN);
  EXPECT_EQ(network_->stats().packets_sent, sent_before);
}

TEST_F(ResolverTest, ServfailIsCachedWithItsFindings) {
  auto resolver = make();
  const auto name = dns::Name::of("rrsig-exp-all.extended-dns-errors.com");
  const auto first = resolver.resolve(name, dns::RRType::A);
  EXPECT_EQ(first.rcode, dns::RCode::SERVFAIL);

  const auto second = resolver.resolve(name, dns::RRType::A);
  EXPECT_EQ(second.rcode, dns::RCode::SERVFAIL);
  // Served from the error cache: EDE 13 plus the original diagnosis.
  bool cached_error = false, original = false;
  for (const auto& error : second.errors) {
    cached_error |= error.code == edns::EdeCode::CachedError;
    original |= error.code == edns::EdeCode::SignatureExpired;
  }
  EXPECT_TRUE(cached_error);
  EXPECT_TRUE(original);
}

TEST_F(ResolverTest, StaleAnswerServedWhenAuthoritiesDie) {
  auto resolver = make();
  (void)resolver.resolve(valid_name(), dns::RRType::A);

  // Kill the child's nameserver and let the TTL lapse.
  const auto& spec = testbed_.cases().front();
  ASSERT_EQ(spec.label, "valid");
  network_->detach(sim::NodeAddress::of("93.184.218.1"));
  clock_->advance(3600 * 3);  // past the 3600 s TTLs, within stale window

  const auto outcome = resolver.resolve(valid_name(), dns::RRType::A);
  EXPECT_EQ(outcome.rcode, dns::RCode::NOERROR);
  bool stale = false, unreachable = false;
  for (const auto& error : outcome.errors) {
    stale |= error.code == edns::EdeCode::StaleAnswer;
    unreachable |= error.code == edns::EdeCode::NoReachableAuthority;
  }
  EXPECT_TRUE(stale);
  EXPECT_TRUE(unreachable);
}

TEST_F(ResolverTest, NoStaleServiceWhenDisabled) {
  ResolverOptions options;
  options.serve_stale = false;
  auto resolver = make(options);
  (void)resolver.resolve(valid_name(), dns::RRType::A);
  network_->detach(sim::NodeAddress::of("93.184.218.1"));
  clock_->advance(3600 * 3);
  const auto outcome = resolver.resolve(valid_name(), dns::RRType::A);
  EXPECT_EQ(outcome.rcode, dns::RCode::SERVFAIL);
}

TEST_F(ResolverTest, EdeSurvivesTheWireRoundTrip) {
  auto resolver = make();
  const auto outcome = resolver.resolve(
      dns::Name::of("ds-bad-tag.extended-dns-errors.com"), dns::RRType::A);
  ASSERT_FALSE(outcome.errors.empty());
  const auto wire = outcome.response.serialize();
  const auto parsed = dns::Message::parse(wire);
  ASSERT_TRUE(parsed.ok());
  const auto errors = edns::get_extended_errors(parsed.value());
  ASSERT_EQ(errors.size(), outcome.errors.size());
  EXPECT_EQ(errors.front().code, edns::EdeCode::DnskeyMissing);
}

TEST_F(ResolverTest, FlushDropsAllCachedState) {
  auto resolver = make();
  (void)resolver.resolve(valid_name(), dns::RRType::A);
  resolver.flush();
  const auto sent_before = network_->stats().packets_sent;
  (void)resolver.resolve(valid_name(), dns::RRType::A);
  EXPECT_GT(network_->stats().packets_sent, sent_before);
}

TEST_F(ResolverTest, UpstreamQueriesAreCounted) {
  auto resolver = make();
  const auto outcome = resolver.resolve(valid_name(), dns::RRType::A);
  // root DNSKEY + 3 referral levels + DNSKEY fetches + final answer.
  EXPECT_GE(outcome.upstream_queries, 5);
  EXPECT_LE(outcome.upstream_queries, 12);
}

TEST_F(ResolverTest, AnswersCarryTheAdBitOnlyWhenSecure) {
  auto resolver = make();
  const auto secure = resolver.resolve(valid_name(), dns::RRType::A);
  EXPECT_TRUE(secure.response.header.ad);
  const auto insecure = resolver.resolve(
      dns::Name::of("unsigned.extended-dns-errors.com"), dns::RRType::A);
  EXPECT_FALSE(insecure.response.header.ad);
  EXPECT_EQ(insecure.security, dnssec::Security::Insecure);
}

TEST_F(ResolverTest, ExhaustiveProbingStillResolves) {
  ResolverOptions options;
  options.exhaustive_ns_probing = true;
  auto resolver = make(options);
  const auto outcome = resolver.resolve(valid_name(), dns::RRType::A);
  EXPECT_EQ(outcome.rcode, dns::RCode::NOERROR);
  EXPECT_EQ(outcome.security, dnssec::Security::Secure);
}

}  // namespace

namespace {

using namespace ede;

TEST(ResolverTransport, RetransmissionDefeatsIntermittentLoss) {
  auto clock = std::make_shared<sim::Clock>();
  auto network = std::make_shared<sim::Network>(clock);
  testbed::Testbed testbed(network);

  // Drop every other packet to every server the control domain needs.
  for (const char* addr : {"198.41.0.4", "192.5.6.30", "93.184.216.1",
                           "93.184.218.1"}) {
    network->inject_fault(sim::NodeAddress::of(addr),
                          sim::Fault::intermittent());
  }
  auto resolver = testbed.make_resolver(resolver::profile_cloudflare());
  const auto outcome = resolver.resolve(
      dns::Name::of("valid.extended-dns-errors.com"), dns::RRType::A);
  EXPECT_EQ(outcome.rcode, dns::RCode::NOERROR);
  EXPECT_EQ(outcome.security, dnssec::Security::Secure);
  // The losses were observed (timeout findings) but overcome.
  bool saw_timeout = false;
  for (const auto& f : outcome.findings)
    saw_timeout |= f.defect == dnssec::Defect::ServerTimeout;
  EXPECT_TRUE(saw_timeout);
}

TEST(ResolverTransport, EdnsUnawareAuthorityIsFlagged) {
  auto clock = std::make_shared<sim::Clock>();
  auto network = std::make_shared<sim::Network>(clock);

  // An unsigned hierarchy whose leaf server never echoes the OPT back.
  auto child = std::make_shared<zone::Zone>(dns::Name::of("legacy.test"));
  dns::SoaRdata soa;
  soa.mname = dns::Name::of("ns1.legacy.test");
  soa.rname = dns::Name::of("legacy.test");
  child->add(child->origin(), dns::RRType::SOA, soa);
  child->add(child->origin(), dns::RRType::NS,
             dns::NsRdata{dns::Name::of("ns1.legacy.test")});
  child->add(dns::Name::of("ns1.legacy.test"), dns::RRType::A,
             dns::ARdata{*dns::Ipv4Address::parse("93.184.225.1")});
  child->add(child->origin(), dns::RRType::A,
             dns::ARdata{*dns::Ipv4Address::parse("93.184.225.9")});
  auto child_server = std::make_shared<server::AuthServer>();
  child_server->add_zone(child);
  network->attach(sim::NodeAddress::of("93.184.225.1"),
                  child_server->endpoint());
  network->set_mutator(sim::NodeAddress::of("93.184.225.1"),
                       sim::make_byzantine_mutator(
                           {sim::ByzantineBehavior::edns_strip_opt()}, 0));

  auto root = std::make_shared<zone::Zone>(dns::Name{});
  dns::SoaRdata root_soa;
  root_soa.mname = dns::Name::of("a.root-servers.net");
  root_soa.rname = dns::Name{};
  root->add(dns::Name{}, dns::RRType::SOA, root_soa);
  root->add(dns::Name{}, dns::RRType::NS,
            dns::NsRdata{dns::Name::of("a.root-servers.net")});
  root->add(dns::Name::of("a.root-servers.net"), dns::RRType::A,
            dns::ARdata{*dns::Ipv4Address::parse("198.41.0.4")});
  root->add(dns::Name::of("legacy.test"), dns::RRType::NS,
            dns::NsRdata{dns::Name::of("ns1.legacy.test")});
  root->add(dns::Name::of("ns1.legacy.test"), dns::RRType::A,
            dns::ARdata{*dns::Ipv4Address::parse("93.184.225.1")});
  const auto root_keys = zone::make_zone_keys(dns::Name{});
  zone::sign_zone(*root, root_keys, {});
  auto root_server = std::make_shared<server::AuthServer>();
  root_server->add_zone(root);
  network->attach(sim::NodeAddress::of("198.41.0.4"),
                  root_server->endpoint());

  resolver::RecursiveResolver resolver(
      network, resolver::profile_cloudflare(),
      {sim::NodeAddress::of("198.41.0.4")}, root_keys.ksk.dnskey, {});
  const auto outcome =
      resolver.resolve(dns::Name::of("legacy.test"), dns::RRType::A);
  // Unsigned delegation: resolution succeeds despite the legacy server.
  EXPECT_EQ(outcome.rcode, dns::RCode::NOERROR);
  bool flagged = false;
  for (const auto& f : outcome.findings) {
    flagged |= f.defect == dnssec::Defect::NoOptInResponse;
  }
  EXPECT_TRUE(flagged);
}

// --- iteration limits ------------------------------------------------------

bool has_finding(const resolver::Outcome& outcome, dnssec::Defect defect) {
  for (const auto& f : outcome.findings) {
    if (f.defect == defect) return true;
  }
  return false;
}

// Hand-built hierarchies sitting at and one past each resolver cap. The
// root is signed (the resolver starts from its trust anchor); every zone
// below it is unsigned.
//   referral chain  l1. -> l2.l1. -> ... -> l24...l1., one server each
//   cname.test      a0 -> ... -> a8 (8 CNAMEs), b0 -> ... -> b9 (9 CNAMEs)
//   glueless        at3.test needs 3 nested glueless NS look-ups to reach
//                   its server, at4.test needs 4
class ResolverLimits : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_ = std::make_shared<sim::Clock>();
    network_ = std::make_shared<sim::Network>(clock_);
    root_ = make_zone(dns::Name{}, dns::Name::of("a.root-servers.net"),
                      "198.41.0.4");

    // Zone i is delegated from zone i-1 with glue, one past the cap deep.
    std::shared_ptr<zone::Zone> parent = root_;
    for (int i = 1; i <= resolver::kMaxReferrals; ++i) {
      const auto origin = chain_zone(i);
      const auto address = "93.184.231." + std::to_string(i);
      auto zone = make_zone(origin, child(origin, "ns"), address);
      zone->add(child(origin, "a"), dns::RRType::A, an_address());
      delegate(*parent, origin, child(origin, "ns"), address);
      serve(address, zone);
      parent = std::move(zone);
    }

    const auto cname_origin = dns::Name::of("cname.test");
    auto cnames = make_zone(cname_origin, child(cname_origin, "ns"),
                            "93.184.232.1");
    add_cname_chain(*cnames, "a", resolver::kMaxCnameChain);
    add_cname_chain(*cnames, "b", resolver::kMaxCnameChain + 1);
    delegate(*root_, cname_origin, child(cname_origin, "ns"), "93.184.232.1");
    serve("93.184.232.1", cnames);

    add_glueless_chain("at3", resolver::kMaxNsResolutionDepth, 233);
    add_glueless_chain("at4", resolver::kMaxNsResolutionDepth + 1, 234);

    const auto keys = zone::make_zone_keys(dns::Name{});
    trust_anchor_ = keys.ksk.dnskey;
    zone::sign_zone(*root_, keys, {});
    serve("198.41.0.4", root_);
  }

  resolver::RecursiveResolver make_resolver() {
    return resolver::RecursiveResolver(
        network_, resolver::profile_cloudflare(),
        {sim::NodeAddress::of("198.41.0.4")}, trust_anchor_);
  }

  static dns::Name child(const dns::Name& parent, const std::string& label) {
    return parent.prefixed(label).value();
  }

  /// l<depth>.l<depth-1>. ... .l1.
  static dns::Name chain_zone(int depth) {
    dns::Name name;
    for (int i = 1; i <= depth; ++i) {
      name = child(name, "l" + std::to_string(i));
    }
    return name;
  }

  static dns::Rdata an_address() {
    return dns::ARdata{*dns::Ipv4Address::parse("192.0.2.1")};
  }

  static std::shared_ptr<zone::Zone> make_zone(const dns::Name& origin,
                                               const dns::Name& ns_name,
                                               const std::string& address) {
    auto zone = std::make_shared<zone::Zone>(origin);
    dns::SoaRdata soa;
    soa.mname = ns_name;
    soa.rname = origin;
    soa.minimum = 300;
    zone->add(origin, dns::RRType::SOA, soa);
    zone->add(origin, dns::RRType::NS, dns::NsRdata{ns_name});
    if (ns_name.is_subdomain_of(origin)) {
      zone->add(ns_name, dns::RRType::A,
                dns::ARdata{*dns::Ipv4Address::parse(address)});
    }
    return zone;
  }

  /// An empty `glue` leaves the delegation glueless.
  static void delegate(zone::Zone& parent, const dns::Name& child,
                       const dns::Name& ns_name, const std::string& glue) {
    parent.add(child, dns::RRType::NS, dns::NsRdata{ns_name});
    if (!glue.empty()) {
      parent.add(ns_name, dns::RRType::A,
                 dns::ARdata{*dns::Ipv4Address::parse(glue)});
    }
  }

  /// <prefix>0 -> <prefix>1 -> ... -> <prefix><cnames>, which holds the A.
  static void add_cname_chain(zone::Zone& zone, const std::string& prefix,
                              int cnames) {
    const auto owner = [&](int i) {
      return child(zone.origin(), prefix + std::to_string(i));
    };
    for (int i = 0; i < cnames; ++i) {
      zone.add(owner(i), dns::RRType::CNAME, dns::CnameRdata{owner(i + 1)});
    }
    zone.add(owner(cnames), dns::RRType::A, an_address());
  }

  /// <name>.test holds `www` and is served under ns.<name>h1.test; zone
  /// <name>h<i>.test is served under ns.<name>h<i+1>.test, and the last,
  /// <name>h<lookups>.test, under its own glued ns1. Reaching www therefore
  /// takes `lookups` nested nameserver-address resolutions. ns.<name>h<i>
  /// is 93.184.<net>.<i>, published in zone <name>h<i>.test.
  void add_glueless_chain(const std::string& name, int lookups, int net) {
    const auto helper = [&](int i) {
      return dns::Name::of(name + "h" + std::to_string(i) + ".test");
    };
    const auto address = [&](int i) {
      return "93.184." + std::to_string(net) + "." + std::to_string(i);
    };
    const auto target = dns::Name::of(name + ".test");
    auto zone = make_zone(target, child(helper(1), "ns"), "");
    zone->add(child(target, "www"), dns::RRType::A, an_address());
    delegate(*root_, target, child(helper(1), "ns"), "");
    serve(address(1), zone);
    for (int i = 1; i <= lookups; ++i) {
      // The glue sits under ns1, a name no other delegation points at:
      // the root would hand out glue for ns.<name>h<lookups> as well.
      const bool last = i == lookups;
      const auto ns_name =
          last ? child(helper(i), "ns1") : child(helper(i + 1), "ns");
      auto hop = make_zone(helper(i), ns_name, address(i));
      hop->add(child(helper(i), "ns"), dns::RRType::A,
               dns::ARdata{*dns::Ipv4Address::parse(address(i))});
      delegate(*root_, helper(i), ns_name, last ? address(i) : "");
      serve(last ? address(i) : address(i + 1), hop);
    }
  }

  /// Add `zone` to the server at `address`, starting one if needed.
  void serve(const std::string& address, std::shared_ptr<zone::Zone> zone) {
    auto& server = servers_[address];
    if (!server) {
      server = std::make_shared<server::AuthServer>();
      network_->attach(sim::NodeAddress::of(address), server->endpoint());
    }
    server->add_zone(std::move(zone));
  }

  std::shared_ptr<sim::Clock> clock_;
  std::shared_ptr<sim::Network> network_;
  std::shared_ptr<zone::Zone> root_;
  std::map<std::string, std::shared_ptr<server::AuthServer>> servers_;
  dns::DnskeyRdata trust_anchor_;
};

TEST_F(ResolverLimits, ReferralRoundsStopAtTheCap) {
  // a.<zone 23> is answered in round 24: 23 referrals, then the answer.
  auto resolver = make_resolver();
  const auto at_cap = resolver.resolve(
      child(chain_zone(resolver::kMaxReferrals - 1), "a"), dns::RRType::A);
  EXPECT_EQ(at_cap.rcode, dns::RCode::NOERROR);
  EXPECT_EQ(at_cap.trace.size(),
            static_cast<std::size_t>(resolver::kMaxReferrals));

  auto fresh = make_resolver();
  const auto past_cap = fresh.resolve(
      child(chain_zone(resolver::kMaxReferrals), "a"), dns::RRType::A);
  EXPECT_EQ(past_cap.rcode, dns::RCode::SERVFAIL);
  EXPECT_TRUE(has_finding(past_cap, dnssec::Defect::IterationLimitExceeded));
  EXPECT_EQ(past_cap.trace.size(),
            static_cast<std::size_t>(resolver::kMaxReferrals));
}

TEST_F(ResolverLimits, CnameChainStopsAtTheCap) {
  auto resolver = make_resolver();
  const auto at_cap =
      resolver.resolve(dns::Name::of("a0.cname.test"), dns::RRType::A);
  EXPECT_EQ(at_cap.rcode, dns::RCode::NOERROR);
  EXPECT_FALSE(has_finding(at_cap, dnssec::Defect::IterationLimitExceeded));

  const auto past_cap =
      resolver.resolve(dns::Name::of("b0.cname.test"), dns::RRType::A);
  EXPECT_EQ(past_cap.rcode, dns::RCode::SERVFAIL);
  EXPECT_TRUE(has_finding(past_cap, dnssec::Defect::IterationLimitExceeded));
}

TEST_F(ResolverLimits, GluelessNsLookupsStopAtTheDepthCap) {
  auto resolver = make_resolver();
  const auto at_cap =
      resolver.resolve(dns::Name::of("www.at3.test"), dns::RRType::A);
  EXPECT_EQ(at_cap.rcode, dns::RCode::NOERROR);
  EXPECT_FALSE(at_cap.response.answer.empty());

  auto fresh = make_resolver();
  const auto past_cap =
      fresh.resolve(dns::Name::of("www.at4.test"), dns::RRType::A);
  EXPECT_EQ(past_cap.rcode, dns::RCode::SERVFAIL);
}

}  // namespace
