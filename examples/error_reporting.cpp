// DNS Error Reporting (RFC 9567) walk-through: an authoritative server
// advertises a reporting agent; a validating resolver hits a DNSSEC
// failure in that zone, emits an EDE to its client, *and* reports the
// failure to the zone operator's agent — closing the troubleshooting loop
// the paper's §2 describes as ongoing IETF work built on EDE.
//
//   $ ./error_reporting
#include <cstdio>

#include "resolver/resolver.hpp"
#include "server/auth_server.hpp"
#include "server/report_agent.hpp"
#include "testbed/mutations.hpp"
#include "testbed/testbed.hpp"

int main() {
  using namespace ede;
  auto clock = std::make_shared<sim::Clock>();
  auto network = std::make_shared<sim::Network>(clock);

  // A zone whose signatures just expired (the classic operational slip).
  const dns::Name broken = dns::Name::of("broken.test");
  const dns::Name agent_domain = dns::Name::of("agent.test");
  auto child = std::make_shared<zone::Zone>(broken);
  dns::SoaRdata soa;
  soa.mname = broken;
  soa.rname = broken;
  soa.minimum = 300;
  child->add(broken, dns::RRType::SOA, soa);
  child->add(broken, dns::RRType::NS,
             dns::NsRdata{dns::Name::of("ns1.broken.test")});
  child->add(dns::Name::of("ns1.broken.test"), dns::RRType::A,
             dns::ARdata{*dns::Ipv4Address::parse("93.184.220.1")});
  child->add(broken, dns::RRType::A,
             dns::ARdata{*dns::Ipv4Address::parse("93.184.220.9")});
  const auto child_keys = zone::make_zone_keys(broken);
  zone::SigningPolicy policy;
  zone::sign_zone(*child, child_keys, policy);
  testbed::apply_mutation(*child, child_keys, policy,
                          testbed::Mutation::RrsigExpireAll);

  server::ServerConfig config;
  config.report_agent = agent_domain;  // "report my failures here"
  auto child_server = std::make_shared<server::AuthServer>(config);
  child_server->add_zone(child);
  network->attach(sim::NodeAddress::of("93.184.220.1"),
                  child_server->endpoint());

  // The zone operator's reporting agent.
  auto agent = std::make_shared<server::ReportAgent>(agent_domain);
  network->attach(sim::NodeAddress::of("93.184.220.2"), agent->endpoint());

  // A signed root delegating to both.
  auto root = std::make_shared<zone::Zone>(dns::Name{});
  dns::SoaRdata root_soa;
  root_soa.mname = dns::Name::of("a.root-servers.net");
  root_soa.rname = dns::Name{};
  root->add(dns::Name{}, dns::RRType::SOA, root_soa);
  root->add(dns::Name{}, dns::RRType::NS,
            dns::NsRdata{dns::Name::of("a.root-servers.net")});
  root->add(dns::Name::of("a.root-servers.net"), dns::RRType::A,
            dns::ARdata{*dns::Ipv4Address::parse("198.41.0.4")});
  root->add(broken, dns::RRType::NS,
            dns::NsRdata{dns::Name::of("ns1.broken.test")});
  root->add(dns::Name::of("ns1.broken.test"), dns::RRType::A,
            dns::ARdata{*dns::Ipv4Address::parse("93.184.220.1")});
  for (const auto& ds : zone::ds_records(broken, child_keys)) {
    root->add(broken, dns::RRType::DS, ds);
  }
  root->add(agent_domain, dns::RRType::NS,
            dns::NsRdata{dns::Name::of("ns1.agent.test")});
  root->add(dns::Name::of("ns1.agent.test"), dns::RRType::A,
            dns::ARdata{*dns::Ipv4Address::parse("93.184.220.2")});
  const auto root_keys = zone::make_zone_keys(dns::Name{});
  zone::sign_zone(*root, root_keys, {});
  auto root_server = std::make_shared<server::AuthServer>();
  root_server->add_zone(root);
  network->attach(sim::NodeAddress::of("198.41.0.4"),
                  root_server->endpoint());

  // A resolver with error reporting enabled.
  resolver::ResolverOptions options;
  options.enable_error_reporting = true;
  resolver::RecursiveResolver resolver(
      network, resolver::profile_cloudflare(),
      {sim::NodeAddress::of("198.41.0.4")}, root_keys.ksk.dnskey, options);

  std::printf("resolving broken.test A (signatures expired)...\n\n");
  const auto outcome = resolver.resolve(broken, dns::RRType::A);

  std::printf("client view : %s",
              dns::to_string(outcome.rcode).c_str());
  for (const auto& error : outcome.errors)
    std::printf("  [%s]", error.to_string().c_str());
  std::printf("\n");
  if (outcome.report_sent) {
    std::printf("report sent : %s TXT\n",
                outcome.report_sent->to_string().c_str());
  }

  std::printf("\nagent's log (what the zone operator sees):\n");
  for (const auto& report : agent->reports()) {
    std::printf("  %s %s failed with EDE %u (%s)\n",
                report.qname.to_string().c_str(),
                dns::to_string(report.qtype).c_str(),
                static_cast<unsigned>(report.code),
                edns::to_string(report.code).c_str());
  }
  std::printf("\nThe operator learns about the expired signatures without "
              "any client filing a ticket.\n");
  return 0;
}
