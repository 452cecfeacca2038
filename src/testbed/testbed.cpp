#include "resolver/resolver.hpp"
#include "server/auth_server.hpp"
#include "simnet/byzantine.hpp"
#include "simnet/stream.hpp"
#include "testbed/testbed.hpp"

namespace ede::testbed {

namespace {

constexpr std::string_view kRootServerAddr = "198.41.0.4";
constexpr std::string_view kComServerAddr = "192.5.6.30";
constexpr std::string_view kBaseServerAddr = "93.184.216.1";
constexpr std::string_view kChildWebAddr = "93.184.216.200";

dns::Name name_of(std::string_view text) { return dns::Name::of(text); }

dns::Rdata a_rdata(std::string_view addr) {
  return dns::ARdata{*dns::Ipv4Address::parse(addr)};
}

dns::Rdata aaaa_rdata(std::string_view addr) {
  return dns::AaaaRdata{*dns::Ipv6Address::parse(addr)};
}

dns::SoaRdata soa_for(const dns::Name& origin, const dns::Name& mname) {
  dns::SoaRdata soa;
  soa.mname = mname;
  soa.rname = origin.prefixed("hostmaster").take();
  soa.serial = 2023051500;
  soa.refresh = 7200;
  soa.retry = 3600;
  soa.expire = 1209600;
  soa.minimum = 300;
  return soa;
}

/// DS records the parent publishes for a child, possibly mangled.
std::vector<dns::DsRdata> ds_for_mode(const dns::Name& child,
                                      const zone::ZoneKeys& keys,
                                      DsMode mode) {
  if (mode == DsMode::None) return {};
  dns::DsRdata ds = dnssec::make_ds(child, keys.ksk.dnskey, 2);
  switch (mode) {
    case DsMode::Normal:
      break;
    case DsMode::BadTag:
      ds.key_tag = static_cast<std::uint16_t>(ds.key_tag + 1);
      break;
    case DsMode::BadKeyAlgoField:
      ds.algorithm = (ds.algorithm == 13) ? 8 : 13;
      break;
    case DsMode::UnassignedKeyAlgo:
      ds.algorithm = 100;
      break;
    case DsMode::ReservedKeyAlgo:
      ds.algorithm = 200;
      break;
    case DsMode::UnassignedDigest:
      ds.digest_type = 100;
      break;
    case DsMode::BogusDigestValue:
      if (!ds.digest.empty()) ds.digest.front() ^= 0xff;
      break;
    case DsMode::None:
      break;
  }
  return {ds};
}

}  // namespace

Testbed::Testbed(std::shared_ptr<sim::Network> network,
                 TestbedOptions options)
    : network_(std::move(network)),
      options_(options),
      base_domain_(name_of("extended-dns-errors.com")) {
  build_hierarchy();
}

void Testbed::build_hierarchy() {
  const dns::Name root_name;  // "."
  const dns::Name com = name_of("com");
  const dns::Name root_ns = name_of("a.root-servers.net");
  const dns::Name com_ns = name_of("b.gtld-servers.net");
  const dns::Name base_ns = base_domain_.prefixed("ns1").take();

  // Keys for the healthy part of the hierarchy.
  const auto root_keys = zone::make_zone_keys(root_name);
  const auto com_keys = zone::make_zone_keys(com);
  const auto base_keys = zone::make_zone_keys(base_domain_);
  trust_anchor_ = root_keys.ksk.dnskey;

  // --- the base zone (extended-dns-errors.com) -------------------------
  auto base_zone = std::make_shared<zone::Zone>(base_domain_);
  base_zone->add(base_domain_, dns::RRType::SOA,
                 dns::Rdata{soa_for(base_domain_, base_ns)});
  base_zone->add(base_domain_, dns::RRType::NS, dns::NsRdata{base_ns});
  base_zone->add(base_ns, dns::RRType::A, a_rdata(kBaseServerAddr));
  base_zone->add(base_domain_, dns::RRType::A, a_rdata("93.184.216.10"));
  base_zone->add(base_domain_, dns::RRType::TXT,
                 dns::TxtRdata{{"Extended DNS Errors testbed"}});

  // --- the 63 children ---------------------------------------------------
  int child_index = 0;
  for (const auto& spec : all_cases()) {
    ++child_index;
    const dns::Name child = child_origin(spec);
    const dns::Name child_ns = child.prefixed("ns1").take();
    const std::string default_addr =
        "93.184.218." + std::to_string(child_index);
    const std::string glue_addr =
        spec.glue_address.empty() ? default_addr : spec.glue_address;

    // Child zone contents.
    auto child_zone = std::make_shared<zone::Zone>(child);
    child_zone->add(child, dns::RRType::SOA,
                    dns::Rdata{soa_for(child, child_ns)});
    child_zone->add(child, dns::RRType::NS, dns::NsRdata{child_ns});
    child_zone->add(child_ns,
                    spec.glue_is_aaaa ? dns::RRType::AAAA : dns::RRType::A,
                    spec.glue_is_aaaa ? aaaa_rdata(glue_addr)
                                      : a_rdata(glue_addr));
    child_zone->add(child, dns::RRType::A, a_rdata(kChildWebAddr));
    child_zone->add(child, dns::RRType::TXT,
                    dns::TxtRdata{{"testbed case: " + spec.label}});

    zone::ZoneKeys child_keys;
    if (spec.signed_zone) {
      // For the unassigned/reserved-ZSK cases the KSK stays on a normal
      // algorithm (the DS must stay actionable); only the ZSK is odd.
      const auto algo_status =
          dnssec::algorithm_info(spec.algorithm).status;
      const bool zsk_only_odd =
          algo_status == dnssec::AlgorithmStatus::Unassigned ||
          algo_status == dnssec::AlgorithmStatus::Reserved;
      const std::uint8_t ksk_algo = zsk_only_odd ? 8 : spec.algorithm;
      child_keys.ksk = dnssec::make_ksk(child, ksk_algo);
      child_keys.zsk = dnssec::make_zsk(child, spec.algorithm);

      zone::SigningPolicy policy;
      policy.nsec3_iterations = spec.nsec3_iterations;
      zone::sign_zone(*child_zone, child_keys, policy);
      apply_mutation(*child_zone, child_keys, policy, spec.mutation);
    }

    // Parent-side records.
    base_zone->add(child, dns::RRType::NS, dns::NsRdata{child_ns});
    base_zone->add(child_ns,
                   spec.glue_is_aaaa ? dns::RRType::AAAA : dns::RRType::A,
                   spec.glue_is_aaaa ? aaaa_rdata(glue_addr)
                                     : a_rdata(glue_addr));
    if (spec.signed_zone) {
      for (const auto& ds : ds_for_mode(child, child_keys, spec.ds_mode)) {
        base_zone->add(child, dns::RRType::DS, dns::Rdata{ds});
      }
    }

    // Attach the child's server when its address can receive packets.
    const auto child_addr = sim::NodeAddress::of(glue_addr);
    if (child_addr.is_routable()) {
      server::ServerConfig config;
      config.acl = spec.acl;
      auto server = std::make_shared<server::AuthServer>(config);
      server->add_zone(child_zone);
      network_->attach(child_addr, server->endpoint());
      network_->stream().listen(child_addr, server->stream_endpoint());
      servers_.push_back(std::move(server));
    }
    child_zones_.emplace(spec.label, std::move(child_zone));
    child_addresses_.emplace(spec.label, child_addr);
  }

  if (options_.stream_family) build_stream_family(*base_zone);
  if (options_.edns_family) build_edns_family(*base_zone);

  zone::sign_zone(*base_zone, base_keys, {});

  // --- com ----------------------------------------------------------------
  auto com_zone = std::make_shared<zone::Zone>(com);
  com_zone->add(com, dns::RRType::SOA, dns::Rdata{soa_for(com, com_ns)});
  com_zone->add(com, dns::RRType::NS, dns::NsRdata{com_ns});
  com_zone->add(base_domain_, dns::RRType::NS, dns::NsRdata{base_ns});
  com_zone->add(base_ns, dns::RRType::A, a_rdata(kBaseServerAddr));
  for (const auto& ds : zone::ds_records(base_domain_, base_keys)) {
    com_zone->add(base_domain_, dns::RRType::DS, dns::Rdata{ds});
  }
  zone::sign_zone(*com_zone, com_keys, {});

  // --- root ----------------------------------------------------------------
  auto root_zone = std::make_shared<zone::Zone>(root_name);
  root_zone->add(root_name, dns::RRType::SOA,
                 dns::Rdata{soa_for(root_name, root_ns)});
  root_zone->add(root_name, dns::RRType::NS, dns::NsRdata{root_ns});
  root_zone->add(root_ns, dns::RRType::A, a_rdata(kRootServerAddr));
  root_zone->add(com, dns::RRType::NS, dns::NsRdata{com_ns});
  root_zone->add(com_ns, dns::RRType::A, a_rdata(kComServerAddr));
  for (const auto& ds : zone::ds_records(com, com_keys)) {
    root_zone->add(com, dns::RRType::DS, dns::Rdata{ds});
  }
  zone::sign_zone(*root_zone, root_keys, {});

  // --- servers ---------------------------------------------------------
  const auto attach = [&](std::string_view addr,
                          std::shared_ptr<const zone::Zone> zone) {
    auto server = std::make_shared<server::AuthServer>();
    server->add_zone(std::move(zone));
    network_->attach(sim::NodeAddress::of(addr), server->endpoint());
    network_->stream().listen(sim::NodeAddress::of(addr),
                              server->stream_endpoint());
    servers_.push_back(std::move(server));
  };
  attach(kRootServerAddr, root_zone);
  attach(kComServerAddr, com_zone);
  attach(kBaseServerAddr, base_zone);

  root_servers_ = {sim::NodeAddress::of(kRootServerAddr)};
}

void Testbed::build_stream_family(zone::Zone& base_zone) {
  int index = 0;
  for (const auto& spec : stream_cases()) {
    ++index;
    const dns::Name child = base_domain_.prefixed(spec.label).take();
    const dns::Name child_ns = child.prefixed("ns1").take();
    const std::string glue_addr = "93.184.219." + std::to_string(index);

    // A correctly signed zone whose TXT answer (with its signature) runs
    // to roughly 2 KB — far past 512 and 1232, comfortably under 4096,
    // and larger than the classic 1472-byte Ethernet-MTU fragment limit
    // the FragDrop case drops at.
    auto child_zone = std::make_shared<zone::Zone>(child);
    child_zone->add(child, dns::RRType::SOA,
                    dns::Rdata{soa_for(child, child_ns)});
    child_zone->add(child, dns::RRType::NS, dns::NsRdata{child_ns});
    child_zone->add(child_ns, dns::RRType::A, a_rdata(glue_addr));
    child_zone->add(child, dns::RRType::A, a_rdata(kChildWebAddr));
    dns::TxtRdata txt;
    for (int i = 0; i < 8; ++i) txt.strings.push_back(std::string(200, 'x'));
    child_zone->add(child, dns::RRType::TXT, txt);

    const auto child_keys = zone::make_zone_keys(child);
    zone::sign_zone(*child_zone, child_keys, {});

    // Parent-side records: a healthy, fully secure delegation.
    base_zone.add(child, dns::RRType::NS, dns::NsRdata{child_ns});
    base_zone.add(child_ns, dns::RRType::A, a_rdata(glue_addr));
    for (const auto& ds : zone::ds_records(child, child_keys)) {
      base_zone.add(child, dns::RRType::DS, dns::Rdata{ds});
    }

    const auto child_addr = sim::NodeAddress::of(glue_addr);
    server::ServerConfig config;
    config.udp_payload_size = spec.server_payload_limit;
    auto server = std::make_shared<server::AuthServer>(config);
    server->add_zone(child_zone);
    network_->attach(child_addr, server->endpoint());
    network_->stream().listen(child_addr, server->stream_endpoint());

    // The case's stream-side (or path-side) misbehavior.
    switch (spec.fault) {
      case StreamFault::None:
        break;
      case StreamFault::Refuse:
        network_->stream().set_behaviors(child_addr,
                                         {sim::StreamBehavior::refuse()});
        break;
      case StreamFault::Stall:
        network_->stream().set_behaviors(child_addr,
                                         {sim::StreamBehavior::stall()});
        break;
      case StreamFault::MidClose:
        network_->stream().set_behaviors(child_addr,
                                         {sim::StreamBehavior::mid_close()});
        break;
      case StreamFault::GarbageFrame:
        network_->stream().set_behaviors(
            child_addr, {sim::StreamBehavior::garbage_frame()});
        break;
      case StreamFault::DifferentAnswer:
        network_->stream().set_mutator(
            child_addr, sim::make_byzantine_mutator(
                            {sim::ByzantineBehavior::different_answer()}, 0));
        break;
      case StreamFault::FragDrop:
        network_->inject_fault(child_addr, sim::Fault::frag_drop());
        break;
    }

    servers_.push_back(std::move(server));
    child_zones_.emplace(spec.label, std::move(child_zone));
    child_addresses_.emplace(spec.label, child_addr);
  }
}

void Testbed::build_edns_family(zone::Zone& base_zone) {
  int index = 0;
  for (const auto& spec : edns_cases()) {
    ++index;
    const dns::Name child = base_domain_.prefixed(spec.label).take();
    const dns::Name child_ns = child.prefixed("ns1").take();
    const std::string glue_addr = "93.184.220." + std::to_string(index);

    // Same zone shape as the stream family: an apex A plus a TXT RRset
    // big enough that the BufferLie case's spurious truncation bites.
    auto child_zone = std::make_shared<zone::Zone>(child);
    child_zone->add(child, dns::RRType::SOA,
                    dns::Rdata{soa_for(child, child_ns)});
    child_zone->add(child, dns::RRType::NS, dns::NsRdata{child_ns});
    child_zone->add(child_ns, dns::RRType::A, a_rdata(glue_addr));
    child_zone->add(child, dns::RRType::A, a_rdata(kChildWebAddr));
    dns::TxtRdata txt;
    for (int i = 0; i < 8; ++i) txt.strings.push_back(std::string(200, 'x'));
    child_zone->add(child, dns::RRType::TXT, txt);

    // Parent-side records. A signed child gets a real DS so the degraded
    // plain-DNS path turns into a validation failure; an unsigned one is
    // an insecure delegation that isolates the transport dance.
    base_zone.add(child, dns::RRType::NS, dns::NsRdata{child_ns});
    base_zone.add(child_ns, dns::RRType::A, a_rdata(glue_addr));
    if (spec.signed_zone) {
      const auto child_keys = zone::make_zone_keys(child);
      zone::sign_zone(*child_zone, child_keys, {});
      for (const auto& ds : zone::ds_records(child, child_keys)) {
        base_zone.add(child, dns::RRType::DS, dns::Rdata{ds});
      }
    }

    // Each OPT pathology is a Byzantine behavior at the authority's
    // address, firing on every exchange; only FORMERR-to-everything and
    // the buffer lie are server configuration.
    const auto child_addr = sim::NodeAddress::of(glue_addr);
    server::ServerConfig config;
    std::optional<sim::ByzantineBehavior> hostile;
    switch (spec.fault) {
      case EdnsFault::None:
        break;
      case EdnsFault::DropOptQuery:
        hostile = sim::ByzantineBehavior::edns_drop();
        break;
      case EdnsFault::FormerrOnOpt:
        hostile = sim::ByzantineBehavior::edns_formerr();
        break;
      case EdnsFault::FormerrAlways:
        config.fixed_rcode = dns::RCode::FORMERR;
        break;
      case EdnsFault::StripOpt:
        hostile = sim::ByzantineBehavior::edns_strip_opt();
        break;
      case EdnsFault::EchoUnknownOption:
        hostile = sim::ByzantineBehavior::edns_echo_extra();
        break;
      case EdnsFault::Badvers:
        hostile = sim::ByzantineBehavior::edns_badvers();
        break;
      case EdnsFault::BufferLie:
        // Advertised sizes never go below 512, so the server truncates at
        // 512 whatever the client offered.
        config.udp_payload_size = 512;
        break;
      case EdnsFault::GarbleOptRdata:
        hostile = sim::ByzantineBehavior::edns_garble();
        break;
      case EdnsFault::DuplicateOpt:
        hostile = sim::ByzantineBehavior::edns_duplicate_opt();
        break;
    }
    auto server = std::make_shared<server::AuthServer>(config);
    server->add_zone(child_zone);
    network_->attach(child_addr, server->endpoint());
    network_->stream().listen(child_addr, server->stream_endpoint());
    if (hostile.has_value()) {
      network_->set_mutator(child_addr,
                            sim::make_byzantine_mutator({*hostile}, 0));
      // The EDNS-hostile firewall filters datagrams; a stream reaches the
      // authority untouched.
      if (hostile->kind != sim::ByzantineKind::EdnsDrop) {
        network_->stream().set_mutator(
            child_addr, sim::make_byzantine_mutator({*hostile}, 0));
      }
    }

    servers_.push_back(std::move(server));
    child_zones_.emplace(spec.label, std::move(child_zone));
    child_addresses_.emplace(spec.label, child_addr);
  }
}

const std::vector<EdnsCaseSpec>& Testbed::edns_case_specs() const {
  static const std::vector<EdnsCaseSpec> kEmpty;
  return options_.edns_family ? edns_cases() : kEmpty;
}

dns::Name Testbed::edns_query_name(const EdnsCaseSpec& spec) const {
  return base_domain_.prefixed(spec.label).take();
}

dns::RRType Testbed::edns_qtype(const EdnsCaseSpec& spec,
                                bool second_contact) {
  const auto first = spec.query_txt ? dns::RRType::TXT : dns::RRType::A;
  const auto flipped = spec.query_txt ? dns::RRType::A : dns::RRType::TXT;
  return second_contact ? flipped : first;
}

const std::vector<StreamCaseSpec>& Testbed::stream_case_specs() const {
  static const std::vector<StreamCaseSpec> kEmpty;
  return options_.stream_family ? stream_cases() : kEmpty;
}

dns::Name Testbed::stream_query_name(const StreamCaseSpec& spec) const {
  return base_domain_.prefixed(spec.label).take();
}

dns::Name Testbed::child_origin(const CaseSpec& spec) const {
  return base_domain_.prefixed(spec.label).take();
}

dns::Name Testbed::query_name(const CaseSpec& spec) const {
  const dns::Name child = child_origin(spec);
  if (spec.query_nonexistent) return child.prefixed("nonexistent").take();
  return child;
}

resolver::RecursiveResolver Testbed::make_resolver(
    resolver::ResolverProfile profile,
    resolver::ResolverOptions options) const {
  return resolver::RecursiveResolver(network_, std::move(profile),
                                     root_servers_, trust_anchor_, options);
}

std::shared_ptr<const zone::Zone> Testbed::child_zone(
    std::string_view label) const {
  const auto it = child_zones_.find(label);
  return it == child_zones_.end() ? nullptr : it->second;
}

std::optional<sim::NodeAddress> Testbed::server_address(
    std::string_view label) const {
  const auto it = child_addresses_.find(label);
  return it == child_addresses_.end() ? std::nullopt
                                      : std::optional(it->second);
}

}  // namespace ede::testbed
