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

/// A nameserver's address record: AAAA for IPv6 glue, A otherwise.
void add_address(zone::Zone& zone, const dns::Name& owner,
                 std::string_view addr, bool aaaa) {
  if (aaaa) {
    zone.add(owner, dns::RRType::AAAA, aaaa_rdata(addr));
  } else {
    zone.add(owner, dns::RRType::A, a_rdata(addr));
  }
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

/// A child zone's skeleton: SOA, NS ns1.<child> and that nameserver's
/// address, then the apex A every child serves.
std::shared_ptr<zone::Zone> child_skeleton(const dns::Name& child,
                                           std::string_view glue_addr,
                                           bool glue_is_aaaa) {
  const dns::Name child_ns = child.prefixed("ns1").take();
  auto zone = std::make_shared<zone::Zone>(child);
  zone->add(child, dns::RRType::SOA, dns::Rdata{soa_for(child, child_ns)});
  zone->add(child, dns::RRType::NS, dns::NsRdata{child_ns});
  add_address(*zone, child_ns, glue_addr, glue_is_aaaa);
  zone->add(child, dns::RRType::A, a_rdata(kChildWebAddr));
  return zone;
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
    const dns::Name child = child_origin(spec.label);
    const std::string glue_addr =
        spec.glue_address.empty()
            ? "93.184.218." + std::to_string(child_index)
            : spec.glue_address;
    auto child_zone = child_skeleton(child, glue_addr, spec.glue_is_aaaa);
    child_zone->add(child, dns::RRType::TXT,
                    dns::TxtRdata{{"testbed case: " + spec.label}});

    std::vector<dns::DsRdata> ds;
    if (spec.signed_zone) {
      // For the unassigned/reserved-ZSK cases the KSK stays on a normal
      // algorithm (the DS must stay actionable); only the ZSK is odd.
      const auto algo_status =
          dnssec::algorithm_info(spec.algorithm).status;
      const bool zsk_only_odd =
          algo_status == dnssec::AlgorithmStatus::Unassigned ||
          algo_status == dnssec::AlgorithmStatus::Reserved;
      const std::uint8_t ksk_algo = zsk_only_odd ? 8 : spec.algorithm;
      zone::ZoneKeys child_keys;
      child_keys.ksk = dnssec::make_ksk(child, ksk_algo);
      child_keys.zsk = dnssec::make_zsk(child, spec.algorithm);

      zone::SigningPolicy policy;
      policy.nsec3_iterations = spec.nsec3_iterations;
      zone::sign_zone(*child_zone, child_keys, policy);
      apply_mutation(*child_zone, child_keys, policy, spec.mutation);
      ds = ds_for_mode(child, child_keys, spec.ds_mode);
    }
    add_child(*base_zone, spec.label, std::move(child_zone), glue_addr,
              spec.glue_is_aaaa, ds, {.config = {.acl = spec.acl}});
  }

  // --- the scenario families ---------------------------------------------
  if (options_.stream_family) {
    int index = 0;
    for (const auto& spec : stream_cases()) {
      add_family_child(*base_zone, spec.label,
                       "93.184.219." + std::to_string(++index), spec.serving,
                       /*signed_zone=*/true);
    }
  }
  if (options_.edns_family) {
    int index = 0;
    for (const auto& spec : edns_cases()) {
      add_family_child(*base_zone, spec.label,
                       "93.184.220." + std::to_string(++index), spec.serving,
                       spec.signed_zone);
    }
  }

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
  serve(sim::NodeAddress::of(kRootServerAddr), root_zone, {});
  serve(sim::NodeAddress::of(kComServerAddr), com_zone, {});
  serve(sim::NodeAddress::of(kBaseServerAddr), base_zone, {});

  root_servers_ = {sim::NodeAddress::of(kRootServerAddr)};
}

void Testbed::add_family_child(zone::Zone& base_zone, std::string_view label,
                               std::string_view glue_addr,
                               const ChildServing& serving,
                               bool signed_zone) {
  // A TXT RRset whose answer (with its signature) runs to roughly 2 KB —
  // far past 512 and 1232, comfortably under 4096, and larger than the
  // classic 1472-byte Ethernet-MTU fragment limit frag-drop drops at.
  const dns::Name child = child_origin(label);
  auto child_zone = child_skeleton(child, glue_addr, /*glue_is_aaaa=*/false);
  dns::TxtRdata txt;
  for (int i = 0; i < 8; ++i) txt.strings.push_back(std::string(200, 'x'));
  child_zone->add(child, dns::RRType::TXT, txt);

  // A signed child gets a real DS, so a degraded plain-DNS answer turns
  // into a validation failure; an unsigned one is an insecure delegation
  // that isolates the transport dance.
  std::vector<dns::DsRdata> ds;
  if (signed_zone) {
    const auto child_keys = zone::make_zone_keys(child);
    zone::sign_zone(*child_zone, child_keys, {});
    ds = zone::ds_records(child, child_keys);
  }
  add_child(base_zone, label, std::move(child_zone), glue_addr,
            /*glue_is_aaaa=*/false, ds, serving);
}

void Testbed::add_child(zone::Zone& base_zone, std::string_view label,
                        std::shared_ptr<const zone::Zone> child_zone,
                        std::string_view glue_addr, bool glue_is_aaaa,
                        const std::vector<dns::DsRdata>& ds,
                        const ChildServing& serving) {
  // The parent's side of the delegation.
  const dns::Name& child = child_zone->origin();
  const dns::Name child_ns = child.prefixed("ns1").take();
  base_zone.add(child, dns::RRType::NS, dns::NsRdata{child_ns});
  add_address(base_zone, child_ns, glue_addr, glue_is_aaaa);
  for (const auto& record : ds) {
    base_zone.add(child, dns::RRType::DS, dns::Rdata{record});
  }

  // Serve the child when its address can receive packets.
  const auto address = sim::NodeAddress::of(glue_addr);
  if (address.is_routable()) serve(address, child_zone, serving);
  child_zones_.emplace(label, std::move(child_zone));
  child_addresses_.emplace(label, address);
}

void Testbed::serve(const sim::NodeAddress& address,
                    std::shared_ptr<const zone::Zone> zone,
                    const ChildServing& serving) {
  auto server = std::make_shared<server::AuthServer>(serving.config);
  server->add_zone(std::move(zone));
  const auto endpoint = server->endpoint();
  network_->attach(address, endpoint);
  network_->stream().listen(address, endpoint);
  // Each transport gets its own compiled mutator (and so its own RNG).
  const auto rewriter =
      [](const std::vector<sim::ByzantineBehavior>& behaviors) {
        return behaviors.empty() ? sim::ResponseMutator{}
                                 : sim::make_byzantine_mutator(behaviors, 0);
      };
  network_->set_mutator(address, rewriter(serving.datagram_rewrites));
  network_->stream().set_mutator(address, rewriter(serving.stream_rewrites));
  network_->stream().set_behaviors(address, serving.stream_faults);
  network_->inject_fault(address, serving.path_fault);
  servers_.push_back(std::move(server));
}

const std::vector<StreamCaseSpec>& Testbed::stream_case_specs() const {
  static const std::vector<StreamCaseSpec> kEmpty;
  return options_.stream_family ? stream_cases() : kEmpty;
}

const std::vector<EdnsCaseSpec>& Testbed::edns_case_specs() const {
  static const std::vector<EdnsCaseSpec> kEmpty;
  return options_.edns_family ? edns_cases() : kEmpty;
}

dns::RRType Testbed::edns_qtype(const EdnsCaseSpec& spec,
                                bool second_contact) {
  const auto first = spec.query_txt ? dns::RRType::TXT : dns::RRType::A;
  const auto flipped = spec.query_txt ? dns::RRType::A : dns::RRType::TXT;
  return second_contact ? flipped : first;
}

dns::Name Testbed::child_origin(std::string_view label) const {
  return base_domain_.prefixed(label).take();
}

dns::Name Testbed::query_name(const CaseSpec& spec) const {
  const dns::Name child = child_origin(spec.label);
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
