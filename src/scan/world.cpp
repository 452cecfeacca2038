#include "scan/world.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <set>

#include "crypto/encoding.hpp"
#include "dnscore/arena.hpp"
#include "dnssec/nsec3.hpp"
#include "dnssec/sign.hpp"
#include "edns/edns.hpp"
#include "resolver/resolver.hpp"
#include "server/auth_server.hpp"
#include "simnet/byzantine.hpp"
#include "simnet/stream.hpp"
#include "zone/signer.hpp"

namespace ede::scan {

namespace {

constexpr std::string_view kRootServerAddr = "198.41.0.4";
constexpr std::uint32_t kProviderSlots = 256;

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

/// Distinct addresses per pool, calibrated (at 1:1000) to the paper's
/// breakdown of 293 k unique failing nameservers: 267 k REFUSED, 21 k
/// SERVFAIL/NOTAUTH-ish, 15 k timeouts.
std::uint32_t pool_slots(ServingPlan::Pool pool) {
  switch (pool) {
    case ServingPlan::Pool::Healthy: return kProviderSlots;
    case ServingPlan::Pool::Refused: return 256;
    case ServingPlan::Pool::Timeout: return 15;
    case ServingPlan::Pool::Unroutable: return 64;
    case ServingPlan::Pool::Mangle: return 12;
    case ServingPlan::Pool::NotAuth: return 8;
  }
  return kProviderSlots;
}

std::string pool_prefix(ServingPlan::Pool pool) {
  switch (pool) {
    case ServingPlan::Pool::Healthy: return "185.10.";
    case ServingPlan::Pool::Refused: return "185.20.";
    case ServingPlan::Pool::Timeout: return "185.30.";
    case ServingPlan::Pool::Unroutable: return "10.66.";  // private space
    case ServingPlan::Pool::Mangle: return "185.40.";
    case ServingPlan::Pool::NotAuth: return "185.50.";
  }
  return "185.60.";
}

}  // namespace

ServingPlan plan_for(Category category) {
  using Pool = ServingPlan::Pool;
  using Ds = ServingPlan::Ds;
  using testbed::Mutation;
  ServingPlan plan;
  switch (category) {
    case Category::Healthy:
      break;
    case Category::LameRefused:
      plan.signed_zone = false;
      plan.ds = Ds::None;
      plan.pool = Pool::Refused;
      break;
    case Category::LameTimeout:
      plan.signed_zone = false;
      plan.ds = Ds::None;
      plan.pool = Pool::Timeout;
      break;
    case Category::LameUnroutable:
      plan.signed_zone = false;
      plan.ds = Ds::None;
      plan.pool = Pool::Unroutable;
      break;
    case Category::PartialFail:
      plan.signed_zone = false;
      plan.ds = Ds::None;
      plan.pool = Pool::Refused;
      plan.second_healthy_ns = true;
      break;
    case Category::StandbyKsk:
      plan.mutation = Mutation::StandbyKskUnsigned;
      break;
    case Category::DnskeyMissing:
      plan.ds = Ds::BadTag;
      break;
    case Category::Bogus:
      plan.mutation = Mutation::ZskCorrupt;
      break;
    case Category::InvalidData:
      plan.signed_zone = false;
      plan.ds = Ds::None;
      plan.pool = Pool::Mangle;
      break;
    case Category::UnsupportedAlgo:
      break;  // algorithm choice handled in build_child_zone (Ed448)
    case Category::SigExpired:
      plan.mutation = Mutation::RrsigExpireAll;
      break;
    case Category::NsecMissing:
      plan.signed_zone = false;
      plan.ds = Ds::None;
      plan.omit_referral_proof = true;
      break;
    case Category::UnsupportedDsDigest:
      plan.ds = Ds::GostDigest;
      break;
    case Category::StaleAnswer:
      plan.signed_zone = false;
      plan.ds = Ds::None;
      plan.pool = Pool::Unroutable;
      break;
    case Category::SigNotYet:
      plan.mutation = Mutation::RrsigNotYetAll;
      break;
    case Category::CachedError:
      plan.signed_zone = false;
      plan.ds = Ds::None;
      plan.pool = Pool::NotAuth;
      break;
    case Category::CnameLoop:
      plan.signed_zone = false;
      plan.ds = Ds::None;
      plan.cname_loop = true;
      break;
  }
  return plan;
}

// --- TLD authority -----------------------------------------------------

namespace {

/// One synthetic TLD: a real signed apex zone plus on-demand referral
/// synthesis for every registered domain below it.
class TldAuthority {
 public:
  TldAuthority(const ScanWorld* world, dns::Name apex, zone::ZoneKeys keys)
      : world_(world), apex_(std::move(apex)), keys_(std::move(keys)) {
    ns_name_ = apex_.prefixed("nic").take().prefixed("a").take();
    auto zone = std::make_shared<zone::Zone>(apex_);
    zone->add(apex_, dns::RRType::SOA, dns::Rdata{soa_for(apex_, ns_name_)});
    zone->add(apex_, dns::RRType::NS, dns::NsRdata{ns_name_});
    zone::sign_zone(*zone, keys_, policy_);
    apex_zone_ = std::move(zone);
    apex_server_.add_zone(apex_zone_);
  }

  [[nodiscard]] const dns::Name& apex() const { return apex_; }
  [[nodiscard]] const zone::ZoneKeys& keys() const { return keys_; }

  [[nodiscard]] std::optional<crypto::Bytes> handle(
      crypto::BytesView wire, const sim::PacketContext& ctx) const {
    if (!arena_.parse(wire)) return std::nullopt;
    const dns::Message& query = arena_.message();
    if (query.question.empty()) return std::nullopt;
    const auto& q = query.question.front();

    // Identify the registered domain: the name one label below the TLD.
    const DomainSpec* domain = nullptr;
    if (q.qname.is_subdomain_of(apex_) && !(q.qname == apex_) &&
        q.qname.label_count() > apex_.label_count()) {
      const auto name = q.qname.suffix(apex_.label_count() + 1);
      domain = world_->lookup(name);
    }
    if (domain == nullptr) {
      return arena_.serialize_copy(apex_server_.handle(query, ctx));
    }
    return arena_.serialize_copy(referral(query, *domain));
  }

 private:
  [[nodiscard]] dns::Message referral(const dns::Message& query,
                                      const DomainSpec& domain) const;

  const ScanWorld* world_;
  dns::Name apex_;
  dns::Name ns_name_;
  zone::ZoneKeys keys_;
  zone::SigningPolicy policy_;
  std::shared_ptr<const zone::Zone> apex_zone_;
  server::AuthServer apex_server_;
  /// Reused parse/serialize scratch; the apex server keeps its own arena,
  /// so the query held here survives the nested handle() call.
  mutable dns::MessageArena arena_;
};

dns::Message TldAuthority::referral(const dns::Message& query,
                                    const DomainSpec& domain) const {
  const ServingPlan plan = plan_for(domain.category);
  const dns::Name child = dns::Name::of(domain.fqdn);
  const dns::Name ns1 = child.prefixed("ns1").take();

  dns::Message response;
  response.header.id = query.header.id;
  response.header.qr = true;
  response.question = query.question;

  const auto edns = edns::get_edns(query);
  const bool dnssec_ok = edns.has_value() && edns->dnssec_ok;

  const auto addr1 =
      world_->provider_address(plan.pool, domain.provider);
  const auto add_ns = [&](const dns::Name& owner,
                          const sim::NodeAddress& addr) {
    response.authority.push_back({child, dns::RRType::NS, dns::RRClass::IN,
                                  3600, dns::NsRdata{owner}});
    if (const auto* v4 = addr.v4()) {
      response.additional.push_back({owner, dns::RRType::A, dns::RRClass::IN,
                                     3600, dns::ARdata{*v4}});
    } else {
      response.additional.push_back({owner, dns::RRType::AAAA,
                                     dns::RRClass::IN, 3600,
                                     dns::AaaaRdata{*addr.v6()}});
    }
  };
  if (plan.second_healthy_ns) {
    // Partially lame domains: NS order decides whether a first-success
    // resolver ever notices the dead server. Half the population lists the
    // healthy server first (the undercounted half — the paper calls its
    // own lame-delegation numbers a lower bound for this exact reason).
    const dns::Name ns2 = child.prefixed("ns2").take();
    const auto addr2 =
        world_->provider_address(ServingPlan::Pool::Healthy, domain.provider);
    if (domain.provider % 2 == 0) {
      add_ns(ns2, addr2);
      add_ns(ns1, addr1);
    } else {
      add_ns(ns1, addr1);
      add_ns(ns2, addr2);
    }
  } else {
    add_ns(ns1, addr1);
  }

  if (dnssec_ok) {
    if (plan.ds != ServingPlan::Ds::None) {
      // The child's keys are derived from its name, so the DS can be
      // computed here without shared state.
      const std::uint8_t child_algo =
          domain.category == Category::UnsupportedAlgo ? 16 : 8;
      const auto child_ksk = dnssec::make_ksk(child, child_algo);
      const std::uint8_t digest_type =
          plan.ds == ServingPlan::Ds::GostDigest ? 3 : 2;
      dns::DsRdata ds = dnssec::make_ds(child, child_ksk.dnskey, digest_type);
      if (plan.ds == ServingPlan::Ds::BadTag) {
        ds.key_tag = static_cast<std::uint16_t>(ds.key_tag + 1);
      }
      dns::RRset ds_rrset{child, dns::RRType::DS, dns::RRClass::IN, 3600,
                          {dns::Rdata{ds}}};
      const auto sig = dnssec::sign_rrset(ds_rrset, keys_.zsk, apex_,
                                          policy_.window);
      response.authority.push_back({child, dns::RRType::DS, dns::RRClass::IN,
                                    3600, dns::Rdata{ds}});
      response.authority.push_back({child, dns::RRType::RRSIG,
                                    dns::RRClass::IN, 3600, dns::Rdata{sig}});
    } else if (!plan.omit_referral_proof) {
      // Synthesize the matching NSEC3 proving the delegation is unsigned.
      const auto hash = dnssec::nsec3_hash(
          child, crypto::BytesView{policy_.nsec3_salt},
          policy_.nsec3_iterations);
      dns::Nsec3Rdata n3;
      n3.iterations = policy_.nsec3_iterations;
      n3.salt = policy_.nsec3_salt;
      n3.next_hashed_owner = hash;
      if (!n3.next_hashed_owner.empty()) ++n3.next_hashed_owner.back();
      n3.types.add(dns::RRType::NS);
      const dns::Name owner =
          apex_.prefixed(crypto::to_base32hex(hash)).take();
      dns::RRset n3_rrset{owner, dns::RRType::NSEC3, dns::RRClass::IN, 300,
                          {dns::Rdata{n3}}};
      const auto sig = dnssec::sign_rrset(n3_rrset, keys_.zsk, apex_,
                                          policy_.window);
      response.authority.push_back({owner, dns::RRType::NSEC3,
                                    dns::RRClass::IN, 300, dns::Rdata{n3}});
      response.authority.push_back({owner, dns::RRType::RRSIG,
                                    dns::RRClass::IN, 300, dns::Rdata{sig}});
    }
  }

  if (edns.has_value()) {
    edns::Edns out;
    out.dnssec_ok = dnssec_ok;
    edns::set_edns(response, out);
  }
  return response;
}

}  // namespace

/// Healthy provider: synthesizes the child zone for whichever registered
/// domain the query concerns, keeping the kZoneCacheCapacity most recently
/// used ones so the scanner's sequential access pattern stays cheap.
class ProviderServer {
 public:
  ProviderServer(const ScanWorld* world, const Population* population)
      : world_(world), population_(population) {}

  [[nodiscard]] std::optional<crypto::Bytes> handle(
      crypto::BytesView wire, const sim::PacketContext& ctx) {
    if (!arena_.parse(wire)) return std::nullopt;
    const dns::Message& query = arena_.message();
    if (query.question.empty()) return std::nullopt;

    // Every registered domain sits one label below its TLD, so the only
    // name that can own qname is its two-label suffix.
    const auto& qname = query.question.front().qname;
    const DomainSpec* domain =
        qname.label_count() < 2 ? nullptr : world_->lookup(qname.suffix(2));
    if (domain == nullptr) {
      dns::Message refused;
      refused.header.id = query.header.id;
      refused.header.qr = true;
      refused.question = query.question;
      refused.header.rcode = dns::RCode::REFUSED;
      return arena_.serialize_copy(refused);
    }
    return arena_.serialize_copy(server_for(*domain).handle(query, ctx));
  }

  [[nodiscard]] std::size_t builds() const { return builds_; }

 private:
  static constexpr std::size_t kZoneCacheCapacity = 16;

  struct Entry {
    std::size_t domain;  // index into the population
    std::unique_ptr<server::AuthServer> server;
  };

  server::AuthServer& server_for(const DomainSpec& domain) {
    const auto index =
        static_cast<std::size_t>(&domain - population_->domains.data());
    const auto hit =
        std::find_if(lru_.begin(), lru_.end(),
                     [&](const Entry& entry) { return entry.domain == index; });
    if (hit != lru_.end()) {
      std::rotate(hit, hit + 1, lru_.end());
    } else {
      if (lru_.size() == kZoneCacheCapacity) lru_.erase(lru_.begin());
      auto server = std::make_unique<server::AuthServer>();
      server->add_zone(world_->build_child_zone(domain));
      ++builds_;
      lru_.push_back({index, std::move(server)});
    }
    return *lru_.back().server;
  }

  const ScanWorld* world_;
  const Population* population_;
  /// Least recently used first.
  std::vector<Entry> lru_;
  std::size_t builds_ = 0;
  /// Reused parse/serialize scratch (the cached child servers each carry
  /// their own arena, so the query scratch is not clobbered mid-handle).
  dns::MessageArena arena_;
};

// --- ScanWorld ----------------------------------------------------------

ScanWorld::ScanWorld(std::shared_ptr<sim::Network> network,
                     const Population& population, WorldOptions world_options)
    : network_(std::move(network)),
      population_(&population),
      world_options_(world_options) {
  build();
}

const DomainSpec* ScanWorld::lookup(const dns::Name& name) const {
  // Domain i is named "d<i>.<tld>" (generate_population), so the name is
  // the index: read i from the first label, then accept only domain i's
  // exact spelling, case-insensitively — no leading zero, and its own TLD.
  if (name.label_count() != 2) return nullptr;
  const std::string_view first = name.label(0);
  if ((first[0] != 'd' && first[0] != 'D') || first.size() < 2 ||
      (first[1] == '0' && first.size() > 2)) {
    return nullptr;
  }
  std::size_t index = 0;
  const char* end = first.data() + first.size();
  const auto [ptr, ec] = std::from_chars(first.data() + 1, end, index);
  if (ec != std::errc{} || ptr != end) return nullptr;
  if (index >= population_->domains.size()) return nullptr;
  const DomainSpec& domain = population_->domains[index];
  const std::string_view tld = name.label(1);
  const std::string& own = population_->tlds[domain.tld].name;
  const auto same = [](char a, char b) {
    return std::tolower(static_cast<unsigned char>(a)) ==
           std::tolower(static_cast<unsigned char>(b));
  };
  return std::equal(tld.begin(), tld.end(), own.begin(), own.end(), same)
             ? &domain
             : nullptr;
}

std::size_t ScanWorld::child_zone_builds() const {
  return healthy_provider_->builds();
}

sim::NodeAddress ScanWorld::provider_address(ServingPlan::Pool pool,
                                             std::uint32_t slot) const {
  slot %= pool_slots(pool);
  return sim::NodeAddress::of(pool_prefix(pool) +
                              std::to_string(slot / 250) + "." +
                              std::to_string(slot % 250 + 1));
}

std::size_t ScanWorld::dead_provider_count() const { return dead_providers_; }

void ScanWorld::build() {
  // One registration point for every authority address: UDP always, plus
  // the same endpoint as a DoTCP stream listener when the world is
  // configured with them (serving worlds; the wild scan stays UDP-only).
  // The endpoint reads the transport from its PacketContext.
  const auto attach_authority = [this](const sim::NodeAddress& address,
                                       const sim::Endpoint& endpoint) {
    if (world_options_.stream_listeners)
      network_->stream().listen(address, endpoint);
    network_->attach(address, endpoint);
  };

  const dns::Name root_name;
  const dns::Name root_ns = dns::Name::of("a.root-servers.net");
  const auto root_keys = zone::make_zone_keys(root_name);
  trust_anchor_ = root_keys.ksk.dnskey;

  auto root_zone = std::make_shared<zone::Zone>(root_name);
  root_zone->add(root_name, dns::RRType::SOA,
                 dns::Rdata{soa_for(root_name, root_ns)});
  root_zone->add(root_name, dns::RRType::NS, dns::NsRdata{root_ns});
  root_zone->add(root_ns, dns::RRType::A,
                 dns::ARdata{*dns::Ipv4Address::parse(kRootServerAddr)});

  // TLD authorities.
  for (std::size_t i = 0; i < population_->tlds.size(); ++i) {
    const auto& tld = population_->tlds[i];
    const dns::Name apex = dns::Name::of(tld.name);
    const auto address = sim::NodeAddress::of(
        "199.7." + std::to_string(i / 250) + "." +
        std::to_string(i % 250 + 1));
    tld_addresses_.push_back(address);

    auto keys = zone::make_zone_keys(apex);
    root_zone->add(apex, dns::RRType::NS,
                   dns::NsRdata{apex.prefixed("nic").take().prefixed("a").take()});
    root_zone->add(apex.prefixed("nic").take().prefixed("a").take(),
                   dns::RRType::A,
                   dns::ARdata{*address.v4()});
    for (const auto& ds : zone::ds_records(apex, keys)) {
      root_zone->add(apex, dns::RRType::DS, dns::Rdata{ds});
    }

    auto authority = std::make_shared<TldAuthority>(this, apex, keys);
    attach_authority(address, [authority](crypto::BytesView wire,
                                          const sim::PacketContext& ctx) {
      return authority->handle(wire, ctx);
    });
    keep_alive_.push_back(authority);
  }

  zone::sign_zone(*root_zone, root_keys, {});
  auto root_server = std::make_shared<server::AuthServer>();
  root_server->add_zone(root_zone);
  attach_authority(sim::NodeAddress::of(kRootServerAddr),
                   root_server->endpoint());
  keep_alive_.push_back(root_server);
  root_servers_ = {sim::NodeAddress::of(kRootServerAddr)};

  // Provider pools.
  healthy_provider_ = std::make_shared<ProviderServer>(this, population_);
  const sim::Endpoint healthy_endpoint =
      [healthy = healthy_provider_](crypto::BytesView wire,
                                    const sim::PacketContext& ctx) {
        return healthy->handle(wire, ctx);
      };

  server::ServerConfig refused_config;
  refused_config.fixed_rcode = dns::RCode::REFUSED;
  auto refused = std::make_shared<server::AuthServer>(refused_config);
  server::ServerConfig notauth_config;
  notauth_config.fixed_rcode = dns::RCode::NOTAUTH;
  auto notauth = std::make_shared<server::AuthServer>(notauth_config);
  keep_alive_.push_back(refused);
  keep_alive_.push_back(notauth);

  for (std::uint32_t slot = 0; slot < kProviderSlots; ++slot) {
    attach_authority(provider_address(ServingPlan::Pool::Healthy, slot),
                     healthy_endpoint);
    attach_authority(provider_address(ServingPlan::Pool::Refused, slot),
                     refused->endpoint());
    attach_authority(provider_address(ServingPlan::Pool::NotAuth, slot),
                     notauth->endpoint());
    attach_authority(provider_address(ServingPlan::Pool::Mangle, slot),
                     refused->endpoint());
    // Timeout and Unroutable pools are deliberately left unattached.
  }
  // The Mangle pool is a question-rewriting middlebox in front of a
  // REFUSED authority (the paper's Invalid Data category).
  for (std::uint32_t slot = 0; slot < pool_slots(ServingPlan::Pool::Mangle);
       ++slot) {
    const auto address = provider_address(ServingPlan::Pool::Mangle, slot);
    const auto mangle = sim::make_byzantine_mutator(
        {sim::ByzantineBehavior::wrong_question()}, 0);
    network_->set_mutator(address, mangle);
    if (world_options_.stream_listeners)
      network_->stream().set_mutator(address, mangle);
  }

  dead_providers_ = scan::dead_provider_count(*population_);
}

std::size_t dead_provider_count(const Population& population) {
  // Unroutable glue is not a nameserver that responded, so it is excluded
  // — mirroring the paper's 293 k count.
  std::set<std::pair<int, std::uint32_t>> dead;
  for (const auto& domain : population.domains) {
    const auto plan = plan_for(domain.category);
    if (plan.pool == ServingPlan::Pool::Healthy ||
        plan.pool == ServingPlan::Pool::Unroutable)
      continue;
    dead.emplace(static_cast<int>(plan.pool),
                 domain.provider % pool_slots(plan.pool));
  }
  return dead.size();
}

std::shared_ptr<zone::Zone> ScanWorld::build_child_zone(
    const DomainSpec& domain) const {
  const ServingPlan plan = plan_for(domain.category);
  const dns::Name child = dns::Name::of(domain.fqdn);
  const dns::Name ns1 = child.prefixed("ns1").take();

  auto zone = std::make_shared<zone::Zone>(child, world_options_.child_zone_ttl);
  zone->add(child, dns::RRType::SOA, dns::Rdata{soa_for(child, ns1)});
  zone->add(child, dns::RRType::NS, dns::NsRdata{ns1});
  const auto addr1 = provider_address(plan.pool, domain.provider);
  if (const auto* v4 = addr1.v4()) {
    zone->add(ns1, dns::RRType::A, dns::ARdata{*v4});
  }
  if (plan.second_healthy_ns) {
    const dns::Name ns2 = child.prefixed("ns2").take();
    zone->add(child, dns::RRType::NS, dns::NsRdata{ns2});
    const auto addr2 =
        provider_address(ServingPlan::Pool::Healthy, domain.provider);
    zone->add(ns2, dns::RRType::A, dns::ARdata{*addr2.v4()});
  }

  if (plan.cname_loop) {
    const dns::Name loop1 = child.prefixed("loop1").take();
    const dns::Name loop2 = child.prefixed("loop2").take();
    zone->add(child, dns::RRType::CNAME, dns::CnameRdata{loop1});
    zone->add(loop1, dns::RRType::CNAME, dns::CnameRdata{loop2});
    zone->add(loop2, dns::RRType::CNAME, dns::CnameRdata{loop1});
  } else {
    zone->add(child, dns::RRType::A,
              dns::ARdata{*dns::Ipv4Address::parse("93.184.219.10")});
  }

  if (plan.signed_zone) {
    const std::uint8_t algo =
        domain.category == Category::UnsupportedAlgo ? 16 : 8;
    zone::ZoneKeys keys;
    keys.ksk = dnssec::make_ksk(child, algo);
    keys.zsk = dnssec::make_zsk(child, algo);
    zone::SigningPolicy policy;
    // Real-world variety: a fifth of the healthy signed zones use flat
    // NSEC denial instead of NSEC3 (both validate identically end to end).
    if (domain.category == Category::Healthy && domain.provider % 5 == 0) {
      policy.denial = zone::DenialMode::Nsec;
    }
    zone::sign_zone(*zone, keys, policy);
    testbed::apply_mutation(*zone, keys, policy, plan.mutation);
  }
  return zone;
}

resolver::RecursiveResolver ScanWorld::make_resolver(
    resolver::ResolverProfile profile,
    resolver::ResolverOptions options) const {
  return resolver::RecursiveResolver(network_, std::move(profile),
                                     root_servers_, trust_anchor_, options);
}

void ScanWorld::prewarm(resolver::RecursiveResolver& resolver,
                        std::size_t begin, std::size_t end) const {
  const auto now = network_->clock().now();
  end = std::min(end, population_->domains.size());
  for (std::size_t i = begin; i < end; ++i) {
    const auto& domain = population_->domains[i];
    if (domain.category == Category::StaleAnswer) {
      resolver::PositiveEntry entry;
      entry.rrset = dns::RRset{
          dns::Name::of(domain.fqdn), dns::RRType::A, dns::RRClass::IN, 300,
          {dns::Rdata{dns::ARdata{*dns::Ipv4Address::parse("93.184.219.10")}}}};
      entry.security = dnssec::Security::Insecure;
      entry.expires = now - 100;  // expired, but well inside the stale window
      resolver.cache().put_positive(std::move(entry), now);
    } else if (domain.category == Category::CachedError) {
      resolver.cache().put_servfail(
          dns::Name::of(domain.fqdn), dns::RRType::A,
          {{}, now + resolver::kServfailTtl}, now);
    }
  }
}

}  // namespace ede::scan
