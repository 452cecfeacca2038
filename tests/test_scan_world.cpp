// White-box ScanWorld tests: per-category child-zone construction, the
// on-demand synthesis determinism, provider pools and the CSV exporters.
#include <gtest/gtest.h>

#include <cctype>

#include "edns/edns.hpp"
#include "scan/export.hpp"
#include "scan/scanner.hpp"
#include "scan/world.hpp"
#include "server/auth_server.hpp"

namespace {

using namespace ede;
using namespace ede::scan;
using dns::Name;
using dns::RRType;

class ScanWorldFixture : public ::testing::Test {
 protected:
  ScanWorldFixture()
      : population_(generate_population([] {
          PopulationConfig config;
          config.total_domains = 3000;
          config.seed = 21;
          return config;
        }())),
        network_(std::make_shared<sim::Network>(
            std::make_shared<sim::Clock>())),
        world_(network_, population_) {}

  const DomainSpec* first_of(Category category) const {
    for (const auto& domain : population_.domains) {
      if (domain.category == category) return &domain;
    }
    return nullptr;
  }

  Population population_;
  std::shared_ptr<sim::Network> network_;
  ScanWorld world_;
};

TEST_F(ScanWorldFixture, ChildZoneSynthesisIsDeterministic) {
  const auto* domain = first_of(Category::Healthy);
  ASSERT_NE(domain, nullptr);
  const auto a = world_.build_child_zone(*domain);
  const auto b = world_.build_child_zone(*domain);
  EXPECT_EQ(a->record_count(), b->record_count());
  EXPECT_EQ(a->origin(), b->origin());
  // Signatures are bit-identical because keys derive from the zone name.
  const auto sa = a->signatures(a->origin(), RRType::A);
  const auto sb = b->signatures(b->origin(), RRType::A);
  ASSERT_FALSE(sa.empty());
  EXPECT_EQ(sa.front().signature, sb.front().signature);
}

TEST_F(ScanWorldFixture, HealthyZonesAreFullySigned) {
  const auto* domain = first_of(Category::Healthy);
  ASSERT_NE(domain, nullptr);
  const auto zone = world_.build_child_zone(*domain);
  EXPECT_NE(zone->find(zone->origin(), RRType::DNSKEY), nullptr);
  EXPECT_FALSE(zone->signatures(zone->origin(), RRType::A).empty());
  EXPECT_NE(zone->find(zone->origin(), RRType::NSEC3PARAM), nullptr);
}

TEST_F(ScanWorldFixture, LameZonesAreUnsignedAndPointAtDeadPools) {
  for (const auto category : {Category::LameRefused, Category::LameTimeout,
                              Category::LameUnroutable}) {
    const auto* domain = first_of(category);
    ASSERT_NE(domain, nullptr) << to_string(category);
    const auto zone = world_.build_child_zone(*domain);
    EXPECT_EQ(zone->find(zone->origin(), RRType::DNSKEY), nullptr)
        << to_string(category);
    const auto plan = plan_for(category);
    const auto address = world_.provider_address(plan.pool, domain->provider);
    if (category == Category::LameUnroutable) {
      EXPECT_FALSE(address.is_routable());
    } else {
      EXPECT_TRUE(address.is_routable());
    }
  }
}

TEST_F(ScanWorldFixture, StandbyZoneCarriesThreeKeys) {
  const auto* domain = first_of(Category::StandbyKsk);
  ASSERT_NE(domain, nullptr);
  const auto zone = world_.build_child_zone(*domain);
  const auto* dnskey = zone->find(zone->origin(), RRType::DNSKEY);
  ASSERT_NE(dnskey, nullptr);
  EXPECT_EQ(dnskey->rdatas.size(), 3u);
}

TEST_F(ScanWorldFixture, CnameLoopZoneLoops) {
  const auto* domain = first_of(Category::CnameLoop);
  ASSERT_NE(domain, nullptr);
  const auto zone = world_.build_child_zone(*domain);
  const auto* apex_cname = zone->find(zone->origin(), RRType::CNAME);
  ASSERT_NE(apex_cname, nullptr);
  // Follow the chain three hops: it must never leave the zone.
  Name cursor = zone->origin();
  for (int hop = 0; hop < 3; ++hop) {
    const auto* link = zone->find(cursor, RRType::CNAME);
    ASSERT_NE(link, nullptr) << cursor.to_string();
    cursor = std::get<dns::CnameRdata>(link->rdatas.front()).target;
    EXPECT_TRUE(cursor.is_subdomain_of(zone->origin()));
  }
}

TEST_F(ScanWorldFixture, PartialFailZoneHasTwoNameservers) {
  const auto* domain = first_of(Category::PartialFail);
  ASSERT_NE(domain, nullptr);
  const auto zone = world_.build_child_zone(*domain);
  const auto* ns = zone->find(zone->origin(), RRType::NS);
  ASSERT_NE(ns, nullptr);
  EXPECT_EQ(ns->rdatas.size(), 2u);
}

TEST_F(ScanWorldFixture, LazyAndMaterializedChildZonesServeIdenticalBytes) {
  const auto answer = [](const server::AuthServer& server, const Name& qname,
                         RRType qtype) {
    dns::Message query = dns::make_query(7, qname, qtype);
    edns::Edns edns;
    edns.dnssec_ok = true;
    edns.udp_payload_size = 0xffff;
    edns::set_edns(query, edns);
    return server
        .handle(query, sim::PacketContext{sim::NodeAddress::of("192.0.2.100")})
        .serialize();
  };
  std::size_t categories = 0;
  for (const auto& info : category_table()) {
    const auto* domain = first_of(info.category);
    if (domain == nullptr) continue;
    ++categories;
    // Each build defers its signing; the second is materialized up front.
    server::AuthServer lazy;
    lazy.add_zone(world_.build_child_zone(*domain));
    const auto built = world_.build_child_zone(*domain);
    EXPECT_GT(built->record_count(), 0u);
    server::AuthServer materialized;
    materialized.add_zone(built);
    const Name apex = built->origin();
    for (const auto& [qname, qtype] :
         std::vector<std::pair<Name, RRType>>{
             {apex, RRType::A},
             {apex, RRType::DNSKEY},
             {apex, RRType::SOA},
             {apex, RRType::NS},
             {apex.prefixed("nonexistent").take(), RRType::A}}) {
      EXPECT_EQ(answer(lazy, qname, qtype),
                answer(materialized, qname, qtype))
          << info.name << " " << qname.to_string() << " "
          << dns::to_string(qtype);
    }
  }
  EXPECT_EQ(categories, category_table().size());
}

TEST_F(ScanWorldFixture, ProviderKeepsTheSixteenMostRecentlyBuiltZones) {
  std::vector<const DomainSpec*> healthy;
  for (const auto& domain : population_.domains) {
    if (domain.category == Category::Healthy) healthy.push_back(&domain);
    if (healthy.size() == 17) break;
  }
  ASSERT_EQ(healthy.size(), 17u);
  const auto ask = [&](const DomainSpec& domain) {
    const auto query =
        dns::make_query(1, Name::of(domain.fqdn), RRType::A).serialize();
    const auto result = network_->send(
        sim::NodeAddress::of("192.0.2.100"),
        world_.provider_address(ServingPlan::Pool::Healthy, domain.provider),
        query);
    EXPECT_EQ(result.status, sim::SendStatus::Delivered) << domain.fqdn;
  };
  const auto before = world_.child_zone_builds();
  for (const auto* domain : healthy) ask(*domain);
  EXPECT_EQ(world_.child_zone_builds() - before, 17u);
  // The 16 most recently built are all still held, in any order.
  for (std::size_t i = healthy.size() - 1; i >= 1; --i) ask(*healthy[i]);
  EXPECT_EQ(world_.child_zone_builds() - before, 17u);
  ask(*healthy.front());  // the least recently used, evicted by the 17th
  EXPECT_EQ(world_.child_zone_builds() - before, 18u);
}

TEST_F(ScanWorldFixture, LookupFindsExactlyRegisteredNames) {
  const auto& any = population_.domains.front();
  EXPECT_EQ(world_.lookup(Name::of(any.fqdn)), &any);
  EXPECT_EQ(world_.lookup(Name::of("not-registered.example")), nullptr);
}

// Domain i is named "d<i>.<tld>" at every scale and seed: the trim that
// lands the population on its size only ever pops healthy domains off the
// tail, so ScanWorld::lookup can read the index from the name.
TEST_F(ScanWorldFixture, EveryNameCarriesItsPosition) {
  for (const std::size_t size : {10u, 300u, 3'000u, 30'000u}) {
    for (const std::uint64_t seed : {42u, 7u}) {
      PopulationConfig config;
      config.total_domains = size;
      config.seed = seed;
      const auto population = generate_population(config);
      ASSERT_GE(population.domains.size(), size);
      for (std::size_t i = 0; i < population.domains.size(); ++i) {
        const auto& domain = population.domains[i];
        ASSERT_EQ(domain.fqdn, "d" + std::to_string(i) + "." +
                                   population.tlds[domain.tld].name)
            << size << " domains, seed " << seed;
      }
    }
  }
}

TEST_F(ScanWorldFixture, LookupReadsTheIndexFromTheName) {
  const auto& domains = population_.domains;
  for (const auto& domain : domains) {
    ASSERT_EQ(world_.lookup(Name::of(domain.fqdn)), &domain) << domain.fqdn;
    std::string upper = domain.fqdn;
    for (auto& c : upper) c = static_cast<char>(std::toupper(c));
    ASSERT_EQ(world_.lookup(Name::of(upper)), &domain) << upper;
  }

  const auto& d12 = domains[12];
  ASSERT_EQ(d12.fqdn.rfind("d12.", 0), 0u);
  const std::string tld = population_.tlds[d12.tld].name;
  const std::string other_tld =
      population_.tlds[(d12.tld + 1) % population_.tlds.size()].name;
  ASSERT_NE(tld, other_tld);
  for (const std::string& miss :
       {"d" + std::to_string(domains.size()) + "." + tld,  // one past the end
        "d012." + tld,                                     // leading zero
        "d12." + other_tld,                                // wrong TLD
        "x12." + tld,                                      // not a d label
        "d." + tld,                                        // no index
        "d-1." + tld, "d+1." + tld,
        "d1234567890123456789012345." + tld,  // overflows the index
        std::string{"d12"},                   // one label
        "www.d12." + tld}) {                  // three labels
    EXPECT_EQ(world_.lookup(Name::of(miss)), nullptr) << miss;
  }
}

TEST_F(ScanWorldFixture, ProviderPoolsAreBoundedAndDisjoint) {
  std::map<int, std::set<std::string>> by_pool;
  for (const auto pool :
       {ServingPlan::Pool::Healthy, ServingPlan::Pool::Refused,
        ServingPlan::Pool::Timeout, ServingPlan::Pool::Unroutable,
        ServingPlan::Pool::Mangle, ServingPlan::Pool::NotAuth}) {
    for (std::uint32_t slot = 0; slot < 300; slot += 7) {
      by_pool[static_cast<int>(pool)].insert(
          world_.provider_address(pool, slot).to_string());
    }
  }
  // Pools are non-empty, bounded, and pairwise disjoint.
  for (auto a = by_pool.begin(); a != by_pool.end(); ++a) {
    EXPECT_FALSE(a->second.empty());
    EXPECT_LE(a->second.size(), 256u);
    for (auto b = std::next(a); b != by_pool.end(); ++b) {
      for (const auto& address : a->second) {
        EXPECT_EQ(b->second.count(address), 0u)
            << address << " shared between pools " << a->first << " and "
            << b->first;
      }
    }
  }
}

TEST_F(ScanWorldFixture, CsvExportsAreWellFormed) {
  auto resolver = world_.make_resolver(resolver::profile_cloudflare());
  world_.prewarm(resolver);
  const auto result = Scanner{}.run(resolver, population_);

  const auto s42 = section42_csv(result, population_);
  EXPECT_EQ(s42.rfind("code,name,measured,scaled_up", 0), 0u);
  EXPECT_GT(std::count(s42.begin(), s42.end(), '\n'), 3);

  const auto f1 = figure1_csv(result, population_);
  EXPECT_EQ(f1.rfind("group,ratio_percent,cdf", 0), 0u);
  EXPECT_NE(f1.find("gtld,"), std::string::npos);
  EXPECT_NE(f1.find("cctld,"), std::string::npos);

  const auto f2 = figure2_csv(result);
  EXPECT_EQ(f2.rfind("rank,cdf,noerror_share", 0), 0u);
}

}  // namespace
