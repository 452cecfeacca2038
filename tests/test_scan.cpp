// Wild-scan tests: population generation invariants, the per-category
// EDE outcomes through the synthetic world (one parameterized test per
// category), and aggregate sanity on a small scan.
#include <gtest/gtest.h>

#include "edns/ede.hpp"
#include "resolver/infra_cache.hpp"
#include "resolver/resolver.hpp"
#include "scan/report.hpp"
#include "scan/world.hpp"
#include "simnet/address.hpp"

namespace {

using namespace ede;
using namespace ede::scan;

PopulationConfig small_config() {
  PopulationConfig config;
  config.total_domains = 4000;
  config.seed = 7;
  return config;
}

TEST(Population, DeterministicInTheSeed) {
  const auto a = generate_population(small_config());
  const auto b = generate_population(small_config());
  ASSERT_EQ(a.domains.size(), b.domains.size());
  for (std::size_t i = 0; i < a.domains.size(); i += 97) {
    EXPECT_EQ(a.domains[i].fqdn, b.domains[i].fqdn);
    EXPECT_EQ(a.domains[i].category, b.domains[i].category);
    EXPECT_EQ(a.domains[i].tranco_rank, b.domains[i].tranco_rank);
  }
}

TEST(Population, HitsTheRequestedSizeExactly) {
  const auto population = generate_population(small_config());
  EXPECT_EQ(population.domains.size(), small_config().total_domains);
}

TEST(Population, EveryCategoryIsRepresented) {
  const auto population = generate_population(small_config());
  for (const auto& entry : category_table()) {
    if (entry.category == Category::Healthy) continue;
    EXPECT_GE(population.count(entry.category), kMinCategoryCount)
        << entry.name;
  }
}

TEST(Population, HealthyDominates) {
  const auto population = generate_population(small_config());
  const double healthy =
      static_cast<double>(population.count(Category::Healthy));
  EXPECT_GT(healthy / static_cast<double>(population.domains.size()), 0.85);
}

TEST(Population, CleanTldFractionsMatchFigure1) {
  const auto population = generate_population(small_config());
  std::size_t g = 0, c = 0, g_clean = 0, c_clean = 0, all_bad = 0;
  for (const auto& tld : population.tlds) {
    (tld.is_cc ? c : g) += 1;
    if (tld.clean) (tld.is_cc ? c_clean : g_clean) += 1;
    all_bad += tld.all_bad ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(g_clean) / static_cast<double>(g), 0.38,
              0.03);
  EXPECT_NEAR(static_cast<double>(c_clean) / static_cast<double>(c), 0.04,
              0.03);
  EXPECT_EQ(all_bad, 13u);  // 11 gTLDs + 2 ccTLDs
}

TEST(Population, CleanTldsHoldNoMisconfiguredDomains) {
  const auto population = generate_population(small_config());
  for (const auto& domain : population.domains) {
    if (population.tlds[domain.tld].clean) {
      EXPECT_EQ(domain.category, Category::Healthy) << domain.fqdn;
    }
  }
}

TEST(Population, AllBadTldsHoldOnlyMisconfiguredDomains) {
  const auto population = generate_population(small_config());
  for (const auto& domain : population.domains) {
    if (population.tlds[domain.tld].all_bad) {
      EXPECT_NE(domain.category, Category::Healthy) << domain.fqdn;
    }
  }
}

TEST(Population, StandbyKskConcentratesUnderTwoCcTlds) {
  auto config = small_config();
  config.total_domains = 20'000;
  const auto population = generate_population(config);
  std::size_t total = 0, concentrated = 0;
  for (const auto& domain : population.domains) {
    if (domain.category != Category::StandbyKsk) continue;
    ++total;
    const auto& tld = population.tlds[domain.tld].name;
    if (tld == "se" || tld == "nu") ++concentrated;
  }
  ASSERT_GT(total, 0u);
  EXPECT_GT(static_cast<double>(concentrated) / static_cast<double>(total),
            0.8);
}

TEST(Population, TrancoRanksOnlyOnMisconfiguredDomains) {
  const auto population = generate_population(small_config());
  for (const auto& domain : population.domains) {
    if (domain.tranco_rank != 0) {
      EXPECT_NE(domain.category, Category::Healthy);
      EXPECT_LE(domain.tranco_rank, 1'000'000u);
    }
  }
}

TEST(CategoryTable, CodesAndCountsAreThePapers) {
  EXPECT_EQ(info(Category::LameRefused).headline_code, 22);
  EXPECT_EQ(info(Category::StandbyKsk).headline_code, 10);
  EXPECT_DOUBLE_EQ(info(Category::StandbyKsk).paper_count, 2'746'604.0);
  EXPECT_DOUBLE_EQ(info(Category::CachedError).paper_count, 8.0);
  EXPECT_TRUE(resolves_noerror(Category::StandbyKsk));
  EXPECT_FALSE(resolves_noerror(Category::Bogus));
}

// --- per-category end-to-end expectations --------------------------------

struct CategoryExpectation {
  Category category;
  std::vector<std::uint16_t> codes;  // sorted
  dns::RCode rcode;
};

class ScanCategory : public ::testing::TestWithParam<CategoryExpectation> {
 protected:
  struct WorldState {
    WorldState()
        : population(generate_population([] {
            PopulationConfig config;
            config.total_domains = 3000;
            config.seed = 11;
            return config;
          }())),
          network(std::make_shared<sim::Network>(
              std::make_shared<sim::Clock>())),
          world(network, population),
          resolver(world.make_resolver(resolver::profile_cloudflare())) {
      world.prewarm(resolver);
    }
    Population population;
    std::shared_ptr<sim::Network> network;
    ScanWorld world;
    resolver::RecursiveResolver resolver;
  };

  static WorldState& state() {
    static WorldState instance;
    return instance;
  }
};

TEST_P(ScanCategory, ProducesTheExpectedCodesAndRcode) {
  auto& s = state();
  const auto& expectation = GetParam();

  const DomainSpec* domain = nullptr;
  for (const auto& d : s.population.domains) {
    if (d.category != expectation.category) continue;
    // Partially-lame domains with an even provider slot list the healthy
    // server first and are deliberately undetectable (see world.cpp);
    // the detectable half carries an odd slot.
    if (d.category == Category::PartialFail && d.provider % 2 == 0) continue;
    domain = &d;
    break;
  }
  ASSERT_NE(domain, nullptr) << to_string(expectation.category);

  const auto outcome =
      s.resolver.resolve(dns::Name::of(domain->fqdn), dns::RRType::A);
  std::vector<std::uint16_t> codes;
  for (const auto& error : outcome.errors)
    codes.push_back(static_cast<std::uint16_t>(error.code));
  std::sort(codes.begin(), codes.end());
  codes.erase(std::unique(codes.begin(), codes.end()), codes.end());

  EXPECT_EQ(codes, expectation.codes) << domain->fqdn;
  EXPECT_EQ(outcome.rcode, expectation.rcode) << domain->fqdn;
}

INSTANTIATE_TEST_SUITE_P(
    AllCategories, ScanCategory,
    ::testing::Values(
        CategoryExpectation{Category::Healthy, {}, dns::RCode::NOERROR},
        CategoryExpectation{Category::LameRefused, {22, 23},
                            dns::RCode::SERVFAIL},
        CategoryExpectation{Category::LameTimeout, {22, 23},
                            dns::RCode::SERVFAIL},
        CategoryExpectation{Category::LameUnroutable, {22},
                            dns::RCode::SERVFAIL},
        CategoryExpectation{Category::PartialFail, {23}, dns::RCode::NOERROR},
        CategoryExpectation{Category::StandbyKsk, {10}, dns::RCode::NOERROR},
        CategoryExpectation{Category::DnskeyMissing, {9},
                            dns::RCode::SERVFAIL},
        CategoryExpectation{Category::Bogus, {6}, dns::RCode::SERVFAIL},
        CategoryExpectation{Category::InvalidData, {22, 24},
                            dns::RCode::SERVFAIL},
        CategoryExpectation{Category::UnsupportedAlgo, {1},
                            dns::RCode::NOERROR},
        CategoryExpectation{Category::SigExpired, {7}, dns::RCode::SERVFAIL},
        CategoryExpectation{Category::NsecMissing, {12},
                            dns::RCode::SERVFAIL},
        CategoryExpectation{Category::UnsupportedDsDigest, {2},
                            dns::RCode::NOERROR},
        CategoryExpectation{Category::StaleAnswer, {3, 22},
                            dns::RCode::NOERROR},
        CategoryExpectation{Category::SigNotYet, {8}, dns::RCode::SERVFAIL},
        CategoryExpectation{Category::CachedError, {13},
                            dns::RCode::SERVFAIL},
        CategoryExpectation{Category::CnameLoop, {0}, dns::RCode::SERVFAIL}),
    [](const ::testing::TestParamInfo<CategoryExpectation>& param_info) {
      std::string name = to_string(param_info.param.category);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(ScanPartialFail, HealthyFirstOrderingHidesTheDeadServer) {
  // The undercounted half: healthy NS first, so first-success probing
  // resolves cleanly and never sees the dead server.
  PopulationConfig config;
  config.total_domains = 3000;
  config.seed = 11;
  const auto population = generate_population(config);
  auto network =
      std::make_shared<sim::Network>(std::make_shared<sim::Clock>());
  ScanWorld world(network, population);
  auto resolver = world.make_resolver(resolver::profile_cloudflare());

  const DomainSpec* hidden = nullptr;
  for (const auto& d : population.domains) {
    if (d.category == Category::PartialFail && d.provider % 2 == 0) {
      hidden = &d;
      break;
    }
  }
  ASSERT_NE(hidden, nullptr);
  const auto outcome =
      resolver.resolve(dns::Name::of(hidden->fqdn), dns::RRType::A);
  EXPECT_EQ(outcome.rcode, dns::RCode::NOERROR);
  EXPECT_TRUE(outcome.errors.empty());

  // Exhaustive probing finds it.
  resolver::ResolverOptions options;
  options.exhaustive_ns_probing = true;
  auto thorough = world.make_resolver(resolver::profile_cloudflare(), options);
  const auto probed =
      thorough.resolve(dns::Name::of(hidden->fqdn), dns::RRType::A);
  EXPECT_EQ(probed.rcode, dns::RCode::NOERROR);
  ASSERT_EQ(probed.errors.size(), 1u);
  EXPECT_EQ(probed.errors.front().code, edns::EdeCode::NetworkError);
}

TEST(ScanAggregate, SmallScanLandsNearThePaperRate) {
  PopulationConfig config;
  config.total_domains = 6000;
  config.seed = 3;
  const auto population = generate_population(config);
  auto network =
      std::make_shared<sim::Network>(std::make_shared<sim::Clock>());
  ScanWorld world(network, population);
  auto resolver = world.make_resolver(resolver::profile_cloudflare());
  world.prewarm(resolver);

  const auto result = Scanner{}.run(resolver, population);
  EXPECT_EQ(result.total_domains, population.domains.size());
  const double rate = static_cast<double>(result.domains_with_ede) /
                      static_cast<double>(result.total_domains);
  // Paper: 5.8%. Floored rare categories push small scans slightly higher.
  EXPECT_GT(rate, 0.04);
  EXPECT_LT(rate, 0.09);
  // Ordering of the top codes matches the paper: 22 >= 23 >= 10.
  ASSERT_TRUE(result.per_code.count(22));
  ASSERT_TRUE(result.per_code.count(23));
  ASSERT_TRUE(result.per_code.count(10));
  EXPECT_GE(result.per_code.at(22).domains, result.per_code.at(23).domains);
  EXPECT_GE(result.per_code.at(23).domains, result.per_code.at(10).domains);
}

TEST(ScanReport, RenderersProduceTheExpectedSections) {
  PopulationConfig config;
  config.total_domains = 3000;
  const auto population = generate_population(config);
  auto network =
      std::make_shared<sim::Network>(std::make_shared<sim::Clock>());
  ScanWorld world(network, population);
  auto resolver = world.make_resolver(resolver::profile_cloudflare());
  world.prewarm(resolver);
  const auto result = Scanner{}.run(resolver, population);

  const auto s42 = render_section42(result, population);
  EXPECT_NE(s42.find("No Reachable Authority"), std::string::npos);
  EXPECT_NE(s42.find("paper"), std::string::npos);
  const auto f1 = render_figure1(result, population);
  EXPECT_NE(f1.find("gTLDs with zero misconfigured domains"),
            std::string::npos);
  const auto f2 = render_figure2(result);
  EXPECT_NE(f2.find("Tranco"), std::string::npos);
}

TEST(InfraSummary, EmissionIsInsertionOrderIndependent) {
  // The infra cache is an unordered map; the renderer must not leak its
  // bucket order. Feed the same observations in two different orders and
  // the reports must be byte-identical, with rows in address order.
  const std::vector<std::string> addrs = {"198.51.100.9", "192.0.2.1",
                                          "203.0.113.77", "192.0.2.200"};
  resolver::InfraCache forward;
  for (const auto& a : addrs)
    forward.report_success(sim::NodeAddress::of(a), 25);
  resolver::InfraCache reverse;
  for (auto it = addrs.rbegin(); it != addrs.rend(); ++it)
    reverse.report_success(sim::NodeAddress::of(*it), 25);

  const auto report = render_infra_summary(forward);
  EXPECT_EQ(report, render_infra_summary(reverse));
  const auto first = report.find("192.0.2.1");
  const auto last = report.find("203.0.113.77");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(last, std::string::npos);
  EXPECT_LT(first, last);
}

TEST(MakeCdf, MonotoneAndNormalized) {
  const auto cdf = make_cdf({3.0, 1.0, 2.0, 2.0, 5.0});
  ASSERT_FALSE(cdf.empty());
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GT(cdf[i].first, cdf[i - 1].first);
    EXPECT_GT(cdf[i].second, cdf[i - 1].second);
  }
  // Duplicates collapse: x=2.0 appears once with cumulative weight.
  int twos = 0;
  for (const auto& [x, y] : cdf) twos += (x == 2.0) ? 1 : 0;
  EXPECT_EQ(twos, 1);
}

}  // namespace
