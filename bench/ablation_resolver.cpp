// E8 — ablations for the design choices DESIGN.md calls out:
//
//  A1. Finding specificity: collapse every DNSSEC finding to the generic
//      DNSSEC Bogus (6) and measure how much diagnostic information the
//      testbed loses (distinct diagnoses before/after).
//  B1. Caching: cache on vs off — upstream queries for a repeated workload.
//  B2. Stale answers: availability of answers when authorities die.
//  C1. Resolution early-exit vs exhaustive NS probing: how many lame
//      delegations a scan detects (the paper notes its count is a lower
//      bound because resolution stops at the first responsive server).
#include <cstdio>
#include <set>

#include "edns/ede.hpp"
#include "scan/scanner.hpp"
#include "scan/world.hpp"
#include "testbed/expected.hpp"
#include "testbed/testbed.hpp"

namespace {

using namespace ede;

void ablation_specificity() {
  std::printf("== A1: finding->code specificity ==\n");
  auto network = std::make_shared<sim::Network>(
      std::make_shared<sim::Clock>());
  testbed::Testbed bed(network);

  // The full Cloudflare mapping vs a collapsed variant that reports every
  // validation defect as DNSSEC Bogus (6).
  auto specific = resolver::profile_cloudflare();
  auto collapsed = specific;
  collapsed.name = "Cloudflare (collapsed to 6)";
  for (auto& [defect, code] : collapsed.mapping) {
    const auto value = static_cast<std::uint16_t>(code);
    const bool dnssec_code = value <= 12 || value == 25 || value == 27;
    if (dnssec_code) code = edns::EdeCode::DnssecBogus;
  }

  for (auto* profile : {&specific, &collapsed}) {
    auto resolver = bed.make_resolver(*profile);
    std::set<std::vector<std::uint16_t>> distinct;
    int with_ede = 0;
    for (const auto& spec : bed.cases()) {
      resolver.flush();
      const auto outcome =
          resolver.resolve(bed.query_name(spec), dns::RRType::A);
      std::vector<std::uint16_t> codes;
      for (const auto& e : outcome.errors)
        codes.push_back(static_cast<std::uint16_t>(e.code));
      std::sort(codes.begin(), codes.end());
      if (!codes.empty()) {
        ++with_ede;
        distinct.insert(codes);
      }
    }
    std::printf("  %-28s cases-with-EDE=%d distinct-diagnoses=%zu\n",
                profile->name.c_str(), with_ede, distinct.size());
  }
  std::printf("  -> the mapping table, not the validator, is what separates "
              "a precise vendor from a generic one\n\n");
}

void ablation_cache() {
  std::printf("== B1: cache on/off (100 repeated resolutions) ==\n");
  for (const bool enabled : {true, false}) {
    auto network = std::make_shared<sim::Network>(
        std::make_shared<sim::Clock>());
    testbed::Testbed bed(network);
    resolver::ResolverOptions options;
    options.cache.enabled = enabled;
    auto resolver = bed.make_resolver(resolver::profile_cloudflare(), options);
    const auto qname = dns::Name::of("valid.extended-dns-errors.com");
    for (int i = 0; i < 100; ++i) (void)resolver.resolve(qname, dns::RRType::A);
    std::printf("  cache %-3s : %llu upstream packets\n",
                enabled ? "on" : "off",
                static_cast<unsigned long long>(
                    network->stats().packets_sent));
  }
  std::printf("\n");
}

void ablation_stale() {
  std::printf("== B2: serve-stale on/off when every authority dies ==\n");
  for (const bool serve_stale : {true, false}) {
    auto clock = std::make_shared<sim::Clock>();
    auto network = std::make_shared<sim::Network>(clock);
    testbed::Testbed bed(network);
    resolver::ResolverOptions options;
    options.serve_stale = serve_stale;
    auto resolver = bed.make_resolver(resolver::profile_cloudflare(), options);
    const auto qname = dns::Name::of("valid.extended-dns-errors.com");
    (void)resolver.resolve(qname, dns::RRType::A);
    network->detach(sim::NodeAddress::of("93.184.218.1"));
    clock->advance(3 * 3600);
    const auto outcome = resolver.resolve(qname, dns::RRType::A);
    std::printf("  serve-stale %-3s : rcode=%s codes=",
                serve_stale ? "on" : "off",
                dns::to_string(outcome.rcode).c_str());
    for (const auto& e : outcome.errors)
      std::printf("%u ", static_cast<unsigned>(e.code));
    std::printf("\n");
  }
  std::printf("  -> stale serving converts outages into NOERROR + EDE 3/22, "
              "the paper's §4.2.11 pattern\n\n");
}

void ablation_probing() {
  std::printf("== C1: first-success vs exhaustive nameserver probing ==\n");
  scan::PopulationConfig config;
  config.total_domains = 20'000;
  const auto population = scan::generate_population(config);

  for (const bool exhaustive : {false, true}) {
    auto network = std::make_shared<sim::Network>(
        std::make_shared<sim::Clock>());
    scan::ScanWorld world(network, population);
    resolver::ResolverOptions options;
    options.exhaustive_ns_probing = exhaustive;
    auto resolver =
        world.make_resolver(resolver::profile_cloudflare(), options);
    world.prewarm(resolver);
    const auto result = scan::Scanner{}.run(resolver, population);
    const auto lame23 = result.per_code.count(23)
                            ? result.per_code.at(23).domains
                            : 0;
    std::printf("  %-14s : domains-with-EDE=%zu EDE23=%zu upstream=%llu\n",
                exhaustive ? "exhaustive" : "first-success",
                result.domains_with_ede, lame23,
                static_cast<unsigned long long>(result.upstream_queries));
  }
  std::printf("  -> exhaustive probing surfaces partially-lame domains the "
              "paper's methodology (and ours, by default) undercounts\n");
}

}  // namespace

int main() {
  ablation_specificity();
  ablation_cache();
  ablation_stale();
  ablation_probing();
  return 0;
}
