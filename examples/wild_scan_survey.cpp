// A miniature of the paper's §4 Internet-wide scan: generate a synthetic
// registered-domain population, scan it through the Cloudflare-profile
// resolver, and print the misconfiguration survey — in a few seconds
// instead of the paper's 12-hour, 303 M-domain campaign.
//
//   $ ./wild_scan_survey [domains]
#include <cstdio>
#include <cstdlib>

#include "scan/report.hpp"
#include "scan/world.hpp"

int main(int argc, char** argv) {
  ede::scan::PopulationConfig config;
  config.total_domains = 30'000;
  if (argc > 1) config.total_domains = std::strtoull(argv[1], nullptr, 10);

  std::printf("generating %zu synthetic registered domains...\n",
              config.total_domains);
  const auto population = ede::scan::generate_population(config);

  auto network = std::make_shared<ede::sim::Network>(
      std::make_shared<ede::sim::Clock>());
  ede::scan::ScanWorld world(network, population);
  auto resolver = world.make_resolver(ede::resolver::profile_cloudflare());
  world.prewarm(resolver);

  std::printf("scanning through %s...\n\n", resolver.profile().name.c_str());
  const auto result = ede::scan::Scanner{}.run(resolver, population);

  std::fputs(ede::scan::render_section42(result, population).c_str(), stdout);

  std::printf("\nhighlights:\n");
  std::printf("  - lame delegations dominate: %zu domains triggered EDE 22 "
              "and/or 23\n",
              result.lame_union);
  std::printf("  - %zu domains answered NOERROR *with* an EDE attached — "
              "diagnostics, not just failures\n",
              result.noerror_with_ede);
  std::printf("  - scan rate: %.0f domains/s over the simulated network\n",
              result.queries_per_second());
  return 0;
}
