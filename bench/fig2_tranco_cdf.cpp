// E6 — regenerates the paper's Figure 2: the distribution of
// EDE-triggering domains across the Tranco top-1M ranking. Expected
// shape: an (approximately) straight diagonal — misconfigured domains are
// evenly spread across popularity ranks — with the paper's 22.1 k overlap
// and 12.2 k-NOERROR split reproduced at scale.
//
// Usage: fig2_tranco_cdf [total_domains] [seed] [--shards N]
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "scan/export.hpp"
#include "scan/report.hpp"

int main(int argc, char** argv) {
  ede::scan::PopulationConfig config;
  config.total_domains = 150'000;
  std::size_t shards = 0;  // 0 = hardware_concurrency
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = std::strtoull(argv[++i], nullptr, 10);
    } else if (positional == 0) {
      config.total_domains = std::strtoull(argv[i], nullptr, 10);
      ++positional;
    } else if (positional == 1) {
      config.seed = std::strtoull(argv[i], nullptr, 10);
      ++positional;
    }
  }

  const auto population = ede::scan::generate_population(config);
  ede::scan::ParallelScanOptions options;
  options.shards = shards;

  std::printf("scanning %zu domains...\n\n", population.domains.size());
  const auto scan = ede::scan::run_parallel_scan(
      population, ede::resolver::profile_cloudflare(), options);
  std::fputs(ede::scan::render_figure2(scan.merged).c_str(), stdout);
  std::printf("\n%s", ede::scan::render_shard_summary(scan).c_str());
  if (ede::scan::write_file("fig2_tranco_cdf.csv",
                            ede::scan::figure2_csv(scan.merged))) {
    std::printf("\nseries written to fig2_tranco_cdf.csv\n");
  }
  return 0;
}
