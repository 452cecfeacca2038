// E4 — regenerates the paper's §4.2: scan a synthetic registered-domain
// population through the Cloudflare-profile resolver and report the
// per-INFO-CODE domain counts (with scaled-up equivalents next to the
// paper's published numbers).
//
// Usage: sec42_wild_scan [total_domains] [seed] [--shards N] [--json FILE]
//                        [--inflight N]
// Default 303'000 domains = 1/1000 of the paper's 303 M, sharded across
// one worker per hardware thread (each with its own simulated network and
// resolver stack; see src/scan/parallel.hpp). --json writes a
// perf_baseline_scan.json-shaped measurement document that
// tools/perf_smoke.py --scan gates against the committed baseline.
//
// --inflight N turns the per-link latency model ON and multiplexes up to
// N resolutions per worker over the async engine (resolve_many): the
// virtual-time scan rate (domains per *simulated* second) is then the
// latency-bound throughput figure, and N=1 is the serial baseline it is
// compared against. Aggregate counts are invariant under N at a fixed
// seed (asserted by tests/test_async_core.cpp).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

#include "scan/export.hpp"
#include "scan/report.hpp"

namespace {

/// Shared bench argv shape: positional [total_domains] [seed] plus
/// optional --shards N / --json FILE / --inflight N anywhere.
void parse_scan_args(int argc, char** argv, ede::scan::PopulationConfig& config,
                     std::size_t& shards, std::string& json_path,
                     std::size_t& inflight) {
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--inflight") == 0 && i + 1 < argc) {
      inflight = std::strtoull(argv[++i], nullptr, 10);
    } else if (positional == 0) {
      config.total_domains = std::strtoull(argv[i], nullptr, 10);
      ++positional;
    } else if (positional == 1) {
      config.seed = std::strtoull(argv[i], nullptr, 10);
      ++positional;
    }
  }
}

std::string measurement_json(const ede::scan::ParallelScanResult& scan,
                             std::size_t total_domains, std::size_t shards,
                             std::size_t inflight) {
  const auto& h = scan.merged.hardening;
  std::ostringstream out;
  out << "{\n  \"benchmarks\": [\n    {\n"
      << "      \"name\": \"sec42_wild_scan/" << total_domains
      << "/shards:" << shards;
  if (inflight > 0) out << "/inflight:" << inflight;
  out << "\",\n"
      << "      \"total_domains\": " << total_domains << ",\n"
      << "      \"shards\": " << shards << ",\n";
  if (inflight > 0) {
    out << "      \"inflight\": " << inflight << ",\n"
        << "      \"max_in_flight\": " << scan.merged.max_in_flight << ",\n"
        << "      \"sim_seconds\": " << scan.merged.sim_seconds << ",\n"
        << "      \"domains_per_sim_second\": "
        << static_cast<std::uint64_t>(
               scan.merged.sim_seconds > 0
                   ? static_cast<double>(total_domains) /
                         scan.merged.sim_seconds
                   : 0.0)
        << ",\n";
  }
  out << "      \"wall_seconds_end_to_end\": " << scan.wall_seconds << ",\n"
      << "      \"domains_per_second\": "
      << static_cast<std::uint64_t>(scan.merged_qps()) << ",\n"
      << "      \"hardening\": {\"rejected_qid_mismatch\": "
      << h.rejected_qid_mismatch
      << ", \"rejected_oversize\": " << h.rejected_oversize
      << ", \"scrubbed_records\": " << h.scrubbed_records << "}\n"
      << "    }\n  ]\n}\n";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  ede::scan::PopulationConfig config;
  std::size_t shards = 0;  // 0 = hardware_concurrency
  std::string json_path;
  std::size_t inflight = 0;  // 0 = latency model off, serial batch
  parse_scan_args(argc, argv, config, shards, json_path, inflight);

  std::printf("generating population of %zu domains (seed %llu)...\n",
              config.total_domains,
              static_cast<unsigned long long>(config.seed));
  const auto population = ede::scan::generate_population(config);

  ede::scan::ParallelScanOptions options;
  options.shards = shards;
  if (inflight > 0) {
    // Latency-bound mode: RTTs and retry timers cost virtual time, and up
    // to `inflight` resolutions per worker overlap those waits.
    ede::sim::LatencyModel latency;
    latency.enabled = true;
    options.latency = latency;
    options.scanner.inflight = inflight;
  }
  const auto profile = ede::resolver::profile_cloudflare();
  std::printf("scanning %zu domains through %s across %zu shard(s)...\n",
              population.domains.size(), profile.name.c_str(),
              ede::scan::plan_shards(population.domains.size(), shards,
                                     options.base_seed)
                  .size());
  const auto scan = ede::scan::run_parallel_scan(population, profile, options);
  const auto& result = scan.merged;

  std::fputs(ede::scan::render_section42(result, population).c_str(), stdout);
  if (ede::scan::write_file("sec42_codes.csv",
                            ede::scan::section42_csv(result, population))) {
    std::printf("\nper-code counts written to sec42_codes.csv\n");
  }
  std::printf("\n%s", ede::scan::render_shard_summary(scan).c_str());
  std::printf("\nscan rate            : %.0f domains/s end-to-end (%llu "
              "upstream queries, %.1f s)\n",
              scan.merged_qps(),
              static_cast<unsigned long long>(result.upstream_queries),
              scan.wall_seconds);
  std::printf("dead nameservers      : %zu distinct addresses (paper: 293k "
              "unique NS; scaled ~293)\n",
              ede::scan::dead_provider_count(population));
  std::printf("infra cache           : %llu held down, %llu probes avoided "
              "(retry: %u ms initial, x%.1f backoff, %d/server)\n",
              static_cast<unsigned long long>(
                  result.transport.holddowns_started),
              static_cast<unsigned long long>(result.transport.holddown_skips),
              profile.retry.initial_timeout_ms, profile.retry.backoff_factor,
              profile.retry.attempts_per_server);
  if (inflight > 0) {
    const double sim_rate =
        result.sim_seconds > 0
            ? static_cast<double>(result.total_domains) / result.sim_seconds
            : 0.0;
    std::printf("async engine          : inflight %zu, peak %zu in flight, "
                "%.1f sim-s, %.0f domains/sim-s\n",
                inflight, result.max_in_flight, result.sim_seconds, sim_rate);
  }
  if (!json_path.empty()) {
    const auto effective_shards =
        ede::scan::plan_shards(population.domains.size(), shards,
                               options.base_seed)
            .size();
    if (ede::scan::write_file(
            json_path, measurement_json(scan, population.domains.size(),
                                        effective_shards, inflight))) {
      std::printf("measurement written to %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
  }
  return 0;
}
