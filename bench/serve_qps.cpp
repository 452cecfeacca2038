// Frontline serving benchmark (DESIGN.md §5h): drive a Zipf-distributed
// stub-client population through the FrontEnd + async resolver stack and
// measure qps (wall), p50/p95/p99 answer latency (virtual), client-visible
// cache-hit rate, upstream-query counts and per-client EDE delivery.
//
// One invocation runs up to three serving passes over the same trace —
// the full engine plus two controls (--no-prefetch / --no-aggressive are
// forced off for their control run) — so each optimization's metric
// movement is computed inside one report:
//   * prefetch       -> client-visible hit-rate lift vs. no_prefetch
//   * RFC 8198       -> upstream-query reduction vs. no_aggressive
// plus the serve-stale-under-authority-outage scenario: a warmed cache,
// expired TTLs, every healthy authority dark — clients keep getting
// answers with EDE 3 (Stale Answer) / EDE 19 (Stale NXDOMAIN Answer)
// while p99 stays under a machine-checked bound, and recovery is clean
// once the outage window closes. Invariant violations land in the report
// AND the exit code.
//
// Usage: serve_qps [--domains N] [--clients N] [--queries N]
//                  [--duration-ms N] [--seed N] [--inflight N]
//                  [--wave-ms N] [--nx-fraction F] [--no-prefetch]
//                  [--no-aggressive] [--no-controls] [--no-outage]
//                  [--report FILE] [--json FILE]
//
// --report writes the deterministic serving report (byte-stable for a
// fixed seed: tools/verify.sh cmp's two runs). --json writes the
// wall-clock measurement document tools/perf_smoke.py --serve gates
// against bench/perf_baseline_serve.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "dnscore/counters.hpp"
#include "resolver/profile.hpp"
#include "resolver/resolver.hpp"
#include "scan/export.hpp"
#include "scan/world.hpp"
#include "serve/frontend.hpp"
#include "serve/report.hpp"
#include "serve/stubs.hpp"

namespace {

using namespace ede;

struct BenchConfig {
  std::size_t domains = 4'000;
  serve::StubOptions stub;
  std::size_t inflight = 256;
  sim::SimTimeMs wave_ms = 1'000;
  bool prefetch = true;
  bool aggressive = true;
  bool controls = true;
  bool outage = true;
  std::string report_path;
  std::string json_path;
};

/// Child-zone TTL for the serving world: short enough that records
/// expire (and the prefetcher has work) several times within the trace.
constexpr std::uint32_t kServeTtl = 300;

/// Outage scenario p99 bound: the retry ladder must give up and serve
/// stale well under this (profile_reference worst case is seconds).
constexpr sim::SimTimeMs kOutageP99BoundMs = 15'000;

struct ServingStack {
  std::shared_ptr<sim::Clock> clock;
  std::shared_ptr<sim::Network> network;
  std::unique_ptr<scan::ScanWorld> world;
  std::unique_ptr<resolver::RecursiveResolver> resolver;
  std::unique_ptr<serve::FrontEnd> frontend;
};

ServingStack make_stack(const scan::Population& population,
                        const BenchConfig& config, bool prefetch,
                        bool aggressive) {
  ServingStack stack;
  stack.clock = std::make_shared<sim::Clock>();
  stack.network =
      std::make_shared<sim::Network>(stack.clock, config.stub.seed);
  sim::LatencyModel latency;
  latency.enabled = true;
  latency.seed = config.stub.seed;
  stack.network->set_latency(latency);

  scan::WorldOptions world_options;
  world_options.child_zone_ttl = kServeTtl;
  world_options.stream_listeners = true;
  stack.world = std::make_unique<scan::ScanWorld>(stack.network, population,
                                                  world_options);

  resolver::ResolverOptions options;
  options.serve_stale = true;
  options.aggressive_nsec_caching = aggressive;
  stack.resolver.reset(new resolver::RecursiveResolver(
      stack.world->make_resolver(resolver::profile_reference(), options)));

  serve::FrontEndOptions frontend_options;
  frontend_options.inflight = config.inflight;
  frontend_options.wave_ms = config.wave_ms;
  frontend_options.prefetch = prefetch;
  stack.frontend = std::make_unique<serve::FrontEnd>(
      *stack.resolver, *stack.network, frontend_options);
  return stack;
}

struct PassResult {
  serve::RunSummary summary;
  double wall_seconds = 0.0;
};

PassResult run_pass(const std::string& label,
                    const scan::Population& population,
                    const serve::StubTrace& trace, const BenchConfig& config,
                    bool prefetch, bool aggressive) {
  auto stack = make_stack(population, config, prefetch, aggressive);
  const auto cache_before = stack.resolver->cache().stats();
  const auto start = std::chrono::steady_clock::now();
  const auto answers = stack.frontend->serve(trace);
  const auto wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  PassResult result;
  result.summary = serve::summarize_run(
      label, answers, stack.frontend->stats(),
      obs::delta(stack.resolver->cache().stats(), cache_before));
  result.wall_seconds = wall;
  return result;
}

/// Hand-built trace: one query per (name, client, arrival) triple.
serve::StubTrace make_trace(
    const std::vector<std::tuple<dns::Name, std::uint32_t, sim::SimTimeMs>>&
        entries) {
  serve::StubTrace trace;
  std::uint32_t id = 0;
  for (const auto& [qname, client, arrival] : entries) {
    serve::StubQuery query;
    query.qname = qname;
    query.client = client;
    query.arrival_ms = arrival;
    query.id = id++;
    trace.queries.push_back(std::move(query));
  }
  trace.id_count = id;
  std::sort(trace.queries.begin(), trace.queries.end(),
            [](const serve::StubQuery& a, const serve::StubQuery& b) {
              if (a.arrival_ms != b.arrival_ms)
                return a.arrival_ms < b.arrival_ms;
              return a.id < b.id;
            });
  return trace;
}

bool has_code(const serve::ClientAnswer& answer, std::uint16_t code) {
  return std::find(answer.ede.begin(), answer.ede.end(), code) !=
         answer.ede.end();
}

serve::OutageSummary run_outage(const scan::Population& population,
                                const BenchConfig& config) {
  serve::OutageSummary summary;
  summary.p99_bound_ms = kOutageP99BoundMs;
  const auto fail = [&summary](const std::string& what) {
    if (summary.violations.size() < 8) summary.violations.push_back(what);
  };

  auto stack = make_stack(population, config, /*prefetch=*/false,
                          /*aggressive=*/true);
  // Targets: the first healthy domains (their provider pool answers) and
  // a typo label under each (validated NXDOMAIN material for EDE 19).
  std::vector<dns::Name> healthy, typos;
  for (const auto& domain : population.domains) {
    if (domain.category != scan::Category::Healthy) continue;
    healthy.push_back(dns::Name::of(domain.fqdn));
    typos.push_back(dns::Name::of(domain.fqdn).prefixed("nx1").take());
    if (healthy.size() >= 24) break;
  }
  if (healthy.size() < 8) {
    fail("population too small for the outage scenario");
    return summary;
  }

  // Warm phase: every target resolved once at trace start.
  std::vector<std::tuple<dns::Name, std::uint32_t, sim::SimTimeMs>> warm;
  std::uint32_t client = 0;
  for (const auto& name : healthy) {
    warm.emplace_back(name, client, sim::SimTimeMs{client} * 40);
    ++client;
  }
  for (const auto& name : typos) {
    warm.emplace_back(name, client, sim::SimTimeMs{client} * 40);
    ++client;
  }
  const auto warm_trace = make_trace(warm);
  const auto warm_answers = stack.frontend->serve(warm_trace);
  for (std::size_t i = 0; i < warm_answers.size(); ++i) {
    const auto& answer = warm_answers[i];
    if (answer.rcode != dns::RCode::NOERROR &&
        answer.rcode != dns::RCode::NXDOMAIN)
      fail("warm phase: rcode " +
           std::to_string(static_cast<int>(answer.rcode)) + " for " +
           warm_trace.queries[i].qname.to_string());
  }

  // Let every warmed record and denial proof expire (TTL 300, stale
  // window days), then take every healthy authority dark.
  stack.clock->advance(kServeTtl + 100);
  const sim::SimTime outage_start = stack.clock->now();
  const sim::SimTime outage_end = outage_start + 900;
  for (std::uint32_t slot = 0; slot < 256; ++slot) {
    stack.network->fail_between(
        stack.world->provider_address(scan::ServingPlan::Pool::Healthy, slot),
        outage_start, outage_end);
  }

  // Outage phase: three rounds over every target, distinct clients.
  std::vector<std::tuple<dns::Name, std::uint32_t, sim::SimTimeMs>> during;
  for (std::uint32_t round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < healthy.size(); ++i) {
      during.emplace_back(healthy[i], client++,
                          sim::SimTimeMs{round} * 60'000 + i * 500);
      during.emplace_back(typos[i], client++,
                          sim::SimTimeMs{round} * 60'000 + i * 500 + 250);
    }
  }
  const auto trace = make_trace(during);
  const auto answers = stack.frontend->serve(trace);
  summary.served = answers.size();
  std::set<std::uint32_t> ede3_clients, ede19_clients;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const auto& answer = answers[i];
    const bool is_typo = trace.queries[i].qname.label(0).substr(0, 2) == "nx";
    if (is_typo) {
      if (answer.rcode != dns::RCode::NXDOMAIN)
        fail("outage: typo target lost its NXDOMAIN");
      if (!has_code(answer, 19))
        fail("outage: stale NXDOMAIN served without EDE 19");
      ++summary.stale_nxdomains;
      ede19_clients.insert(answer.client);
    } else {
      if (answer.rcode != dns::RCode::NOERROR)
        fail("outage: warmed answer lost under outage");
      if (!has_code(answer, 3))
        fail("outage: stale answer served without EDE 3");
      ++summary.stale_answers;
      ede3_clients.insert(answer.client);
    }
  }
  summary.ede3_clients = ede3_clients.size();
  summary.ede19_clients = ede19_clients.size();
  summary.latency = serve::summarize_latency(answers);
  if (summary.latency.p99 > kOutageP99BoundMs)
    fail("outage: p99 exceeded the bound");

  // Recovery: outage window closes, fresh resolutions, no stale codes.
  stack.clock->set(outage_end + 100);
  std::vector<std::tuple<dns::Name, std::uint32_t, sim::SimTimeMs>> after;
  for (std::size_t i = 0; i < healthy.size(); ++i) {
    after.emplace_back(healthy[i], client++, sim::SimTimeMs{i} * 500);
    after.emplace_back(typos[i], client++, sim::SimTimeMs{i} * 500 + 250);
  }
  const auto recovery_trace = make_trace(after);
  const auto recovered = stack.frontend->serve(recovery_trace);
  for (std::size_t i = 0; i < recovered.size(); ++i) {
    const auto& answer = recovered[i];
    if (has_code(answer, 3) || has_code(answer, 19))
      fail("recovery: stale EDE survived the outage window");
    const bool is_typo =
        recovery_trace.queries[i].qname.label(0).substr(0, 2) == "nx";
    if (answer.rcode !=
        (is_typo ? dns::RCode::NXDOMAIN : dns::RCode::NOERROR))
      fail("recovery: wrong rcode after the outage cleared");
  }
  return summary;
}

std::string measurement_json(const BenchConfig& config,
                             std::size_t trace_queries, double wall_seconds,
                             double qps) {
  std::ostringstream out;
  out << "{\n  \"benchmarks\": [\n    {\n"
      << "      \"name\": \"serve_qps/" << config.domains << "/clients:"
      << config.stub.clients << "/inflight:" << config.inflight << "\",\n"
      << "      \"domains\": " << config.domains << ",\n"
      << "      \"clients\": " << config.stub.clients << ",\n"
      << "      \"trace_queries\": " << trace_queries << ",\n"
      << "      \"wall_seconds\": " << wall_seconds << ",\n"
      << "      \"queries_per_second\": " << static_cast<std::uint64_t>(qps)
      << "\n    }\n  ]\n}\n";
  return out.str();
}

void parse_args(int argc, char** argv, BenchConfig& config) {
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() { return std::strtoull(argv[++i], nullptr, 10); };
    if (std::strcmp(argv[i], "--domains") == 0 && i + 1 < argc) {
      config.domains = next();
    } else if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc) {
      config.stub.clients = static_cast<std::uint32_t>(next());
    } else if (std::strcmp(argv[i], "--queries") == 0 && i + 1 < argc) {
      config.stub.queries = static_cast<std::uint32_t>(next());
    } else if (std::strcmp(argv[i], "--duration-ms") == 0 && i + 1 < argc) {
      config.stub.duration_ms = next();
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      config.stub.seed = next();
    } else if (std::strcmp(argv[i], "--inflight") == 0 && i + 1 < argc) {
      config.inflight = std::max<std::size_t>(1, next());
    } else if (std::strcmp(argv[i], "--wave-ms") == 0 && i + 1 < argc) {
      config.wave_ms = std::max<sim::SimTimeMs>(1, next());
    } else if (std::strcmp(argv[i], "--nx-fraction") == 0 && i + 1 < argc) {
      config.stub.nxdomain_fraction = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--no-prefetch") == 0) {
      config.prefetch = false;
    } else if (std::strcmp(argv[i], "--no-aggressive") == 0) {
      config.aggressive = false;
    } else if (std::strcmp(argv[i], "--no-controls") == 0) {
      config.controls = false;
    } else if (std::strcmp(argv[i], "--no-outage") == 0) {
      config.outage = false;
    } else if (std::strcmp(argv[i], "--report") == 0 && i + 1 < argc) {
      config.report_path = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      config.json_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      std::exit(2);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config;
  config.stub.clients = 1'000'000;
  config.stub.queries = 40'000;
  config.stub.duration_ms = 1'200'000;  // 20 virtual minutes, 4 TTL cycles
  parse_args(argc, argv, config);

  scan::PopulationConfig population_config;
  population_config.total_domains = config.domains;
  population_config.seed = config.stub.seed;
  std::printf("generating %zu-domain world, %u stub clients, %u queries "
              "(seed %llu)...\n",
              config.domains, config.stub.clients, config.stub.queries,
              static_cast<unsigned long long>(config.stub.seed));
  const auto population = scan::generate_population(population_config);
  const auto trace = serve::generate_stub_trace(population, config.stub);

  serve::ServeReportDoc doc;
  doc.stub = config.stub;
  doc.inflight = config.inflight;
  doc.wave_ms = config.wave_ms;

  const std::string main_label =
      (config.prefetch && config.aggressive) ? "full"
      : !config.prefetch                     ? "no_prefetch"
                                             : "no_aggressive";
  std::printf("serving %zu trace queries [%s]...\n", trace.queries.size(),
              main_label.c_str());
  const auto main_pass = run_pass(main_label, population, trace, config,
                                  config.prefetch, config.aggressive);
  doc.runs.push_back(main_pass.summary);

  if (config.controls && config.prefetch && config.aggressive) {
    std::printf("control run [no_prefetch]...\n");
    doc.runs.push_back(run_pass("no_prefetch", population, trace, config,
                                false, true)
                           .summary);
    std::printf("control run [no_aggressive]...\n");
    doc.runs.push_back(run_pass("no_aggressive", population, trace, config,
                                true, false)
                           .summary);
  }

  if (config.outage) {
    std::printf("serve-stale outage scenario...\n");
    doc.outage = run_outage(population, config);
  }

  std::fputs(serve::render_serve_text(doc).c_str(), stdout);

  const double qps = main_pass.wall_seconds > 0
                         ? static_cast<double>(trace.queries.size()) /
                               main_pass.wall_seconds
                         : 0.0;
  std::printf("throughput            : %.0f queries/s end-to-end (%.2f s "
              "wall for the %s pass)\n",
              qps, main_pass.wall_seconds, main_label.c_str());

  if (!config.report_path.empty()) {
    if (!scan::write_file(config.report_path, serve::render_serve_json(doc)))
      return 1;
    std::printf("report written to %s\n", config.report_path.c_str());
  }
  if (!config.json_path.empty()) {
    if (!scan::write_file(config.json_path,
                          measurement_json(config, trace.queries.size(),
                                           main_pass.wall_seconds, qps)))
      return 1;
    std::printf("measurement written to %s\n", config.json_path.c_str());
  }

  if (doc.outage && !doc.outage->violations.empty()) {
    for (const auto& violation : doc.outage->violations)
      std::fprintf(stderr, "OUTAGE INVARIANT VIOLATED: %s\n",
                   violation.c_str());
    return 1;
  }
  return 0;
}
