// edebench, the repository benchmark's runner; perfbench/README.md
// describes the workloads, the metrics and how run.py checks the outputs.
//
// One run executes one named workload at one seed through the program's
// public calls and times them from outside:
//   scan          set-up: generate_population, ScanWorld, make_resolver,
//                 ScanWorld::prewarm; phase: Scanner::run (one shard)
//   scan_sharded  set-up: generate_population; phase: run_parallel_scan
//                 over two shards (each shard builds its world inside it)
//   serve         set-up: generate_population, generate_stub_trace,
//                 ScanWorld, make_resolver, FrontEnd; phase:
//                 FrontEnd::serve over the whole trace
// A repetition regenerates its inputs from the seed and builds a fresh
// stack, so every repetition does identical work; the run repeats until
// --seconds have passed (at least three times) and reports the fastest
// repetition's times (see fastest()).
//
// --trace 1 is a separate traced run. It splits the phase into layers
// without touching the program: a few traced passes run with every UDP
// exchange captured (Network::record_sends says where and when,
// Network::set_tap gives the bytes), the exchanges are replayed in order
// against a freshly built world so that only the simulated Internet runs,
// the captured replies are re-parsed and re-serialized through a
// MessageArena, and world synthesis and cache introspection are timed
// directly. Spans of these calls stay in memory and are written at exit.
//
// The last stdout line is one JSON document; run.py checks the outputs in
// it against the references and prints the benchmark's result.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "dnscore/arena.hpp"
#include "resolver/profile.hpp"
#include "scan/export.hpp"
#include "scan/parallel.hpp"
#include "scan/report.hpp"
#include "scan/world.hpp"
#include "serve/frontend.hpp"
#include "serve/report.hpp"
#include "serve/stubs.hpp"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define EDEBENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define EDEBENCH_SANITIZED 1
#endif

namespace {

using namespace ede;
using Steady = std::chrono::steady_clock;
using Metrics = std::vector<std::pair<std::string, double>>;

double seconds_between(Steady::time_point start, Steady::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

/// The fastest of repeated timings of identical work. Other tenants of a
/// shared host only ever slow a repetition down, for seconds at a time,
/// so the fastest one is the steadier estimate of the program alone; a
/// median follows the neighbours. README.md gives the spreads measured
/// with both.
double fastest(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double per(double part, double whole) { return whole > 0 ? part / whole : 0.0; }

std::uint64_t absdiff(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : b - a;
}

// --- workloads and sizes -------------------------------------------------

constexpr std::size_t kMinReps = 3;
constexpr std::size_t kMaxReps = 200;
/// scan_sharded's worker count: half of a 4-core host, so the number
/// measures the program and not the scheduler.
constexpr std::size_t kShardedShards = 2;
/// serve_qps's traffic shape: child-zone TTL, stub clients, and one
/// primary query per 30 virtual ms (its 40,000 over 20 virtual minutes).
constexpr std::uint32_t kServeTtl = 300;
constexpr std::uint32_t kServeClients = 1'000'000;
constexpr sim::SimTimeMs kServeMsPerPrimary = 30;
/// Upper bound on the build_child_zone calls a traced pass times.
constexpr std::size_t kChildZoneSample = 1'500;
/// Traced passes per traced run; each layer timing keeps the fastest.
constexpr std::size_t kTracedPasses = 3;

struct Sizes {
  std::size_t scan_domains = 0;
  std::size_t serve_domains = 0;
  std::uint32_t serve_primaries = 0;  // one retransmit each comes on top
};
constexpr Sizes kFullSizes{6'000, 4'000, 30'000};
constexpr Sizes kTinySizes{400, 300, 1'500};

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string size = "full";
  Sizes sizes = kFullSizes;
  std::string outcomes_path;  // serve: per-query outcomes, a line per rep
  std::string spans_path;     // traced runs: the span log
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "edebench: %s\n"
               "usage: edebench --workload {scan,scan_sharded,serve} "
               "--seed N --seconds S --trace {0,1} [--size {full,tiny}] "
               "[--outcomes FILE] [--spans FILE]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("bad seed " + value);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0))
        usage("bad seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad trace " + value);
      args.trace = value == "1";
    } else if (flag == "--size") {
      if (value == "full") {
        args.sizes = kFullSizes;
      } else if (value == "tiny") {
        args.sizes = kTinySizes;
      } else {
        usage("bad size " + value);
      }
      args.size = value;
    } else if (flag == "--outcomes") {
      args.outcomes_path = value;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      usage("unknown argument " + flag);
    }
  }
  if (args.workload != "scan" && args.workload != "scan_sharded" &&
      args.workload != "serve")
    usage("unknown workload '" + args.workload + "'");
  if (args.workload == "serve" && args.outcomes_path.empty())
    usage("serve needs --outcomes FILE");
  if (args.trace && args.spans_path.empty())
    usage("--trace 1 needs --spans FILE");
  return args;
}

/// Timings from an unoptimized or instrumented build compare with
/// nothing, so edebench refuses to run in one.
const char* build_refusal() {
#if !defined(__OPTIMIZE__)
  return "an unoptimized build";
#elif !defined(NDEBUG)
  return "a build with assertions on";
#elif defined(EDEBENCH_SANITIZED)
  return "a sanitizer build";
#else
  return nullptr;
#endif
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- inputs ----------------------------------------------------------------

scan::Population make_population(std::size_t domains, std::uint64_t seed) {
  scan::PopulationConfig config;
  config.total_domains = domains;
  config.seed = seed;
  return scan::generate_population(config);
}

serve::StubOptions stub_options(const Sizes& sizes, std::uint64_t seed) {
  serve::StubOptions options;  // Zipf 1.0, 10 % typos, one retransmit
  options.clients = kServeClients;
  options.queries = sizes.serve_primaries;
  options.duration_ms =
      sim::SimTimeMs{sizes.serve_primaries} * kServeMsPerPrimary;
  options.seed = seed;
  return options;
}

std::size_t shards_of(const std::string& workload) {
  return workload == "scan_sharded" ? kShardedShards : 1;
}

/// FNV-1a over the generated inputs: the self-test compares it across
/// seeds and every reference pins the inputs it was made from.
class Digest {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ULL;
    }
  }
  void number(std::uint64_t value) { bytes(&value, sizeof value); }
  void text(std::string_view value) {
    number(value.size());
    bytes(value.data(), value.size());
  }
  [[nodiscard]] std::string hex() const {
    char buffer[17];
    std::snprintf(buffer, sizeof buffer, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buffer;
  }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

void digest_population(Digest& digest, const scan::Population& population) {
  for (const auto& tld : population.tlds) {
    digest.text(tld.name);
    digest.number(tld.is_cc);
  }
  for (const auto& domain : population.domains) {
    digest.text(domain.fqdn);
    digest.number(domain.tld);
    digest.number(static_cast<std::uint64_t>(domain.category));
    digest.number(domain.tranco_rank);
    digest.number(domain.provider);
  }
}

void digest_trace(Digest& digest, const serve::StubTrace& trace) {
  for (const auto& query : trace.queries) {
    digest.number(query.arrival_ms);
    digest.number(query.id);
    digest.number(query.client);
    digest.text(query.qname.to_string());
    digest.number(static_cast<std::uint64_t>(query.qtype));
    digest.number(query.typo);
    digest.number(query.retry_of);
  }
}

// --- spans -------------------------------------------------------------------

/// In-memory span log of a traced run: one record per timed call into a
/// layer (name, start, end, parent span, op), written out at exit. An op
/// is a population index, so the spans of one domain share it. A disabled
/// log records nothing.
class Spans {
 public:
  static constexpr std::int64_t kNone = -1;

  explicit Spans(bool enabled) : enabled_(enabled) {}

  std::int64_t add(std::string_view name, Steady::time_point start,
                   Steady::time_point end, std::int64_t parent = kNone,
                   std::int64_t op = kNone) {
    if (!enabled_) return kNone;
    spans_.push_back({std::string(name), start, end, parent, op});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  std::int64_t open(std::string_view name, std::int64_t parent = kNone,
                    std::int64_t op = kNone) {
    const auto now = Steady::now();
    return add(name, now, now, parent, op);
  }
  void close(std::int64_t id) {
    if (id != kNone) spans_[static_cast<std::size_t>(id)].end = Steady::now();
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << span.name
          << "\",\"start_ns\":" << nanos(span.start)
          << ",\"end_ns\":" << nanos(span.end) << ",\"parent\":" << span.parent
          << ",\"op\":" << span.op << "}\n";
    }
    out.close();
    if (!out) throw std::runtime_error("cannot write spans to " + path);
  }

 private:
  struct Span {
    std::string name;
    Steady::time_point start;
    Steady::time_point end;
    std::int64_t parent = kNone;
    std::int64_t op = kNone;
  };

  [[nodiscard]] long long nanos(Steady::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  bool enabled_;
  Steady::time_point origin_ = Steady::now();
  std::vector<Span> spans_;
};

/// Run `fn`, add its wall time to `total` and record it as a span.
template <typename Fn>
auto timed(double& total, Spans& spans, std::string_view name,
           std::int64_t parent, Fn&& fn) {
  const auto start = Steady::now();
  if constexpr (std::is_void_v<std::invoke_result_t<Fn&>>) {
    fn();
    const auto end = Steady::now();
    total += seconds_between(start, end);
    spans.add(name, start, end, parent);
  } else {
    auto result = fn();
    const auto end = Steady::now();
    total += seconds_between(start, end);
    spans.add(name, start, end, parent);
    return result;
  }
}

// --- stacks --------------------------------------------------------------

/// Wall time of each set-up step of one repetition.
struct SetupTimes {
  double population = 0;
  double stubs = 0;
  double world = 0;
  double resolver = 0;
  double prewarm = 0;
  std::size_t worlds = 0;  // worlds built: one per shard

  [[nodiscard]] double total() const {
    return population + stubs + world + resolver + prewarm;
  }
};

/// One shard's stack, built the way run_parallel_scan's workers build
/// theirs: a network seeded from the plan, the world over the whole
/// population, a Cloudflare-profile resolver holding the shard's pre-scan
/// cache entries. The latency model stays off, as in the wild scan.
struct ScanStack {
  std::shared_ptr<sim::Network> network;
  std::unique_ptr<scan::ScanWorld> world;
  std::unique_ptr<resolver::RecursiveResolver> resolver;
};

ScanStack make_scan_stack(const scan::Population& population,
                          const scan::ShardPlan& plan, SetupTimes& times,
                          Spans& spans, std::int64_t parent) {
  ScanStack stack;
  stack.network = std::make_shared<sim::Network>(
      std::make_shared<sim::Clock>(), plan.seed);
  stack.world = timed(times.world, spans, "scan.world.build", parent, [&] {
    return std::make_unique<scan::ScanWorld>(stack.network, population);
  });
  ++times.worlds;
  stack.resolver = timed(times.resolver, spans, "resolver.make", parent, [&] {
    return std::unique_ptr<resolver::RecursiveResolver>(
        new resolver::RecursiveResolver(
            stack.world->make_resolver(resolver::profile_cloudflare())));
  });
  timed(times.prewarm, spans, "scan.world.prewarm", parent, [&] {
    stack.world->prewarm(*stack.resolver, plan.begin, plan.end);
  });
  return stack;
}

/// serve_qps's network: latency model on, seeded like the trace.
std::shared_ptr<sim::Network> make_serve_network(std::uint64_t seed) {
  auto network =
      std::make_shared<sim::Network>(std::make_shared<sim::Clock>(), seed);
  sim::LatencyModel latency;
  latency.enabled = true;
  latency.seed = seed;
  network->set_latency(latency);
  return network;
}

scan::WorldOptions serve_world_options() {
  scan::WorldOptions options;
  options.child_zone_ttl = kServeTtl;
  options.stream_listeners = true;
  return options;
}

/// serve_qps's serving stack: the short-TTL world with stream listeners,
/// the reference profile with serve-stale and RFC 8198 aggressive
/// negative caching, and a FrontEnd at inflight 256, 1,000 ms waves,
/// prefetch on.
struct ServeStack {
  std::shared_ptr<sim::Network> network;
  std::unique_ptr<scan::ScanWorld> world;
  std::unique_ptr<resolver::RecursiveResolver> resolver;
  std::unique_ptr<serve::FrontEnd> frontend;
};

ServeStack make_serve_stack(const scan::Population& population,
                            std::uint64_t seed, SetupTimes& times,
                            Spans& spans, std::int64_t parent) {
  ServeStack stack;
  stack.network = make_serve_network(seed);
  stack.world = timed(times.world, spans, "scan.world.build", parent, [&] {
    return std::make_unique<scan::ScanWorld>(stack.network, population,
                                             serve_world_options());
  });
  ++times.worlds;
  timed(times.resolver, spans, "resolver.make", parent, [&] {
    resolver::ResolverOptions options;
    options.serve_stale = true;
    options.aggressive_nsec_caching = true;
    stack.resolver.reset(new resolver::RecursiveResolver(
        stack.world->make_resolver(resolver::profile_reference(), options)));
    serve::FrontEndOptions frontend_options;
    frontend_options.inflight = 256;
    frontend_options.wave_ms = 1'000;
    frontend_options.prefetch = true;
    stack.frontend = std::make_unique<serve::FrontEnd>(
        *stack.resolver, *stack.network, frontend_options);
  });
  return stack;
}

// --- outputs and invariants -----------------------------------------------

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// The aggregates the Sec. 4.2 report is built from: per-code domain counts
/// (sec42_codes.csv's measured column), the per-category cross-tab
/// (codes_by_category) and the headline counts. They do not depend on the
/// shard count, so scan and scan_sharded share one reference.
std::string scan_outputs(const scan::ScanResult& result) {
  std::string per_code;
  for (const auto& [code, stats] : result.per_code) {
    if (!per_code.empty()) per_code += ',';
    per_code += json_string(std::to_string(code)) + ":" +
                std::to_string(stats.domains);
  }
  std::string by_category;
  for (const auto& [category, codes] : result.codes_by_category) {
    std::string inner;
    for (const auto& [code, count] : codes) {
      if (!inner.empty()) inner += ',';
      inner += json_string(std::to_string(code)) + ":" + std::to_string(count);
    }
    if (!by_category.empty()) by_category += ',';
    by_category += json_string(scan::to_string(category)) + ":{" + inner + "}";
  }
  return "{\"domains\":" + std::to_string(result.total_domains) +
         ",\"with_ede\":" + std::to_string(result.domains_with_ede) +
         ",\"noerror_with_ede\":" + std::to_string(result.noerror_with_ede) +
         ",\"servfail\":" + std::to_string(result.servfail_domains) +
         ",\"lame_union\":" + std::to_string(result.lame_union) +
         ",\"per_code\":{" + per_code + "},\"by_category\":{" + by_category +
         "}}";
}

std::uint64_t cache_partition_miss(const resolver::Cache::Stats& cache) {
  return absdiff(cache.hits + cache.misses + cache.stale_hits, cache.lookups);
}

/// Seed-independent scan invariants: every domain scanned exactly once,
/// and the cache's hits + misses + stale_hits == lookups contract.
/// Returns how many ops they miss by.
std::uint64_t scan_invariant_misses(const scan::ScanResult& result,
                                    std::size_t population) {
  const std::uint64_t missed = absdiff(result.total_domains, population) +
                               cache_partition_miss(result.record_cache);
  return std::min<std::uint64_t>(missed, population);
}

/// One stub query's client-visible outcome: "s" for an absorbed
/// retransmit, else the rcode and the sorted EDE set, as in "2/9.22".
std::string outcome_code(const serve::ClientAnswer& answer) {
  if (answer.suppressed) return "s";
  std::string code = std::to_string(static_cast<int>(answer.rcode));
  for (std::size_t i = 0; i < answer.ede.size(); ++i) {
    code += i == 0 ? '/' : '.';
    code += std::to_string(answer.ede[i]);
  }
  return code;
}

resolver::Cache::Stats cache_delta(const resolver::Cache::Stats& after,
                                   const resolver::Cache::Stats& before) {
  resolver::Cache::Stats delta;
  delta.lookups = after.lookups - before.lookups;
  delta.hits = after.hits - before.hits;
  delta.misses = after.misses - before.misses;
  delta.stale_hits = after.stale_hits - before.stale_hits;
  delta.evicted_expired = after.evicted_expired - before.evicted_expired;
  delta.evicted_capacity = after.evicted_capacity - before.evicted_capacity;
  return delta;
}

/// Seed-independent serve invariants: every trace query is answered or
/// absorbed (served + suppressed == queries == trace length), and the
/// cache counting contract holds. Returns how many ops they miss by.
std::uint64_t serve_invariant_misses(const serve::ServeStats& stats,
                                     const resolver::Cache::Stats& cache,
                                     std::size_t answers,
                                     std::size_t trace_size) {
  const std::uint64_t missed =
      absdiff(stats.served + stats.suppressed_retries, stats.queries) +
      absdiff(stats.queries, trace_size) + absdiff(answers, trace_size) +
      cache_partition_miss(cache);
  return std::min<std::uint64_t>(missed, trace_size);
}

// --- repetitions ------------------------------------------------------------

/// What one repetition measured and produced.
struct Rep {
  SetupTimes setup;
  double phase_s = 0;  // wall time of the measured phase
  /// The phase's work summed over shards: the per-shard Scanner::run
  /// walls on the scan workloads (with one shard, the phase itself), the
  /// FrontEnd::serve wall on serve. Layer shares are taken against it.
  double busy_s = 0;
  double slowest_shard_s = 0;
  std::size_t shards = 1;
  std::size_t ops = 0;
  std::uint64_t upstream = 0;  // client-path plus prefetch upstream queries
  std::uint64_t invariant_misses = 0;
  std::string outputs;   // scan: the aggregates, as JSON
  std::string outcomes;  // serve: per-query outcome codes, comma-joined
};

void finish_scan_rep(Rep& rep, const scan::ScanResult& result,
                     std::size_t population) {
  rep.ops = population;
  rep.upstream = result.upstream_queries;
  rep.invariant_misses = scan_invariant_misses(result, population);
  rep.outputs = scan_outputs(result);
}

Rep scan_rep(const Args& args, Digest* digest) {
  Rep rep;
  Spans off(false);
  const auto population =
      timed(rep.setup.population, off, "", Spans::kNone, [&] {
        return make_population(args.sizes.scan_domains, args.seed);
      });
  if (digest != nullptr) digest_population(*digest, population);
  rep.shards = shards_of(args.workload);
  scan::ScanResult result;
  if (rep.shards == 1) {
    const auto plan = scan::plan_shards(population.domains.size(), 1,
                                        sim::LatencyModel{}.seed)
                          .front();
    const auto stack =
        make_scan_stack(population, plan, rep.setup, off, Spans::kNone);
    const auto start = Steady::now();
    result =
        scan::Scanner().run(*stack.resolver, population, plan.begin, plan.end);
    rep.phase_s = seconds_between(start, Steady::now());
    rep.busy_s = rep.slowest_shard_s = result.wall_seconds;
  } else {
    scan::ParallelScanOptions options;
    options.shards = rep.shards;
    const auto start = Steady::now();
    auto parallel = scan::run_parallel_scan(
        population, resolver::profile_cloudflare(), options);
    rep.phase_s = seconds_between(start, Steady::now());
    for (const auto& shard : parallel.shards) {
      rep.busy_s += shard.result.wall_seconds;
      rep.slowest_shard_s =
          std::max(rep.slowest_shard_s, shard.result.wall_seconds);
    }
    result = std::move(parallel.merged);
  }
  finish_scan_rep(rep, result, population.domains.size());
  return rep;
}

void finish_serve_rep(Rep& rep, const ServeStack& stack,
                      const serve::StubTrace& trace,
                      const std::vector<serve::ClientAnswer>& answers,
                      const resolver::Cache::Stats& cache_before) {
  const auto& stats = stack.frontend->stats();
  rep.ops = trace.queries.size();
  rep.upstream = stats.upstream_queries + stats.prefetch_upstream_queries;
  rep.invariant_misses = serve_invariant_misses(
      stats, cache_delta(stack.resolver->cache().stats(), cache_before),
      answers.size(), rep.ops);
  rep.outcomes.reserve(answers.size() * 3);
  for (std::size_t i = 0; i < answers.size(); ++i) {
    if (i > 0) rep.outcomes += ',';
    rep.outcomes += outcome_code(answers[i]);
  }
}

Rep serve_rep(const Args& args, Digest* digest) {
  Rep rep;
  Spans off(false);
  const auto population =
      timed(rep.setup.population, off, "", Spans::kNone, [&] {
        return make_population(args.sizes.serve_domains, args.seed);
      });
  const auto trace = timed(rep.setup.stubs, off, "", Spans::kNone, [&] {
    return serve::generate_stub_trace(population,
                                      stub_options(args.sizes, args.seed));
  });
  if (digest != nullptr) {
    digest_population(*digest, population);
    digest_trace(*digest, trace);
  }
  const auto stack =
      make_serve_stack(population, args.seed, rep.setup, off, Spans::kNone);
  const auto cache_before = stack.resolver->cache().stats();
  const auto start = Steady::now();
  const auto answers = stack.frontend->serve(trace);
  rep.phase_s = rep.busy_s = seconds_between(start, Steady::now());
  finish_serve_rep(rep, stack, trace, answers, cache_before);
  return rep;
}

Rep run_rep(const Args& args, Digest* digest) {
  return args.workload == "serve" ? serve_rep(args, digest)
                                  : scan_rep(args, digest);
}

/// Append a serve repetition's per-query outcomes to the outcomes file
/// (a line per repetition, for run.py's check) and drop them from memory,
/// so peak RSS does not grow with the number of repetitions.
void append_outcomes(const Args& args, Rep& rep) {
  if (args.workload != "serve") return;
  std::ofstream out(args.outcomes_path, std::ios::app);
  out << rep.outcomes << '\n';
  out.close();
  if (!out)
    throw std::runtime_error("cannot write outcomes to " + args.outcomes_path);
  std::string().swap(rep.outcomes);
}

/// Repeat until `budget_s` has passed, at least `min_reps` times. The
/// first repetition digests its inputs into `digest` unless it is null.
std::vector<Rep> repeat(const Args& args, double budget_s,
                        std::size_t min_reps, Digest* digest) {
  std::vector<Rep> reps;
  const auto start = Steady::now();
  while (reps.size() < min_reps ||
         (seconds_between(start, Steady::now()) < budget_s &&
          reps.size() < kMaxReps)) {
    Rep rep = run_rep(args, reps.empty() ? digest : nullptr);
    append_outcomes(args, rep);
    reps.push_back(std::move(rep));
  }
  return reps;
}

/// Print the run's document: the outputs of every repetition for run.py's
/// check (serve's are in the outcomes file already), and the metrics.
void emit(const Args& args, const std::vector<Rep>& reps, const Digest& digest,
          const Metrics& metrics,
          const std::vector<std::string>& not_applicable) {
  std::uint64_t attempted = 0;
  std::uint64_t invariant_misses = 0;
  std::string ops, setups, phases, outputs;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Rep& rep = reps[i];
    const std::string sep = i == 0 ? "" : ",";
    attempted += rep.ops;
    invariant_misses += rep.invariant_misses;
    ops += sep + std::to_string(rep.ops);
    phases += sep + json_number(rep.phase_s);
    setups += sep + json_number(rep.setup.total());
    if (args.workload != "serve") outputs += sep + rep.outputs;
  }
  std::string metric_json;
  for (const auto& [name, value] : metrics) {
    if (!metric_json.empty()) metric_json += ',';
    metric_json += json_string(name) + ":" + json_number(value);
  }
  std::string na_json;
  for (const auto& name : not_applicable) {
    if (!na_json.empty()) na_json += ',';
    na_json += json_string(name);
  }
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"size\":%s,\"trace\":%d,"
      "\"build_type\":%s,\"reps\":%zu,\"ops\":[%s],\"attempted\":%llu,"
      "\"invariant_misses\":%llu,\"input_digest\":%s,\"phase_s\":[%s],"
      "\"setup_s\":[%s],\"outputs\":[%s],\"not_applicable\":[%s],"
      "\"metrics\":{%s}}\n",
      json_string(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed),
      json_string(args.size).c_str(), args.trace ? 1 : 0,
      json_string(EDEBENCH_BUILD_TYPE).c_str(), reps.size(), ops.c_str(),
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(invariant_misses),
      json_string(digest.hex()).c_str(), phases.c_str(), setups.c_str(),
      outputs.c_str(),
      na_json.c_str(), metric_json.c_str());
}

int run_untraced(const Args& args) {
  Digest digest;
  const auto reps = repeat(args, args.seconds, kMinReps, &digest);
  std::vector<double> setup, phase, upstream;
  for (const Rep& rep : reps) {
    setup.push_back(rep.setup.total());
    phase.push_back(rep.phase_s);
    upstream.push_back(per(static_cast<double>(rep.upstream),
                           static_cast<double>(rep.ops)));
  }
  const Metrics metrics = {
      {"setup_s", fastest(setup)},
      {"ops_per_s",
       per(static_cast<double>(reps.front().ops), fastest(phase))},
      {"upstream_per_op", median(upstream)},
      {"peak_rss_mb", peak_rss_mb()},
  };
  emit(args, reps, digest, metrics, {});
  return 0;
}

// --- the traced run -------------------------------------------------------

/// One UDP exchange as the live run saw it: where and when from the send
/// log, the bytes both ways from the tap.
struct Exchange {
  sim::SimTimeMs at_ms = 0;
  sim::NodeAddress destination;
  bool retransmission = false;
  crypto::Bytes query;
  sim::SendStatus status = sim::SendStatus::Timeout;
  crypto::Bytes reply;
};

struct Capture {
  std::vector<Exchange> exchanges;
  std::size_t unlogged = 0;  // tapped exchanges without a send-log record
};

/// Capture every UDP exchange on `network`. The send log is cleared after
/// each exchange, so its bound never truncates a run. DoTCP exchanges go
/// through the stream transport and bypass both hooks.
void start_capture(sim::Network& network, Capture& capture) {
  network.record_sends(true);
  network.set_tap([&network, &capture](crypto::BytesView query,
                                       const sim::SendResult& result) {
    if (network.send_log().empty()) {
      ++capture.unlogged;
      return;
    }
    const auto& record = network.send_log().back();
    capture.exchanges.push_back({record.at_ms, record.destination,
                                 record.retransmission,
                                 crypto::Bytes(query.begin(), query.end()),
                                 result.status, result.response});
    network.record_sends(true);
  });
}

void stop_capture(sim::Network& network, const Capture& capture,
                  std::uint64_t packets_sent) {
  network.set_tap({});
  network.record_sends(false);
  if (capture.unlogged != 0 || capture.exchanges.size() != packets_sent)
    throw std::runtime_error(
        "capture saw " + std::to_string(capture.exchanges.size()) + " of " +
        std::to_string(packets_sent) + " UDP exchanges");
}

/// Counts from the traced repetition, summed over shards.
struct Counters {
  std::uint64_t timeouts = 0;
  std::uint64_t unreachable = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t stream_fallbacks = 0;  // HardeningStats::tcp_fallbacks
  std::uint64_t coalesced = 0;
  std::uint64_t servfail_cache_hits = 0;
  std::uint64_t holddown_skips = 0;
  resolver::Cache::Stats cache;
  std::uint64_t cache_entries = 0;
};

struct Replay {
  double seconds = 0;
  std::uint64_t exchanges = 0;
  std::uint64_t delivered = 0;
  std::uint64_t reply_bytes = 0;
  std::uint64_t mismatches = 0;
  std::string first_mismatch;
};

/// The population index of the registered domain an exchange's question
/// falls under (the op it served), or -1 for infrastructure queries.
std::int64_t op_of(const Exchange& exchange, const scan::ScanWorld& world,
                   const scan::Population& population) {
  const auto query = dns::Message::parse(exchange.query);
  if (!query || query.value().question.empty()) return Spans::kNone;
  dns::Name probe = query.value().question.front().qname;
  while (!probe.is_root()) {
    if (const auto* domain = world.lookup(probe))
      return domain - population.domains.data();
    probe = probe.parent();
  }
  return Spans::kNone;
}

/// Replay captured exchanges in order through Network::send against a
/// fresh network and world built like the live ones: only the authorities
/// and the simnet send path run, so the summed send time is the simulated
/// Internet's part of the phase. Each reply must match the live one.
void replay_exchanges(Replay& replay, const std::vector<Exchange>& exchanges,
                      sim::Network& network, const sim::NodeAddress& source,
                      const scan::ScanWorld& world,
                      const scan::Population& population, Spans& spans,
                      std::int64_t parent) {
  const auto span = spans.open("server.replay", parent);
  for (const auto& exchange : exchanges) {
    network.clock().set_ms(exchange.at_ms);
    const auto start = Steady::now();
    const auto sent = network.send(source, exchange.destination,
                                   exchange.query, exchange.retransmission);
    const auto end = Steady::now();
    replay.seconds += seconds_between(start, end);
    spans.add("server.exchange", start, end, span,
              op_of(exchange, world, population));
    ++replay.exchanges;
    if (exchange.status == sim::SendStatus::Delivered) {
      ++replay.delivered;
      replay.reply_bytes += exchange.reply.size();
    }
    if (sent.status != exchange.status || sent.response != exchange.reply) {
      if (replay.mismatches++ == 0)
        replay.first_mismatch = "exchange " +
                                std::to_string(replay.exchanges - 1) +
                                " to " + exchange.destination.to_string();
    }
  }
  spans.close(span);
}

struct Codec {
  double parse_s = 0;
  double serialize_s = 0;
  std::uint64_t parsed = 0;  // parse attempts
  std::uint64_t serialized = 0;
  std::uint64_t bytes = 0;  // re-serialized bytes
};

/// Re-parse and re-serialize the captured replies through one
/// MessageArena, the way endpoints and the resolver handle each packet.
void codec_pass(Codec& codec, const std::vector<Exchange>& exchanges,
                Spans& spans, std::int64_t parent) {
  std::vector<const crypto::Bytes*> replies;
  for (const auto& exchange : exchanges)
    if (exchange.status == sim::SendStatus::Delivered &&
        !exchange.reply.empty())
      replies.push_back(&exchange.reply);

  dns::MessageArena arena;
  const auto start = Steady::now();
  for (const auto* reply : replies) static_cast<void>(arena.parse(*reply));
  const auto end = Steady::now();
  codec.parse_s += seconds_between(start, end);
  codec.parsed += replies.size();
  spans.add("dnscore.parse", start, end, parent);

  // Serialization is timed over messages parsed beforehand, a chunk at a
  // time, so the parse cost stays out of it.
  constexpr std::size_t kChunk = 256;
  std::vector<dns::Message> chunk;
  for (std::size_t i = 0; i < replies.size(); i += kChunk) {
    chunk.clear();
    for (std::size_t j = i; j < std::min(replies.size(), i + kChunk); ++j) {
      auto message = dns::Message::parse(*replies[j]);
      if (message) chunk.push_back(std::move(message).take());
    }
    const auto chunk_start = Steady::now();
    for (const auto& message : chunk)
      codec.bytes += arena.serialize(message).size();
    const auto chunk_end = Steady::now();
    codec.serialize_s += seconds_between(chunk_start, chunk_end);
    codec.serialized += chunk.size();
    spans.add("dnscore.serialize", chunk_start, chunk_end, parent);
  }
}

/// Median ScanWorld::build_child_zone time over an evenly spaced sample
/// of the workload's signed domains, and the sample size.
std::pair<double, std::size_t> time_child_zones(
    const scan::ScanWorld& world,
    const std::vector<const scan::DomainSpec*>& domains,
    const scan::Population& population, Spans& spans, std::int64_t parent) {
  std::vector<double> micros;
  const std::size_t step = std::max<std::size_t>(
      1, (domains.size() + kChildZoneSample - 1) / kChildZoneSample);
  for (std::size_t i = 0; i < domains.size(); i += step) {
    const auto start = Steady::now();
    [[maybe_unused]] const auto zone = world.build_child_zone(*domains[i]);
    const auto end = Steady::now();
    micros.push_back(seconds_between(start, end) * 1e6);
    spans.add("scan.world.child_zone", start, end, parent,
              domains[i] - population.domains.data());
  }
  return {median(micros), micros.size()};
}

/// Mean ScanWorld::lookup time over every registered name (median of
/// three passes); every name must be found.
double time_lookups(const scan::ScanWorld& world,
                    const scan::Population& population, Spans& spans,
                    std::int64_t parent) {
  std::vector<dns::Name> names;
  names.reserve(population.domains.size());
  for (const auto& domain : population.domains)
    names.push_back(dns::Name::of(domain.fqdn));
  std::vector<double> passes;
  for (int pass = 0; pass < 3; ++pass) {
    std::size_t found = 0;
    const auto start = Steady::now();
    for (const auto& name : names) found += world.lookup(name) ? 1 : 0;
    const auto end = Steady::now();
    if (found != names.size())
      throw std::runtime_error("world lookup missed a registered name");
    passes.push_back(seconds_between(start, end) * 1e9 /
                     static_cast<double>(names.size()));
    spans.add("scan.world.lookup", start, end, parent);
  }
  return median(passes);
}

/// The fastest of a few Cache::expiring_within calls on the end-of-run
/// cache, with the front end's prefetch horizon (the walk serve makes once
/// per wave).
double time_expiring_within(resolver::Cache& cache, sim::SimTime now,
                            Spans& spans, std::int64_t parent) {
  const sim::SimTimeMs horizon = serve::FrontEndOptions{}.prefetch_horizon_ms;
  std::vector<double> micros;
  for (int call = 0; call < 5; ++call) {
    const auto start = Steady::now();
    [[maybe_unused]] const auto keys = cache.expiring_within(horizon, now);
    const auto end = Steady::now();
    micros.push_back(seconds_between(start, end) * 1e6);
    spans.add("resolver.cache.expiring_within", start, end, parent);
  }
  return fastest(micros);
}

/// Everything the traced repetition yields beyond the Rep itself.
struct Traced {
  Rep rep;
  Counters counters;
  Replay replay;
  Codec codec;
  double child_zone_us = 0;
  std::size_t child_zone_samples = 0;
  double lookup_ns = 0;
  double expiring_us = 0;  // on shard 0's cache on scan_sharded
  Metrics specific;  // layer metrics only this workload has
};

/// Fold another traced pass into `best`. Counts and outputs are the same
/// in every pass (checked on the exchange count); timings keep the
/// fastest pass, for the reason given at fastest().
void keep_fastest(Traced& best, const Traced& next) {
  if (next.replay.exchanges != best.replay.exchanges)
    throw std::runtime_error("traced passes saw different exchange counts");
  const auto low = [](double& kept, double seen) {
    kept = std::min(kept, seen);
  };
  low(best.rep.setup.population, next.rep.setup.population);
  low(best.rep.setup.stubs, next.rep.setup.stubs);
  low(best.rep.setup.world, next.rep.setup.world);
  low(best.rep.setup.resolver, next.rep.setup.resolver);
  low(best.rep.setup.prewarm, next.rep.setup.prewarm);
  low(best.rep.phase_s, next.rep.phase_s);
  low(best.rep.busy_s, next.rep.busy_s);
  low(best.replay.seconds, next.replay.seconds);
  low(best.codec.parse_s, next.codec.parse_s);
  low(best.codec.serialize_s, next.codec.serialize_s);
  low(best.child_zone_us, next.child_zone_us);
  low(best.lookup_ns, next.lookup_ns);
  low(best.expiring_us, next.expiring_us);
  for (std::size_t i = 0; i < best.specific.size(); ++i)
    low(best.specific[i].second, next.specific[i].second);
}

void add_scan_counters(Counters& counters, const scan::ScanResult& result) {
  counters.timeouts += result.transport.timeouts;
  counters.unreachable += result.transport.unreachable;
  counters.retransmits += result.transport.retransmits;
  counters.stream_fallbacks += result.hardening.tcp_fallbacks;
  counters.coalesced += result.hardening.coalesced_queries;
  counters.servfail_cache_hits += result.hardening.servfail_cache_hits;
  counters.holddown_skips += result.transport.holddown_skips;
  counters.cache.merge(result.record_cache);
}

/// The scan workloads' traced repetition. Shards run one after another
/// here, each built as run_parallel_scan builds it, so each shard's
/// network can be captured and replayed on its own.
Traced traced_scan(const Args& args, Spans& spans, std::int64_t root) {
  Traced traced;
  Rep& rep = traced.rep;
  const auto population =
      timed(rep.setup.population, spans, "scan.population.generate", root,
            [&] { return make_population(args.sizes.scan_domains, args.seed); });
  rep.shards = shards_of(args.workload);
  const auto source = resolver::profile_cloudflare().source;
  const auto plans = scan::plan_shards(population.domains.size(), rep.shards,
                                       sim::LatencyModel{}.seed);
  std::vector<scan::ScanResult> shard_results;
  for (const auto& plan : plans) {
    const auto shard = spans.open("scan.shard", root,
                                  static_cast<std::int64_t>(plan.shard_id));
    const auto stack = make_scan_stack(population, plan, rep.setup, spans, shard);
    Capture capture;
    start_capture(*stack.network, capture);
    const auto start = Steady::now();
    auto result =
        scan::Scanner().run(*stack.resolver, population, plan.begin, plan.end);
    const auto end = Steady::now();
    stop_capture(*stack.network, capture, result.transport.packets_sent);
    spans.add("scan.run", start, end, shard);
    rep.phase_s += seconds_between(start, end);
    rep.busy_s += result.wall_seconds;
    rep.slowest_shard_s = std::max(rep.slowest_shard_s, result.wall_seconds);
    add_scan_counters(traced.counters, result);
    traced.counters.cache_entries += stack.resolver->cache().size();
    if (plan.shard_id == 0)
      traced.expiring_us = time_expiring_within(
          stack.resolver->cache(), stack.network->clock().now(), spans, shard);

    auto network = std::make_shared<sim::Network>(
        std::make_shared<sim::Clock>(), plan.seed);
    const scan::ScanWorld world(network, population);
    replay_exchanges(traced.replay, capture.exchanges, *network, source, world,
                     population, spans, shard);
    codec_pass(traced.codec, capture.exchanges, spans, shard);
    shard_results.push_back(std::move(result));
    spans.close(shard);
  }

  // Fold the shards as run_parallel_scan does (it folds one shard too).
  std::vector<double> merges;
  scan::ScanResult merged;
  for (int pass = 0; pass < 5; ++pass) {
    scan::ScanResult folded;
    const auto start = Steady::now();
    for (const auto& result : shard_results) folded.merge(result);
    const auto end = Steady::now();
    merges.push_back(seconds_between(start, end));
    spans.add("scan.parallel.merge", start, end, root);
    if (pass == 0) merged = std::move(folded);
  }
  finish_scan_rep(rep, merged, population.domains.size());

  std::vector<double> renders;
  for (int pass = 0; pass < 5; ++pass) {
    const auto start = Steady::now();
    [[maybe_unused]] const auto text =
        scan::render_section42(merged, population);
    [[maybe_unused]] const auto csv = scan::section42_csv(merged, population);
    const auto end = Steady::now();
    renders.push_back(seconds_between(start, end));
    spans.add("scan.report.render", start, end, root);
  }

  auto network = std::make_shared<sim::Network>(
      std::make_shared<sim::Clock>(), plans.front().seed);
  const scan::ScanWorld world(network, population);
  std::vector<const scan::DomainSpec*> signed_domains;
  for (const auto& domain : population.domains)
    if (scan::plan_for(domain.category).signed_zone)
      signed_domains.push_back(&domain);
  std::tie(traced.child_zone_us, traced.child_zone_samples) =
      time_child_zones(world, signed_domains, population, spans, root);
  traced.lookup_ns = time_lookups(world, population, spans, root);

  traced.specific = {
      {"scan.world.prewarm_s",
       per(rep.setup.prewarm, static_cast<double>(rep.setup.worlds))},
      {"scan.report.render_s", median(renders)},
      {"scan.parallel.merge_s", median(merges)},
  };
  return traced;
}

/// The serve workload's traced repetition.
Traced traced_serve(const Args& args, Spans& spans, std::int64_t root) {
  Traced traced;
  Rep& rep = traced.rep;
  const auto population =
      timed(rep.setup.population, spans, "scan.population.generate", root,
            [&] { return make_population(args.sizes.serve_domains, args.seed); });
  const auto trace =
      timed(rep.setup.stubs, spans, "serve.stubs.generate", root, [&] {
        return serve::generate_stub_trace(population,
                                          stub_options(args.sizes, args.seed));
      });
  const auto stack =
      make_serve_stack(population, args.seed, rep.setup, spans, root);
  auto& network = *stack.network;
  auto& engine = *stack.resolver;
  const auto net_before = network.stats();
  const auto hardening_before = engine.hardening_stats();
  const auto infra_before = engine.infra().stats();
  const auto cache_before = engine.cache().stats();

  Capture capture;
  start_capture(network, capture);
  const auto start = Steady::now();
  const auto answers = stack.frontend->serve(trace);
  const auto end = Steady::now();
  stop_capture(network, capture,
               network.stats().packets_sent - net_before.packets_sent);
  spans.add("serve.serve", start, end, root);
  rep.phase_s = rep.busy_s = seconds_between(start, end);
  finish_serve_rep(rep, stack, trace, answers, cache_before);

  const auto& net = network.stats();
  const auto& hardening = engine.hardening_stats();
  Counters& counters = traced.counters;
  counters.timeouts = net.packets_timeout - net_before.packets_timeout;
  counters.unreachable =
      net.packets_unreachable - net_before.packets_unreachable;
  counters.retransmits = net.retransmits - net_before.retransmits;
  counters.stream_fallbacks =
      hardening.tcp_fallbacks - hardening_before.tcp_fallbacks;
  counters.coalesced =
      hardening.coalesced_queries - hardening_before.coalesced_queries;
  counters.servfail_cache_hits =
      hardening.servfail_cache_hits - hardening_before.servfail_cache_hits;
  counters.holddown_skips =
      engine.infra().stats().holddown_skips - infra_before.holddown_skips;
  counters.cache = cache_delta(engine.cache().stats(), cache_before);
  counters.cache_entries = engine.cache().size();
  traced.expiring_us = time_expiring_within(engine.cache(),
                                            network.clock().now(), spans, root);

  auto replay_network = make_serve_network(args.seed);
  const scan::ScanWorld world(replay_network, population,
                              serve_world_options());
  replay_exchanges(traced.replay, capture.exchanges, *replay_network,
                   engine.profile().source, world, population, spans, root);
  codec_pass(traced.codec, capture.exchanges, spans, root);

  // World synthesis over the signed domains the trace asks about.
  std::set<const scan::DomainSpec*> asked;
  for (const auto& query : trace.queries) {
    const auto* domain =
        world.lookup(query.typo ? query.qname.parent() : query.qname);
    if (domain != nullptr && scan::plan_for(domain->category).signed_zone)
      asked.insert(domain);
  }
  std::tie(traced.child_zone_us, traced.child_zone_samples) = time_child_zones(
      world, std::vector<const scan::DomainSpec*>(asked.begin(), asked.end()),
      population, spans, root);
  traced.lookup_ns = time_lookups(world, population, spans, root);

  const auto& stats = stack.frontend->stats();
  const auto summary =
      serve::summarize_run("full", answers, stats, counters.cache);
  const double upstream = static_cast<double>(stats.upstream_queries +
                                              stats.prefetch_upstream_queries);
  traced.specific = {
      {"serve.stubs.generate_s", rep.setup.stubs},
      {"serve.waves", static_cast<double>(stats.waves)},
      {"serve.coalesced_share", per(static_cast<double>(stats.coalesced),
                                    static_cast<double>(stats.served))},
      {"serve.suppressed_share",
       per(static_cast<double>(stats.suppressed_retries),
           static_cast<double>(stats.queries))},
      {"serve.synthesized_share",
       per(static_cast<double>(stats.synthesized_answers),
           static_cast<double>(stats.served))},
      {"serve.prefetch_jobs", static_cast<double>(stats.prefetch_jobs)},
      {"serve.prefetch_upstream_share",
       per(static_cast<double>(stats.prefetch_upstream_queries), upstream)},
      {"serve.busy_virtual_ms", static_cast<double>(stats.busy_virtual_ms)},
      {"serve.hit_rate", summary.hit_rate()},
      {"serve.virtual_p50_ms", static_cast<double>(summary.latency.p50)},
      {"serve.virtual_p99_ms", static_cast<double>(summary.latency.p99)},
      {"serve.answers", static_cast<double>(stats.served)},
  };
  return traced;
}

/// Layer metrics of one workload's layers that the other workloads do not
/// run; run.py reports them as 0 there.
const std::vector<std::string>& not_applicable(const std::string& workload) {
  static const std::vector<std::string> kOnScans = {
      "serve.stubs.generate_s",  "serve.waves",
      "serve.coalesced_share",   "serve.suppressed_share",
      "serve.synthesized_share", "serve.prefetch_jobs",
      "serve.prefetch_upstream_share", "serve.busy_virtual_ms",
      "serve.hit_rate",          "serve.virtual_p50_ms",
      "serve.virtual_p99_ms",    "serve.answers"};
  static const std::vector<std::string> kOnServe = {
      "scan.world.prewarm_s", "scan.report.render_s", "scan.parallel.merge_s",
      "scan.parallel.shard_imbalance"};
  return workload == "serve" ? kOnServe : kOnScans;
}

int run_traced(const Args& args) {
  const auto run_start = Steady::now();
  Spans spans(true);
  const auto root = spans.open("run");
  Digest digest;
  std::vector<Rep> reps;
  std::vector<double> busy, imbalance;
  Traced traced;
  for (std::size_t pass = 0; pass < kTracedPasses; ++pass) {
    Traced next = args.workload == "serve" ? traced_serve(args, spans, root)
                                           : traced_scan(args, spans, root);
    if (next.replay.mismatches != 0)
      throw std::runtime_error(
          "replay diverged from the live run in " +
          std::to_string(next.replay.mismatches) +
          " replies (first: " + next.replay.first_mismatch +
          "), so the layer split would measure a different program");
    append_outcomes(args, next.rep);
    reps.push_back(next.rep);
    if (pass == 0) {
      traced = std::move(next);
    } else {
      keep_fastest(traced, next);
    }
    // Untraced repetitions after each pass fill the budget. Their fastest
    // phase wall is what the capture overhead and the layer shares are
    // measured against; interleaving makes it sample the same stretches
    // of host load as the traced passes.
    const double left =
        args.seconds - seconds_between(run_start, Steady::now());
    const auto untraced =
        repeat(args, left / static_cast<double>(kTracedPasses - pass), 1,
               pass == 0 ? &digest : nullptr);
    for (const Rep& rep : untraced) {
      busy.push_back(rep.busy_s);
      imbalance.push_back(per(rep.slowest_shard_s,
                              rep.busy_s / static_cast<double>(rep.shards)));
    }
    reps.insert(reps.end(), untraced.begin(), untraced.end());
  }
  spans.close(root);
  const double phase_wall = fastest(busy);

  const double ops = static_cast<double>(traced.rep.ops);
  const Counters& c = traced.counters;
  const auto count = [](std::uint64_t value) {
    return static_cast<double>(value);
  };
  Metrics metrics = {
      {"scan.population.generate_s", traced.rep.setup.population},
      {"scan.world.build_s",
       per(traced.rep.setup.world, count(traced.rep.setup.worlds))},
      {"scan.world.child_zone_us", traced.child_zone_us},
      {"scan.world.child_zone_samples", count(traced.child_zone_samples)},
      {"scan.world.lookup_ns", traced.lookup_ns},
      {"server.exchanges_per_op", per(count(traced.replay.exchanges), ops)},
      {"server.stream_exchanges_per_op", per(count(c.stream_fallbacks), ops)},
      {"server.reply_bytes_mean", per(count(traced.replay.reply_bytes),
                                      count(traced.replay.delivered))},
      {"server.replay_s", traced.replay.seconds},
      {"server.share", per(traced.replay.seconds, phase_wall)},
      {"simnet.timeouts_per_op", per(count(c.timeouts), ops)},
      {"simnet.unreachable_per_op", per(count(c.unreachable), ops)},
      {"resolver.self_us_per_op",
       per(phase_wall - traced.replay.seconds, ops) * 1e6},
      {"resolver.retransmits_per_op", per(count(c.retransmits), ops)},
      {"resolver.coalesced_per_op", per(count(c.coalesced), ops)},
      {"resolver.servfail_cache_hits_per_op",
       per(count(c.servfail_cache_hits), ops)},
      {"resolver.infra.holddown_skips_per_op",
       per(count(c.holddown_skips), ops)},
      {"resolver.cache.lookups_per_op", per(count(c.cache.lookups), ops)},
      {"resolver.cache.hit_ratio",
       per(count(c.cache.hits), count(c.cache.lookups))},
      {"resolver.cache.hits", count(c.cache.hits)},
      {"resolver.cache.lookups", count(c.cache.lookups)},
      {"resolver.cache.stale_hits", count(c.cache.stale_hits)},
      {"resolver.cache.evicted_capacity", count(c.cache.evicted_capacity)},
      {"resolver.cache.entries", count(c.cache_entries)},
      {"resolver.cache.expiring_within_us", traced.expiring_us},
      {"dnscore.parse_ns_per_msg",
       per(traced.codec.parse_s, count(traced.codec.parsed)) * 1e9},
      {"dnscore.serialize_ns_per_msg",
       per(traced.codec.serialize_s, count(traced.codec.serialized)) * 1e9},
      {"dnscore.bytes_per_msg",
       per(count(traced.codec.bytes), count(traced.codec.serialized))},
      {"dnscore.messages", count(traced.codec.serialized)},
      {"trace.overhead_share", per(traced.rep.busy_s, phase_wall) - 1.0},
  };
  metrics.insert(metrics.end(), traced.specific.begin(),
                 traced.specific.end());
  if (args.workload != "serve")
    metrics.emplace_back("scan.parallel.shard_imbalance", median(imbalance));

  spans.write(args.spans_path);
  emit(args, reps, digest, metrics, not_applicable(args.workload));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (const char* refusal = build_refusal()) {
    std::fprintf(stderr, "edebench: refusing to measure %s\n", refusal);
    return 2;
  }
  try {
    if (args.workload == "serve" &&
        !std::ofstream(args.outcomes_path, std::ios::trunc))
      throw std::runtime_error("cannot write outcomes to " +
                               args.outcomes_path);
    return args.trace ? run_traced(args) : run_untraced(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "edebench: %s\n", error.what());
    return 1;
  }
}
