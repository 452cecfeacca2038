// Frontline serving engine tests (DESIGN.md §5h): stub-trace generation
// is deterministic per seed, the popularity sketch counts and decays, and
// the FrontEnd's per-client outcomes are invariant under the resolve_many
// inflight width — concurrency is an implementation detail, never an
// answer-changing one.
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "dnscore/message.hpp"
#include "resolver/forwarder.hpp"
#include "resolver/resolver.hpp"
#include "scan/world.hpp"
#include "serve/frontend.hpp"
#include "serve/sketch.hpp"
#include "serve/stubs.hpp"

namespace {

using namespace ede;

scan::Population small_population() {
  scan::PopulationConfig config;
  config.total_domains = 300;
  config.seed = 7;
  return scan::generate_population(config);
}

serve::StubOptions small_stub_options() {
  serve::StubOptions options;
  options.clients = 2'000;
  options.queries = 1'500;
  options.duration_ms = 120'000;
  options.seed = 11;
  return options;
}

// --- trace generation ----------------------------------------------------

TEST(StubTrace, IsDeterministicPerSeed) {
  const auto population = small_population();
  const auto options = small_stub_options();
  const auto a = serve::generate_stub_trace(population, options);
  const auto b = serve::generate_stub_trace(population, options);
  ASSERT_EQ(a.queries.size(), b.queries.size());
  ASSERT_EQ(a.id_count, b.id_count);
  for (std::size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].arrival_ms, b.queries[i].arrival_ms);
    EXPECT_EQ(a.queries[i].id, b.queries[i].id);
    EXPECT_EQ(a.queries[i].client, b.queries[i].client);
    EXPECT_EQ(a.queries[i].qname, b.queries[i].qname);
    EXPECT_EQ(a.queries[i].typo, b.queries[i].typo);
    EXPECT_EQ(a.queries[i].retry_of, b.queries[i].retry_of);
  }

  auto reseeded = options;
  reseeded.seed = 12;
  const auto c = serve::generate_stub_trace(population, reseeded);
  bool differs = c.queries.size() != a.queries.size();
  for (std::size_t i = 0; !differs && i < a.queries.size(); ++i) {
    differs = !(a.queries[i].qname == c.queries[i].qname) ||
              a.queries[i].arrival_ms != c.queries[i].arrival_ms;
  }
  EXPECT_TRUE(differs);
}

TEST(StubTrace, IsSortedAndInternallyConsistent) {
  const auto population = small_population();
  const auto options = small_stub_options();
  const auto trace = serve::generate_stub_trace(population, options);

  ASSERT_GE(trace.queries.size(), options.queries);
  std::size_t typos = 0;
  std::size_t retransmits = 0;
  for (std::size_t i = 0; i < trace.queries.size(); ++i) {
    const auto& query = trace.queries[i];
    if (i > 0) {
      const auto& prev = trace.queries[i - 1];
      EXPECT_TRUE(prev.arrival_ms < query.arrival_ms ||
                  (prev.arrival_ms == query.arrival_ms && prev.id < query.id));
    }
    EXPECT_LT(query.id, trace.id_count);
    EXPECT_LT(query.client, options.clients);
    EXPECT_LE(query.arrival_ms + 1,
              options.duration_ms +
                  sim::SimTimeMs{serve::kRetryTimeoutMs} *
                      (serve::kMaxRetries + 1));
    if (query.typo) ++typos;
    if (query.retry_of != serve::kNoRetry) {
      ++retransmits;
      EXPECT_LT(query.retry_of, trace.id_count);
    }
  }
  // Roughly the configured typo share of primaries (±half).
  const auto primaries = trace.queries.size() - retransmits;
  EXPECT_GT(typos, primaries / 20);
  EXPECT_LT(typos, primaries / 5);
  EXPECT_GT(retransmits, 0u);
}

// --- popularity sketch ---------------------------------------------------

TEST(PopularitySketch, ConservativeCountsAndDecay) {
  serve::PopularitySketch sketch;
  const auto hot = dns::Name::of("hot.example");
  const auto ticks = [&sketch](int n) {
    for (int i = 0; i < n; ++i) sketch.tick();
  };

  EXPECT_EQ(sketch.estimate(hot), 0u);
  for (int i = 0; i < 8; ++i) sketch.observe(hot);
  EXPECT_EQ(sketch.estimate(hot), 8u);
  EXPECT_EQ(sketch.estimate(dns::Name::of("cold.example")), 0u);

  ticks(63);  // 63 of 64: no halving yet
  EXPECT_EQ(sketch.estimate(hot), 8u);
  ticks(1);  // decay fires
  EXPECT_EQ(sketch.estimate(hot), 4u);
  ticks(64);
  EXPECT_EQ(sketch.estimate(hot), 2u);
}

// The prefetch pick ranks by estimate, and estimate ties canonically: the
// cache lists expiring keys in expiry order (ties in insertion order), so
// the ranking must not depend on which key the cache saw first.
TEST(FrontEnd, PrefetchRankingBreaksEstimateTiesCanonically) {
  serve::PopularitySketch sketch;
  for (const char* name : {"b.example", "a.example", "c.example"}) {
    for (int i = 0; i < 4; ++i) sketch.observe(dns::Name::of(name));
  }
  for (int i = 0; i < 6; ++i) sketch.observe(dns::Name::of("hot.example"));
  sketch.observe(dns::Name::of("cold.example"));

  const auto expiring_after = [](std::initializer_list<const char*> order) {
    resolver::Cache cache;
    for (const char* name : order) {
      resolver::PositiveEntry entry;
      entry.rrset = dns::RRset{dns::Name::of(name), dns::RRType::A,
                               dns::RRClass::IN, 300, {}};
      entry.expires = 1'010;
      cache.put_positive(std::move(entry));
    }
    return cache.expiring_within(30'000, /*now=*/1'000);
  };
  const auto forward = expiring_after(
      {"a.example", "b.example", "c.example", "hot.example", "cold.example"});
  const auto backward = expiring_after(
      {"cold.example", "hot.example", "c.example", "b.example", "a.example"});
  ASSERT_EQ(forward.size(), 5u);
  EXPECT_EQ(forward.front().name, dns::Name::of("a.example"));
  EXPECT_EQ(backward.front().name, dns::Name::of("cold.example"));

  const auto names = [](const std::vector<resolver::ResolveJob>& jobs) {
    std::vector<std::string> out;
    for (const auto& job : jobs) {
      EXPECT_TRUE(job.refresh);
      out.push_back(job.qname.to_string());
    }
    return out;
  };
  const std::vector<std::string> expected = {"hot.example.", "a.example.",
                                             "b.example.", "c.example."};
  EXPECT_EQ(names(serve::rank_prefetch(forward, sketch, 2, 16)), expected);
  EXPECT_EQ(names(serve::rank_prefetch(backward, sketch, 2, 16)), expected);
  // The per-wave cap keeps the head of the ranking.
  EXPECT_EQ(names(serve::rank_prefetch(backward, sketch, 2, 2)),
            (std::vector<std::string>{"hot.example.", "a.example."}));
}

// --- the front end over a small serving world ----------------------------

struct ServingStack {
  std::shared_ptr<sim::Clock> clock;
  std::shared_ptr<sim::Network> network;
  std::unique_ptr<scan::ScanWorld> world;
  std::shared_ptr<resolver::RecursiveResolver> resolver;
};

ServingStack make_stack(const scan::Population& population,
                        std::uint64_t seed) {
  ServingStack stack;
  stack.clock = std::make_shared<sim::Clock>();
  stack.network = std::make_shared<sim::Network>(stack.clock, seed);
  sim::LatencyModel latency;
  latency.enabled = true;
  latency.seed = seed;
  stack.network->set_latency(latency);
  scan::WorldOptions world_options;
  world_options.child_zone_ttl = 300;
  world_options.stream_listeners = true;
  stack.world = std::make_unique<scan::ScanWorld>(stack.network, population,
                                                  world_options);
  resolver::ResolverOptions options;
  options.serve_stale = true;
  options.aggressive_nsec_caching = true;
  stack.resolver = std::make_shared<resolver::RecursiveResolver>(
      stack.world->make_resolver(resolver::profile_reference(), options));
  return stack;
}

TEST(FrontEnd, PerClientOutcomesAreInvariantUnderInflight) {
  const auto population = small_population();
  const auto trace =
      serve::generate_stub_trace(population, small_stub_options());

  std::vector<std::vector<serve::ClientAnswer>> runs;
  for (const std::size_t inflight : {std::size_t{1}, std::size_t{256}}) {
    auto stack = make_stack(population, /*seed=*/11);
    serve::FrontEndOptions options;
    options.inflight = inflight;
    serve::FrontEnd frontend(*stack.resolver, *stack.network, options);
    runs.push_back(frontend.serve(trace));
  }

  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    const auto& narrow = runs[0][i];
    const auto& wide = runs[1][i];
    EXPECT_EQ(narrow.client, wide.client) << "query " << i;
    EXPECT_EQ(narrow.rcode, wide.rcode) << "query " << i;
    EXPECT_EQ(narrow.ede, wide.ede) << "query " << i;
    EXPECT_EQ(narrow.suppressed, wide.suppressed) << "query " << i;
  }
}

TEST(FrontEnd, ServingIsDeterministicAndStatsPartition) {
  const auto population = small_population();
  const auto trace =
      serve::generate_stub_trace(population, small_stub_options());

  auto stack_a = make_stack(population, /*seed=*/11);
  serve::FrontEnd frontend_a(*stack_a.resolver, *stack_a.network, {});
  const auto answers_a = frontend_a.serve(trace);

  auto stack_b = make_stack(population, /*seed=*/11);
  serve::FrontEnd frontend_b(*stack_b.resolver, *stack_b.network, {});
  const auto answers_b = frontend_b.serve(trace);

  ASSERT_EQ(answers_a.size(), answers_b.size());
  for (std::size_t i = 0; i < answers_a.size(); ++i) {
    EXPECT_EQ(answers_a[i].rcode, answers_b[i].rcode);
    EXPECT_EQ(answers_a[i].ede, answers_b[i].ede);
    EXPECT_EQ(answers_a[i].latency_ms, answers_b[i].latency_ms);
    EXPECT_EQ(answers_a[i].suppressed, answers_b[i].suppressed);
  }

  const auto& stats = frontend_a.stats();
  EXPECT_EQ(stats.queries, trace.queries.size());
  EXPECT_EQ(stats.served + stats.suppressed_retries, stats.queries);
  EXPECT_LE(stats.cache_answered, stats.served);
  EXPECT_GT(stats.cache_answered, 0u);  // Zipf repeats must hit
  EXPECT_GT(stats.waves, 1u);
}

TEST(FrontEnd, PrefetchRunsOffTheClientPath) {
  const auto population = small_population();
  auto options = small_stub_options();
  options.duration_ms = 400'000;  // several TTL cycles at child_zone_ttl=300
  options.queries = 3'000;
  const auto trace = serve::generate_stub_trace(population, options);

  auto stack = make_stack(population, /*seed=*/11);
  serve::FrontEnd frontend(*stack.resolver, *stack.network, {});
  (void)frontend.serve(trace);
  const auto& stats = frontend.stats();
  EXPECT_GT(stats.prefetch_jobs, 0u);
  EXPECT_GT(stats.prefetch_upstream_queries, 0u);
  // The prefetcher's refresh traffic is accounted separately from the
  // client-facing resolutions.
  EXPECT_GT(stats.upstream_queries, 0u);
}

// The wave's job map matches names as Name::equals does: two spellings
// of one (qname, qtype) in one wave are one resolution.
TEST(FrontEnd, CaseVariantsInOneWaveCoalesceIntoOneJob) {
  const auto population = small_population();
  const scan::DomainSpec* healthy = nullptr;
  for (const auto& spec : population.domains) {
    if (spec.category == scan::Category::Healthy) {
      healthy = &spec;
      break;
    }
  }
  ASSERT_NE(healthy, nullptr);
  std::string shouted = healthy->fqdn;
  for (char& c : shouted) c = static_cast<char>(std::toupper(c));

  serve::StubTrace trace;
  const auto query = [&](std::uint32_t id, sim::SimTimeMs arrival,
                         const std::string& qname, dns::RRType qtype) {
    serve::StubQuery q;
    q.arrival_ms = arrival;
    q.id = id;
    q.client = id;
    q.qname = dns::Name::of(qname);
    q.qtype = qtype;
    return q;
  };
  trace.queries = {query(0, 0, shouted, dns::RRType::A),
                   query(1, 5, healthy->fqdn, dns::RRType::A),
                   query(2, 9, healthy->fqdn, dns::RRType::AAAA)};
  trace.id_count = 3;

  auto stack = make_stack(population, /*seed=*/11);
  serve::FrontEnd frontend(*stack.resolver, *stack.network, {});
  const auto answers = frontend.serve(trace);
  const auto& stats = frontend.stats();
  EXPECT_EQ(stats.waves, 1u);
  EXPECT_EQ(stats.served, 3u);
  // The two A spellings share one job; the AAAA query is its own.
  EXPECT_EQ(stats.coalesced, 1u);
  ASSERT_EQ(answers.size(), 3u);
  EXPECT_EQ(answers[0].rcode, dns::RCode::NOERROR);
  EXPECT_EQ(answers[1].rcode, answers[0].rcode);
  EXPECT_EQ(answers[1].latency_ms, answers[0].latency_ms);
  EXPECT_EQ(answers[1].ede, answers[0].ede);
}

// The serving stack's resolver on the wire, through the same endpoint a
// forwarder's upstream uses.
TEST(FrontEnd, AttachAnswersWireQueriesWithEde) {
  const auto population = small_population();
  auto stack = make_stack(population, /*seed=*/11);
  const auto address = sim::NodeAddress::of("9.9.9.9");
  stack.network->attach(address,
                        resolver::make_resolver_endpoint(stack.resolver));

  // A healthy name resolves NOERROR over the wire with the id echoed.
  const scan::DomainSpec* healthy = nullptr;
  for (const auto& spec : population.domains) {
    if (spec.category == scan::Category::Healthy) {
      healthy = &spec;
      break;
    }
  }
  ASSERT_NE(healthy, nullptr);
  dns::Message query =
      dns::make_query(0x1234, dns::Name::of(healthy->fqdn), dns::RRType::A);
  const auto wire = query.serialize();
  const auto result = stack.network->send(sim::NodeAddress::of("192.0.2.50"),
                                          address, crypto::BytesView{wire});
  ASSERT_EQ(result.status, sim::SendStatus::Delivered);
  dns::Message response;
  ASSERT_TRUE(dns::Message::parse_into(crypto::BytesView{result.response},
                                       response));
  EXPECT_TRUE(response.header.qr);
  EXPECT_TRUE(response.header.ra);
  EXPECT_EQ(response.header.id, 0x1234);
  EXPECT_EQ(response.header.rcode, dns::RCode::NOERROR);
  ASSERT_EQ(response.question.size(), 1u);
  EXPECT_EQ(response.question.front().qname, dns::Name::of(healthy->fqdn));
  EXPECT_FALSE(response.answer.empty());
  stack.network->detach(address);  // the endpoint holds the resolver
}

}  // namespace
