// Sharded parallel-scan tests: the merge invariant (an N-shard scan
// aggregates byte-identically to the sequential scan), merge
// associativity, shard planning, per-shard seed derivation and the
// inflight-zero clamp. This suite is also what the TSan verify stage
// runs to prove the workers share nothing mutable.
#include <gtest/gtest.h>

#include "scan/parallel.hpp"
#include "scan/report.hpp"
#include "scan/world.hpp"

namespace {

using namespace ede;
using namespace ede::scan;

PopulationConfig tiny_config() {
  PopulationConfig config;
  config.total_domains = 2500;
  config.seed = 7;
  return config;
}

/// Field-by-field equality of everything the paper's figures are built
/// from. Deliberately *excludes* wall/sim times and the transport and
/// upstream-query counters: those measure per-worker cache warm-up, which
/// legitimately varies with the shard count.
void expect_same_aggregates(const ScanResult& a, const ScanResult& b) {
  EXPECT_EQ(a.total_domains, b.total_domains);
  EXPECT_EQ(a.domains_with_ede, b.domains_with_ede);
  EXPECT_EQ(a.noerror_with_ede, b.noerror_with_ede);
  EXPECT_EQ(a.servfail_domains, b.servfail_domains);
  EXPECT_EQ(a.lame_union, b.lame_union);

  ASSERT_EQ(a.per_code.size(), b.per_code.size());
  for (const auto& [code, stats] : a.per_code) {
    ASSERT_TRUE(b.per_code.count(code)) << "code " << code;
    EXPECT_EQ(stats.domains, b.per_code.at(code).domains) << "code " << code;
    EXPECT_EQ(stats.sample_extra_text, b.per_code.at(code).sample_extra_text)
        << "code " << code;
  }

  ASSERT_EQ(a.per_tld.size(), b.per_tld.size());
  for (std::size_t i = 0; i < a.per_tld.size(); ++i) {
    EXPECT_EQ(a.per_tld[i].scanned, b.per_tld[i].scanned) << "tld " << i;
    EXPECT_EQ(a.per_tld[i].with_ede, b.per_tld[i].with_ede) << "tld " << i;
  }

  ASSERT_EQ(a.tranco_hits.size(), b.tranco_hits.size());
  for (std::size_t i = 0; i < a.tranco_hits.size(); ++i) {
    EXPECT_EQ(a.tranco_hits[i].rank, b.tranco_hits[i].rank);
    EXPECT_EQ(a.tranco_hits[i].noerror, b.tranco_hits[i].noerror);
  }

  ASSERT_EQ(a.codes_by_category.size(), b.codes_by_category.size());
  for (const auto& [category, codes] : a.codes_by_category) {
    ASSERT_TRUE(b.codes_by_category.count(category));
    EXPECT_EQ(codes, b.codes_by_category.at(category));
  }

  // The hardening pipeline's deterministic counters are per-domain facts
  // (the scan world's misbehaviors are scripted per server, not random),
  // so like the classification they must be shard-count-invariant. Only
  // transport-timing-dependent counters (QID/oversize rejections under a
  // corrupting fault) are excluded, mirroring the transport stats above.
  EXPECT_EQ(a.hardening.rejected_question_mismatch,
            b.hardening.rejected_question_mismatch);
  EXPECT_EQ(a.hardening.scrubbed_records, b.hardening.scrubbed_records);
  EXPECT_EQ(a.hardening.coalesced_queries, b.hardening.coalesced_queries);
  EXPECT_EQ(a.hardening.servfail_cache_hits, b.hardening.servfail_cache_hits);
  EXPECT_EQ(a.hardening.watchdog_trips, b.hardening.watchdog_trips);
  // The RFC 6891 signal-driven counters (FORMERR/BADVERS/garble seen)
  // are per-response facts of scripted servers, shard-count-invariant
  // like the gate counters above. The capability-memory counters
  // (verdicts learned, dances skipped) are deliberately NOT compared:
  // like the transport stats, they measure per-worker InfraCache warm-up
  // — every shard re-learns the timeout pools for itself.
  EXPECT_EQ(a.hardening.edns_formerr_seen, b.hardening.edns_formerr_seen);
  EXPECT_EQ(a.hardening.edns_badvers_seen, b.hardening.edns_badvers_seen);
  EXPECT_EQ(a.hardening.edns_garbled_opt, b.hardening.edns_garbled_opt);
}

/// Scan [begin, end) with a freshly built isolated stack — what one
/// parallel worker does, minus the thread.
ScanResult scan_range(const Population& population, std::size_t begin,
                      std::size_t end, std::uint64_t seed) {
  auto network = std::make_shared<sim::Network>(
      std::make_shared<sim::Clock>(), seed);
  ScanWorld world(network, population);
  auto resolver = world.make_resolver(resolver::profile_cloudflare());
  world.prewarm(resolver, begin, end);
  return Scanner{}.run(resolver, population, begin, end);
}

TEST(PlanShards, ContiguousCoverWithDerivedSeeds) {
  const auto plans = plan_shards(1000, 3, 0xabcd);
  ASSERT_EQ(plans.size(), 3u);
  EXPECT_EQ(plans.front().begin, 0u);
  EXPECT_EQ(plans.back().end, 1000u);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    EXPECT_EQ(plans[i].shard_id, i);
    EXPECT_EQ(plans[i].seed, 0xabcd ^ static_cast<std::uint64_t>(i));
    if (i > 0) {
      EXPECT_EQ(plans[i].begin, plans[i - 1].end);
    }
    EXPECT_LE(plans[i].begin, plans[i].end);
  }
}

TEST(PlanShards, ClampsToThePopulationAndFloorsAtOne) {
  EXPECT_EQ(plan_shards(5, 64, 1).size(), 5u);
  EXPECT_EQ(plan_shards(0, 8, 1).size(), 1u);
  EXPECT_GE(plan_shards(100, 0, 1).size(), 1u);  // 0 = hardware default
  EXPECT_GE(default_shard_count(), 1u);
}

TEST(ScanMerge, TwoHalvesMergeToTheSequentialScan) {
  const auto population = generate_population(tiny_config());
  const auto sequential =
      scan_range(population, 0, population.domains.size(), 0x1ede);

  const std::size_t mid = population.domains.size() / 2;
  ScanResult merged = scan_range(population, 0, mid, 0x1ede);
  merged.merge(scan_range(population, mid, population.domains.size(),
                          0x1ede ^ 1));
  expect_same_aggregates(merged, sequential);
}

TEST(ScanMerge, IsAssociative) {
  const auto population = generate_population(tiny_config());
  const std::size_t n = population.domains.size();
  const auto a = scan_range(population, 0, n / 3, 1);
  const auto b = scan_range(population, n / 3, 2 * n / 3, 2);
  const auto c = scan_range(population, 2 * n / 3, n, 3);

  ScanResult left = a;  // (a + b) + c
  left.merge(b);
  left.merge(c);
  ScanResult bc = b;  // a + (b + c)
  bc.merge(c);
  ScanResult right = a;
  right.merge(bc);
  expect_same_aggregates(left, right);
}

TEST(ParallelScan, ShardCountDoesNotChangeTheAggregates) {
  const auto population = generate_population(tiny_config());
  const auto profile = resolver::profile_cloudflare();

  ParallelScanOptions options;
  options.shards = 1;
  const auto one = run_parallel_scan(population, profile, options);
  options.shards = 2;
  const auto two = run_parallel_scan(population, profile, options);
  options.shards = 8;
  const auto eight = run_parallel_scan(population, profile, options);

  ASSERT_EQ(one.shards.size(), 1u);
  ASSERT_EQ(two.shards.size(), 2u);
  ASSERT_EQ(eight.shards.size(), 8u);
  expect_same_aggregates(two.merged, one.merged);
  expect_same_aggregates(eight.merged, one.merged);

  // The invariant the paper's tables hang off, stated explicitly.
  EXPECT_EQ(eight.merged.lame_union, one.merged.lame_union);
  EXPECT_EQ(eight.merged.total_domains, population.domains.size());
}

// The fixed-seed inflight-equivalence contract: routing the scan through
// the async engine must not change anything the paper's figures are
// built from, whatever the admission window. Within the engine family
// every resolution's timeline is rebased to the batch epoch, so window 1
// (pure serial chaining) and a window wider than the whole shard see
// identical per-domain worlds; only load counters (cache/holddown hit
// rates, sim makespan, the in-flight high-water mark) may move.
TEST(ParallelScan, InflightWindowDoesNotChangeTheAggregates) {
  const auto population = generate_population(tiny_config());
  const auto profile = resolver::profile_cloudflare();

  for (const bool with_latency : {false, true}) {
    ParallelScanOptions options;
    options.shards = 1;
    if (with_latency) {
      sim::LatencyModel latency;
      latency.enabled = true;
      options.latency = latency;
    }
    options.scanner.inflight = 1;
    const auto serial = run_parallel_scan(population, profile, options);
    options.scanner.inflight = 4096;
    const auto wide = run_parallel_scan(population, profile, options);

    expect_same_aggregates(serial.merged, wide.merged);
    EXPECT_EQ(serial.merged.max_in_flight, 1u);
    EXPECT_GT(wide.merged.max_in_flight, 1u);
    if (with_latency) {
      // Overlapped waits shorten the batch; serial pays the full sum.
      EXPECT_GT(serial.merged.sim_seconds, 0.0);
      EXPECT_LT(wide.merged.sim_seconds, serial.merged.sim_seconds);
    } else {
      EXPECT_EQ(serial.merged.sim_seconds, 0.0);
      EXPECT_EQ(wide.merged.sim_seconds, 0.0);
    }
  }
}

// The merged hardening counters are exactly the sum over the shards, and
// the scan world actually exercises the response-acceptance gate: its
// Mangle pool answers with a rewritten question, so the question-mismatch
// counter must be hot — these assertions are not vacuous.
TEST(ParallelScan, HardeningCountersSumAcrossShards) {
  const auto population = generate_population(tiny_config());
  ParallelScanOptions options;
  options.shards = 4;
  const auto scan =
      run_parallel_scan(population, resolver::profile_cloudflare(), options);
  ASSERT_EQ(scan.shards.size(), 4u);

  resolver::HardeningStats sum;
  for (const auto& shard : scan.shards) {
    const auto& h = shard.result.hardening;
    sum.rejected_qid_mismatch += h.rejected_qid_mismatch;
    sum.rejected_question_mismatch += h.rejected_question_mismatch;
    sum.rejected_oversize += h.rejected_oversize;
    sum.scrubbed_records += h.scrubbed_records;
    sum.coalesced_queries += h.coalesced_queries;
    sum.servfail_cache_hits += h.servfail_cache_hits;
    sum.watchdog_trips += h.watchdog_trips;
  }
  const auto& merged = scan.merged.hardening;
  EXPECT_EQ(merged.rejected_qid_mismatch, sum.rejected_qid_mismatch);
  EXPECT_EQ(merged.rejected_question_mismatch,
            sum.rejected_question_mismatch);
  EXPECT_EQ(merged.rejected_oversize, sum.rejected_oversize);
  EXPECT_EQ(merged.scrubbed_records, sum.scrubbed_records);
  EXPECT_EQ(merged.coalesced_queries, sum.coalesced_queries);
  EXPECT_EQ(merged.servfail_cache_hits, sum.servfail_cache_hits);
  EXPECT_EQ(merged.watchdog_trips, sum.watchdog_trips);

  // The gate sees real hostile traffic (mangled questions) on this world;
  // the spoof-shaped rejections stay zero on its fault-free transport.
  EXPECT_GT(merged.rejected_question_mismatch, 0u);
  EXPECT_GT(merged.servfail_cache_hits, 0u);
  EXPECT_EQ(merged.rejected_qid_mismatch, 0u);
  EXPECT_EQ(merged.rejected_oversize, 0u);

  // The scan world's authorities answer EDNS compliantly (the paper's
  // categories model lameness and DNSSEC breakage, not RFC 6891 abuse),
  // so the signal-driven dance never fires — the clean-path guarantee the
  // perf gate leans on. The *timeout* pools, though, teach this t=2
  // profile plain-only verdicts at server abandonment, exactly like a
  // real Unbound facing a dead nameserver — so the capability memory is
  // demonstrably hot on the paper's own population, and its counters sum
  // exactly across shards.
  EXPECT_EQ(merged.edns_fallback_probes, 0u);
  EXPECT_EQ(merged.edns_degraded_success, 0u);
  EXPECT_EQ(merged.edns_formerr_seen, 0u);
  EXPECT_EQ(merged.edns_badvers_seen, 0u);
  EXPECT_EQ(merged.edns_garbled_opt, 0u);
  EXPECT_GT(scan.merged.transport.edns_broken_learned, 0u);
  std::uint64_t skips = 0;
  std::uint64_t learned = 0;
  for (const auto& shard : scan.shards) {
    skips += shard.result.hardening.edns_capability_skips;
    learned += shard.result.transport.edns_broken_learned;
  }
  EXPECT_EQ(merged.edns_capability_skips, skips);
  EXPECT_EQ(scan.merged.transport.edns_broken_learned, learned);
}

// The merge arithmetic for the EDNS capability stats, independent of any
// world: counters learned on different shards sum exactly, associatively,
// and in any grouping — the shard-invariance contract for the compliance
// breakdown the report renders.
TEST(ScanMerge, EdnsCapabilityStatsSumShardInvariantly) {
  const auto shard = [](std::uint64_t scale) {
    ScanResult r;
    r.total_domains = scale;
    r.hardening.edns_formerr_seen = 1 * scale;
    r.hardening.edns_badvers_seen = 2 * scale;
    r.hardening.edns_garbled_opt = 3 * scale;
    r.hardening.edns_fallback_probes = 5 * scale;
    r.hardening.edns_degraded_success = 7 * scale;
    r.hardening.edns_capability_skips = 11 * scale;
    r.transport.edns_broken_learned = 13 * scale;
    return r;
  };

  // ((a + b) + c) vs (a + (b + c)).
  ScanResult left = shard(1);
  left.merge(shard(10));
  left.merge(shard(100));
  ScanResult tail = shard(10);
  tail.merge(shard(100));
  ScanResult right = shard(1);
  right.merge(tail);

  for (const auto* r : {&left, &right}) {
    EXPECT_EQ(r->hardening.edns_formerr_seen, 111u);
    EXPECT_EQ(r->hardening.edns_badvers_seen, 222u);
    EXPECT_EQ(r->hardening.edns_garbled_opt, 333u);
    EXPECT_EQ(r->hardening.edns_fallback_probes, 555u);
    EXPECT_EQ(r->hardening.edns_degraded_success, 777u);
    EXPECT_EQ(r->hardening.edns_capability_skips, 1221u);
    EXPECT_EQ(r->transport.edns_broken_learned, 1443u);
  }

  // And the report's compliance breakdown renders them (only when hot).
  const auto population = generate_population(tiny_config());
  const auto rendered = render_section42(left, population);
  EXPECT_NE(rendered.find("edns compliance"), std::string::npos);
  EXPECT_NE(rendered.find("1443 servers learned plain-only"),
            std::string::npos);
  const auto clean = render_section42(ScanResult{}, population);
  EXPECT_EQ(clean.find("edns compliance"), std::string::npos);
}

TEST(ParallelScan, SimClockTimingIsDeterministic) {
  const auto population = generate_population(tiny_config());
  const auto profile = resolver::profile_cloudflare();
  ParallelScanOptions options;
  options.shards = 2;
  const auto first = run_parallel_scan(population, profile, options);
  const auto second = run_parallel_scan(population, profile, options);
  // Host wall time jitters run to run; the simulated clock must not.
  for (std::size_t i = 0; i < first.shards.size(); ++i) {
    EXPECT_DOUBLE_EQ(first.shards[i].result.sim_seconds,
                     second.shards[i].result.sim_seconds);
  }
  EXPECT_DOUBLE_EQ(first.merged.sim_seconds, second.merged.sim_seconds);
}

TEST(ParallelScan, RendersAShardSummary) {
  const auto population = generate_population(tiny_config());
  ParallelScanOptions options;
  options.shards = 2;
  const auto scan =
      run_parallel_scan(population, resolver::profile_cloudflare(), options);
  const auto summary = render_shard_summary(scan);
  EXPECT_NE(summary.find("per-worker throughput"), std::string::npos);
  EXPECT_NE(summary.find("merged"), std::string::npos);
  EXPECT_NE(summary.find("occupancy"), std::string::npos);
}

TEST(ScannerInflight, ZeroInflightIsClampedToOneSerialBatch) {
  auto config = tiny_config();
  config.total_domains = 300;
  const auto population = generate_population(config);
  auto network =
      std::make_shared<sim::Network>(std::make_shared<sim::Clock>());
  ScanWorld world(network, population);
  auto resolver = world.make_resolver(resolver::profile_cloudflare());
  world.prewarm(resolver);

  Scanner::Options options;
  options.inflight = 0;  // clamped to one serial batch
  const auto result = Scanner(options).run(resolver, population);
  EXPECT_EQ(result.total_domains, population.domains.size());
  EXPECT_EQ(result.max_in_flight, 1u);
}

}  // namespace
