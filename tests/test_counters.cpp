// Counter-group tests (DESIGN.md §5l): merge, delta and write_json walk
// each group's kCounters table, so these tests walk the same tables —
// a row added to any group is covered here without touching this file.
// EveryCounterReachesAReport is the check that a counter is not only
// counted but also shown: every row must surface in the scan or the
// serve report.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "dnscore/counters.hpp"
#include "resolver/cache.hpp"
#include "resolver/resolver.hpp"
#include "scan/population.hpp"
#include "scan/report.hpp"
#include "scan/scanner.hpp"
#include "serve/frontend.hpp"
#include "serve/report.hpp"
#include "simnet/byzantine.hpp"

namespace {

using namespace ede;

/// Calls f with a value of every table-backed counter group.
template <typename F>
void for_each_group(F&& f) {
  f(resolver::HardeningStats{});
  f(scan::TransportStats{});
  f(resolver::Cache::Stats{});
  f(serve::ServeStats{});
}

/// Row i holds first + i * step, so rows never share a value and a row
/// read through the wrong member shows up.
template <typename S>
S filled(std::uint64_t first, std::uint64_t step) {
  S stats;
  for (const auto& row : S::kCounters) {
    stats.*row.member = first;
    first += step;
  }
  return stats;
}

TEST(Counters, MergeSumsAndTakesMax) {
  for_each_group([](auto group) {
    using S = decltype(group);
    const S small = filled<S>(100, 1);
    const S large = filled<S>(1'000, 10);
    S small_first = small;
    small_first.merge(large);
    S large_first = large;
    large_first.merge(small);
    for (const auto& row : S::kCounters) {
      const std::uint64_t want = row.fold == obs::Fold::Max
                                     ? large.*row.member
                                     : small.*row.member + large.*row.member;
      EXPECT_EQ(small_first.*row.member, want) << row.key;
      EXPECT_EQ(large_first.*row.member, want) << row.key;
    }
  });

  serve::ServeStats a;
  a.busy_virtual_ms = 30;
  a.longest_wave_ms = 20;
  serve::ServeStats b;
  b.busy_virtual_ms = 12;
  b.longest_wave_ms = 12;
  a.merge(b);
  EXPECT_EQ(a.busy_virtual_ms, 42u);
  EXPECT_EQ(a.longest_wave_ms, 20u);
}

TEST(Counters, DeltaSubtractsEveryRow) {
  const auto check = [](auto group) {
    using S = decltype(group);
    const S before = filled<S>(100, 1);
    const S after = filled<S>(1'000, 10);
    const S step = obs::delta(after, before);
    for (const auto& row : S::kCounters)
      EXPECT_EQ(step.*row.member, after.*row.member - before.*row.member)
          << row.key;
  };
  check(resolver::HardeningStats{});
  check(scan::TransportStats{});
  check(resolver::Cache::Stats{});
}

TEST(Counters, HardeningJsonKeepsTheChaosKeys) {
  // Aggregate initialization fills the members in declaration order,
  // independent of the table.
  const resolver::HardeningStats stats{1,  2,  3,  4,  5,  6,  7,  8,  9,
                                       10, 11, 12, 13, 14, 15, 16, 17, 18};
  std::ostringstream out;
  obs::write_json(out, stats);
  EXPECT_EQ(out.str(),
            "{\"rejected_qid\": 1, \"rejected_question\": 2, "
            "\"rejected_oversize\": 3, \"scrubbed\": 4, \"coalesced\": 5, "
            "\"servfail_hits\": 6, \"watchdog_trips\": 7, \"tc_seen\": 8, "
            "\"tcp_fallbacks\": 9, \"tcp_success\": 10, "
            "\"tcp_connect_failures\": 11, \"tcp_stream_failures\": 12, "
            "\"edns_formerr\": 13, \"edns_badvers\": 14, "
            "\"edns_garbled\": 15, \"edns_probes\": 16, "
            "\"edns_degraded\": 17, \"edns_skips\": 18}");
}

TEST(Counters, EveryCounterReachesAReport) {
  // Distinct 10-digit sentinels: none can hide inside another number.
  std::vector<std::pair<std::string, std::string>> sentinels;  // key, value
  std::uint64_t next = 4'100'000'000;
  const auto fill = [&](auto& stats) {
    for (const auto& row : std::remove_cvref_t<decltype(stats)>::kCounters) {
      stats.*row.member = next;
      sentinels.emplace_back(std::string(row.key), std::to_string(next));
      ++next;
    }
  };

  scan::ScanResult scan_result;
  fill(scan_result.transport);
  fill(scan_result.hardening);
  fill(scan_result.record_cache);
  serve::RunSummary run;
  run.cache = scan_result.record_cache;
  fill(run.stats);
  serve::ServeReportDoc doc;
  doc.runs.push_back(run);

  const std::string reports =
      scan::render_section42(scan_result, scan::Population{}) +
      serve::render_serve_json(doc);
  for (const auto& [key, value] : sentinels)
    EXPECT_NE(reports.find(value), std::string::npos)
        << "counter '" << key << "' reaches no report";
}

TEST(Counters, ScanResultMergeSumsUpstreamQueries) {
  scan::ScanResult a;
  a.upstream_queries = 5;
  scan::ScanResult b;
  b.upstream_queries = 37;
  a.merge(b);
  EXPECT_EQ(a.upstream_queries, 42u);
}

TEST(Counters, ByzantineMergeSumsEverySlot) {
  sim::ByzantineStats a;
  a.exchanges_seen = 3;
  a.mutations_applied = 5;
  sim::ByzantineStats b;
  b.exchanges_seen = 40;
  b.mutations_applied = 70;
  for (std::size_t k = 0; k < sim::kByzantineKindCount; ++k) {
    a.by_kind[k] = k;
    b.by_kind[k] = 100 * k + 1;
  }
  a.merge(b);
  EXPECT_EQ(a.exchanges_seen, 43u);
  EXPECT_EQ(a.mutations_applied, 75u);
  for (std::size_t k = 0; k < sim::kByzantineKindCount; ++k)
    EXPECT_EQ(a.by_kind[k], 101 * k + 1) << "slot " << k;
}

}  // namespace
