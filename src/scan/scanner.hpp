// Bulk scanner (the zdns stand-in): issues one A query per registered
// domain through a recursive resolver, collects RCODE + EDE codes, and
// aggregates everything the paper's §4 reports — per-code domain counts,
// per-TLD concentration (Figure 1) and the Tranco-rank spread (Figure 2).
//
// A scan can cover the whole population or a contiguous [begin, end)
// shard of it; ScanResult::merge recombines shard results so an N-shard
// scan (see scan/parallel.hpp) aggregates identically to a sequential one.
#pragma once

#include <chrono>
#include <map>

#include "dnscore/counters.hpp"
#include "resolver/cache.hpp"
#include "resolver/resolver.hpp"
#include "scan/world.hpp"

namespace ede::scan {

struct CodeStats {
  std::size_t domains = 0;
  std::vector<std::string> sample_extra_text;  // up to a handful
};

struct TldOutcome {
  std::size_t scanned = 0;
  std::size_t with_ede = 0;
};

struct RankedDomain {
  std::uint32_t rank = 0;
  bool noerror = false;
};

/// What the adversarial transport saw during the scan (deltas over the
/// network's counters, so scans sharing a Network don't double-count).
struct TransportStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t unreachable = 0;
  std::uint64_t holddown_skips = 0;  // probes the infra cache avoided
  std::uint64_t holddowns_started = 0;
  /// Servers the infra cache branded plain-DNS-only (RFC 6891 fallback
  /// verdicts learned during the scan; a delta like the holddown pair).
  std::uint64_t edns_broken_learned = 0;

  /// Fold another shard's deltas in (plain sums).
  void merge(const TransportStats& other) { obs::merge(*this, other); }

  static constexpr std::array<obs::Row<TransportStats>, 7> kCounters{{
      {"packets_sent", &TransportStats::packets_sent},
      {"retransmits", &TransportStats::retransmits},
      {"timeouts", &TransportStats::timeouts},
      {"unreachable", &TransportStats::unreachable},
      {"holddown_skips", &TransportStats::holddown_skips},
      {"holddowns_started", &TransportStats::holddowns_started},
      {"edns_broken_learned", &TransportStats::edns_broken_learned},
  }};
};
static_assert(obs::covers_every_member<TransportStats>());

struct ScanResult {
  std::size_t total_domains = 0;
  std::size_t domains_with_ede = 0;
  std::size_t noerror_with_ede = 0;
  std::size_t servfail_domains = 0;
  std::size_t lame_union = 0;  // domains triggering EDE 22 and/or 23
  std::map<std::uint16_t, CodeStats> per_code;
  std::vector<TldOutcome> per_tld;        // parallel to population.tlds
  std::vector<RankedDomain> tranco_hits;  // EDE-triggering ranked domains
  std::map<Category, std::map<std::uint16_t, std::size_t>>
      codes_by_category;  // diagnostic cross-tab
  std::uint64_t upstream_queries = 0;
  TransportStats transport;
  /// What the record cache did during the scan — deltas over the cache's
  /// own counters, so the type is the cache's Stats itself rather than a
  /// field-for-field clone (they drifted apart once already).
  resolver::Cache::Stats record_cache;
  /// What the Byzantine-hardening pipeline did during the scan (deltas
  /// over the resolver's counters, like TransportStats). On the fault-free
  /// scan world the gate/scrub counters stay zero — asserted by tests and
  /// the perf smoke gate — while coalescing/SERVFAIL-cache counters are
  /// per-domain deterministic and therefore shard-count-invariant.
  resolver::HardeningStats hardening;
  /// Host elapsed time — nondeterministic, for bench reporting only.
  double wall_seconds = 0.0;
  /// Simulated-clock elapsed time — deterministic under the sim network
  /// (zero with the latency model off); what reproducibility tests use.
  /// It is the batch makespan, which is the serial sum only at inflight 1.
  double sim_seconds = 0.0;
  /// High-water mark of concurrently in-flight resolutions (1 at
  /// inflight 1). A load observation like wall_seconds — merge takes the
  /// max, and it is excluded from shard/inflight-equivalence comparisons.
  std::size_t max_in_flight = 0;

  /// Fold `other` into this result. Associative, and for contiguous
  /// shards merged in population order the aggregate is identical to a
  /// single sequential scan (ordered fields — extra-text samples and
  /// tranco_hits — concatenate in shard order, which *is* scan order).
  /// wall/sim times accumulate; real end-to-end elapsed time of a
  /// parallel run lives in ParallelScanResult::wall_seconds.
  void merge(const ScanResult& other);

  [[nodiscard]] double queries_per_second() const {
    return wall_seconds > 0 ? static_cast<double>(total_domains) / wall_seconds
                            : 0.0;
  }
};

class Scanner {
 public:
  struct Options {
    /// Resolutions multiplexed over the resolver's event scheduler: the
    /// shard is one RecursiveResolver::resolve_many batch, so every
    /// resolution's timeline is rebased to the batch epoch and sees only
    /// what earlier batches learned plus its own writes. 1 is the serial
    /// baseline, and aggregates are invariant in N at a fixed seed
    /// (outcomes fold in population order either way); only sim_seconds
    /// (makespan vs serial sum) and max_in_flight change. Clamped to >= 1.
    std::size_t inflight = 1;
  };

  explicit Scanner(Options options) : options_(options) {
    if (options_.inflight == 0) options_.inflight = 1;
  }
  Scanner() : Scanner(Options{}) {}

  [[nodiscard]] ScanResult run(resolver::RecursiveResolver& resolver,
                               const Population& population) const {
    return run(resolver, population, 0, population.domains.size());
  }

  /// Scan the contiguous shard [begin, end) of the population.
  [[nodiscard]] ScanResult run(resolver::RecursiveResolver& resolver,
                               const Population& population,
                               std::size_t begin, std::size_t end) const;

 private:
  Options options_;
};

/// A CDF over values in [0,1] (or ranks), as (x, fraction<=x) points.
[[nodiscard]] std::vector<std::pair<double, double>> make_cdf(
    std::vector<double> values);

}  // namespace ede::scan
