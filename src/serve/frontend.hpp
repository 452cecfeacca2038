// Frontline serving engine (DESIGN.md §5h): the piece that turns the
// batch resolver into something a stub population talks to.
//
// Queries arrive on a virtual timeline (StubTrace) and are served in
// fixed-width waves: each wave rebases the shared clock to its epoch,
// optionally runs a prefetch pass (refreshing expiring-and-still-popular
// records before clients can miss on them), dedupes the wave's queries
// into distinct (qname, qtype) resolutions, and drives them through
// RecursiveResolver::resolve_many. Per-query latency is the resolver's
// virtual duration for the backing job — 0 ms for a cache answer — and
// retransmits whose original was answered before they arrived are
// suppressed, exactly as a real front end absorbs them.
#pragma once

#include <cstdint>
#include <vector>

#include "dnscore/counters.hpp"
#include "dnscore/name.hpp"
#include "dnscore/types.hpp"
#include "resolver/resolver.hpp"
#include "serve/sketch.hpp"
#include "serve/stubs.hpp"
#include "simnet/network.hpp"

namespace ede::serve {

struct FrontEndOptions {
  /// resolve_many window per wave (how many resolutions multiplex).
  std::size_t inflight = 256;
  /// Arrival batching granularity; also the serving tick for the
  /// popularity sketch's decay clock.
  sim::SimTimeMs wave_ms = 1'000;
  /// Expiring-popular-name prefetch (the cache-hit-rate optimization).
  bool prefetch = true;
  /// Refresh records expiring within this horizon of the wave epoch.
  static constexpr sim::SimTimeMs prefetch_horizon_ms = 30'000;
};

/// What one stub query got back; indexed like StubTrace::queries.
struct ClientAnswer {
  std::uint32_t client = 0;
  dns::RCode rcode = dns::RCode::SERVFAIL;
  /// Sorted, deduplicated EDE codes attached to the answer.
  std::vector<std::uint16_t> ede;
  sim::SimTimeMs latency_ms = 0;
  /// Retransmit absorbed because the original was answered by its
  /// arrival; carries no rcode/latency of its own.
  bool suppressed = false;
  /// Retransmit that was still live (original unanswered) and got served.
  bool retransmit = false;
  /// Answered in 0 virtual ms — from cache (fresh, stale or synthesized).
  bool from_cache = false;
  /// RFC 8198: answer synthesized from a cached denial proof.
  bool synthesized = false;
  /// RFC 8767: stale data served (EDE 3 / EDE 19 material).
  bool stale = false;
};

struct ServeStats {
  std::uint64_t queries = 0;  // trace entries processed
  std::uint64_t served = 0;   // answered (queries - suppressed)
  std::uint64_t suppressed_retries = 0;
  std::uint64_t live_retransmits = 0;
  /// Duplicate (qname, qtype) within a wave folded into one resolution.
  std::uint64_t coalesced = 0;
  std::uint64_t cache_answered = 0;  // served in 0 virtual ms
  std::uint64_t synthesized_answers = 0;
  std::uint64_t stale_answers = 0;
  std::uint64_t stale_nxdomains = 0;
  /// Upstream queries spent on client-facing resolutions vs. on the
  /// prefetcher's refreshes (the prefetcher pays to move hits up).
  std::uint64_t upstream_queries = 0;
  std::uint64_t prefetch_upstream_queries = 0;
  std::uint64_t prefetch_jobs = 0;
  std::uint64_t waves = 0;
  /// Sum of wave makespans: virtual time the engine spent resolving.
  sim::SimTimeMs busy_virtual_ms = 0;
  sim::SimTimeMs longest_wave_ms = 0;

  /// Fold another run's stats in — counters sum, the wave high-water
  /// mark takes the max (the report's all-runs totals line uses this).
  void merge(const ServeStats& other) { obs::merge(*this, other); }

  /// Keys are the serve report's JSON names.
  static constexpr std::array<obs::Row<ServeStats>, 15> kCounters{{
      {"queries", &ServeStats::queries},
      {"served", &ServeStats::served},
      {"suppressed_retries", &ServeStats::suppressed_retries},
      {"live_retransmits", &ServeStats::live_retransmits},
      {"coalesced", &ServeStats::coalesced},
      {"cache_answered", &ServeStats::cache_answered},
      {"synthesized_answers", &ServeStats::synthesized_answers},
      {"stale_answers", &ServeStats::stale_answers},
      {"stale_nxdomains", &ServeStats::stale_nxdomains},
      {"upstream_queries", &ServeStats::upstream_queries},
      {"prefetch_upstream_queries", &ServeStats::prefetch_upstream_queries},
      {"prefetch_jobs", &ServeStats::prefetch_jobs},
      {"waves", &ServeStats::waves},
      {"busy_virtual_ms", &ServeStats::busy_virtual_ms},
      {"longest_wave_ms", &ServeStats::longest_wave_ms, obs::Fold::Max},
  }};
};
static_assert(obs::covers_every_member<ServeStats>());

/// The prefetch pass's pick (DESIGN.md §5h): the expiring keys whose
/// sketch estimate reaches `min_popularity`, most popular first, ties in
/// canonical key order, at most `limit` of them, as refresh jobs.
[[nodiscard]] std::vector<resolver::ResolveJob> rank_prefetch(
    const std::vector<resolver::CacheKey>& expiring,
    const PopularitySketch& sketch, std::uint32_t min_popularity,
    std::size_t limit);

class FrontEnd {
 public:
  FrontEnd(resolver::RecursiveResolver& resolver, sim::Network& network,
           FrontEndOptions options = {});

  /// Serve a whole trace in arrival order; returns per-query answers
  /// indexed like trace.queries. The shared clock ends at the last wave
  /// boundary. Deterministic for a fixed (trace, options, world) — and
  /// per-client rcode/EDE outcomes are invariant under `inflight`.
  std::vector<ClientAnswer> serve(const StubTrace& trace);

  [[nodiscard]] const ServeStats& stats() const { return stats_; }
  [[nodiscard]] const FrontEndOptions& options() const { return options_; }
  [[nodiscard]] PopularitySketch& sketch() { return sketch_; }

 private:
  void run_prefetch(sim::SimTimeMs epoch);

  resolver::RecursiveResolver& resolver_;
  sim::Network& network_;
  FrontEndOptions options_;
  PopularitySketch sketch_;
  ServeStats stats_;
};

}  // namespace ede::serve
