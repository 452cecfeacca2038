// Sharded parallel scan engine (the ZDNS-shaped fan-out): partition the
// population into N contiguous shards, run each shard on its own worker
// thread with a fully isolated resolver stack — its own sim::Network
// (seeded base_seed ^ shard_id), ScanWorld and RecursiveResolver — and
// merge the associative per-shard aggregates at the end.
//
// Isolation is the whole design: workers share nothing mutable (the
// Population is read-only), so there are no locks on the hot path and the
// aggregate per-code / per-category counts are identical for any shard
// count. Only transport- and cache-load counters (upstream queries,
// packets, holddowns) vary with N, because each worker warms its own
// caches up the hierarchy.
#pragma once

#include <optional>

#include "resolver/profile.hpp"
#include "scan/scanner.hpp"

namespace ede::scan {

/// One worker's slice of the population plus its derived transport seed.
struct ShardPlan {
  std::size_t shard_id = 0;
  std::size_t begin = 0;  // first population index (inclusive)
  std::size_t end = 0;    // one past the last population index
  std::uint64_t seed = 0;
};

struct ParallelScanOptions {
  /// Worker count; 0 means hardware_concurrency (min 1). Clamped to the
  /// population size so no worker is born idle.
  std::size_t shards = 0;
  /// Shard i's sim::Network is seeded base_seed ^ i, so any shard's
  /// transport stream is reproducible independently of the others.
  std::uint64_t base_seed = sim::LatencyModel{}.seed;
  Scanner::Options scanner;
  resolver::ResolverOptions resolver;
  /// Optional latency model installed on every shard's network (the seed
  /// is overridden with the shard's derived seed so jitter streams stay
  /// independently reproducible, like the transport RNG). With latency on
  /// a serial scan waits out every RTT and retry timer on the simulated
  /// clock; scanner.inflight overlaps those waits on one worker.
  std::optional<sim::LatencyModel> latency;
};

struct ShardOutcome {
  std::size_t shard_id = 0;
  std::size_t first_domain = 0;
  std::size_t domain_count = 0;  // population slots covered
  ScanResult result;
};

struct ParallelScanResult {
  /// All shards folded together in population order (see ScanResult::merge).
  ScanResult merged;
  std::vector<ShardOutcome> shards;
  /// True end-to-end elapsed time of the parallel run, including per-shard
  /// world construction. merged.wall_seconds is the *sum* of shard scan
  /// times (the sequential-equivalent cost); this is what actually passed.
  double wall_seconds = 0.0;

  [[nodiscard]] double merged_qps() const {
    return wall_seconds > 0
               ? static_cast<double>(merged.total_domains) / wall_seconds
               : 0.0;
  }
};

/// hardware_concurrency, floored at 1 (the standard permits returning 0).
[[nodiscard]] std::size_t default_shard_count();

/// Contiguous even partition of [0, domains) into `shards` slices (0 =
/// default_shard_count), with derived per-shard seeds. Exposed for tests.
[[nodiscard]] std::vector<ShardPlan> plan_shards(std::size_t domains,
                                                 std::size_t shards,
                                                 std::uint64_t base_seed);

/// Run the scan across worker threads as described above. A single-shard
/// plan runs inline on the calling thread. Worker failures are collected
/// and rethrown as std::runtime_error after all threads joined.
[[nodiscard]] ParallelScanResult run_parallel_scan(
    const Population& population, const resolver::ResolverProfile& profile,
    ParallelScanOptions options = {});

}  // namespace ede::scan
