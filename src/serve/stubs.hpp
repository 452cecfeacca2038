// Synthetic stub-client population for the frontline serving engine
// (DESIGN.md §5h): Zipf query popularity over the scan world's registered
// domains, per-client retransmit behavior, deterministic per seed.
//
// The model follows hello-dns resolver.md's sizing note — "individual CPU
// cores expected to satisfy the DNS needs of hundreds of thousands of
// users" — by making the client count a free parameter that only costs
// one uint32 per query, while query volume and popularity skew are
// controlled independently.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "dnscore/name.hpp"
#include "dnscore/types.hpp"
#include "scan/population.hpp"
#include "simnet/clock.hpp"

namespace ede::serve {

/// Zipf popularity exponent over the domain population, most-popular
/// first (1.0 is the classic web-traffic fit).
inline constexpr double kZipfExponent = 1.0;
/// Per-client retransmit timer and cap: a stub that has not heard back
/// after this long asks again (RFC 1035 §4.2.1 client behavior).
inline constexpr std::uint32_t kRetryTimeoutMs = 3'000;
inline constexpr std::uint32_t kMaxRetries = 1;

struct StubOptions {
  /// Modeled stub clients behind this resolver (hundreds of thousands per
  /// core is the production shape; each costs one id per query).
  std::uint32_t clients = 100'000;
  /// Primary queries in the trace (retransmits come on top).
  std::uint32_t queries = 120'000;
  /// Virtual-time span the arrivals are spread over.
  sim::SimTimeMs duration_ms = 1'500'000;
  /// Fraction of queries aimed at nonexistent labels under an existing
  /// (Zipf-sampled) domain — the typo traffic RFC 8198 aggressive
  /// negative caching feeds on.
  double nxdomain_fraction = 0.10;
  std::uint64_t seed = 42;
};

constexpr std::uint32_t kNoRetry = std::numeric_limits<std::uint32_t>::max();

struct StubQuery {
  /// Arrival offset from the trace start.
  sim::SimTimeMs arrival_ms = 0;
  /// Stable id (pre-sort emission order); retransmits reference it.
  std::uint32_t id = 0;
  std::uint32_t client = 0;
  dns::Name qname;
  dns::RRType qtype = dns::RRType::A;
  /// True for synthesized-typo queries (expected NXDOMAIN).
  bool typo = false;
  /// kNoRetry for primaries; the original's `id` for retransmits. A
  /// retransmit is only *live* if the original was still unanswered at
  /// this arrival time — the front end decides that, because answer
  /// latency is an output of serving, not of trace generation.
  std::uint32_t retry_of = kNoRetry;
};

struct StubTrace {
  StubOptions options;
  /// Sorted by (arrival_ms, id): the order the front end serves them.
  std::vector<StubQuery> queries;
  /// Highest id + 1 (ids are dense; size for an id-indexed table).
  std::uint32_t id_count = 0;
};

/// Deterministically generate a trace over `population`'s domains.
/// Popularity rank maps to domain index through a seeded permutation, so
/// hotness is independent of the generator's category placement order.
[[nodiscard]] StubTrace generate_stub_trace(const scan::Population& population,
                                            const StubOptions& options);

}  // namespace ede::serve
