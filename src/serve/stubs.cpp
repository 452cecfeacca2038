#include "serve/stubs.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "crypto/rng.hpp"

namespace ede::serve {

StubTrace generate_stub_trace(const scan::Population& population,
                              const StubOptions& options) {
  StubTrace trace;
  trace.options = options;
  if (population.domains.empty() || options.queries == 0) return trace;

  // Zipf inverse-CDF table: cumulative weight of ranks [0, i].
  const std::size_t n = population.domains.size();
  std::vector<double> cumulative(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
    cumulative[i] = total;
  }

  crypto::Xoshiro256 rng(options.seed);
  // Popularity must be independent of population order (the generator
  // places misconfigured categories first and healthy filler last, and a
  // front end's hot names are not disproportionately the broken ones):
  // a seeded Fisher-Yates permutation maps Zipf rank -> domain index.
  std::vector<std::uint32_t> rank_to_domain(n);
  for (std::size_t i = 0; i < n; ++i)
    rank_to_domain[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = n - 1; i > 0; --i)
    std::swap(rank_to_domain[i],
              rank_to_domain[rng.below(static_cast<std::uint64_t>(i) + 1)]);
  const auto sample_rank = [&]() -> std::size_t {
    const double u = rng.uniform() * total;
    const auto it = std::lower_bound(cumulative.begin(), cumulative.end(), u);
    return static_cast<std::size_t>(it - cumulative.begin());
  };

  trace.queries.reserve(
      std::size_t{options.queries} * (1 + kMaxRetries));
  std::uint32_t next_id = 0;
  for (std::uint32_t q = 0; q < options.queries; ++q) {
    StubQuery query;
    query.arrival_ms = rng.below(std::max<sim::SimTimeMs>(
        1, options.duration_ms));
    query.id = next_id++;
    query.client = static_cast<std::uint32_t>(
        rng.below(std::max<std::uint32_t>(1, options.clients)));
    const auto& domain = population.domains[rank_to_domain[sample_rank()]];
    query.typo = rng.uniform() < options.nxdomain_fraction;
    if (query.typo) {
      // A small typo alphabet per zone: distinct missing labels under the
      // same (Zipf-hot) zone, so one validated denial proof covers many
      // later typos — the RFC 8198 payoff the benchmark measures.
      const auto label = "nx" + std::to_string(rng.below(64));
      query.qname = dns::Name::of(domain.fqdn).prefixed(label).take();
    } else {
      query.qname = dns::Name::of(domain.fqdn);
    }
    const std::uint32_t primary_id = query.id;
    trace.queries.push_back(query);
    // Potential retransmits: emitted unconditionally into the trace,
    // suppressed at serve time if the original had been answered by then.
    for (std::uint32_t r = 1; r <= kMaxRetries; ++r) {
      StubQuery retry = query;
      retry.arrival_ms =
          query.arrival_ms + sim::SimTimeMs{kRetryTimeoutMs} * r;
      retry.id = next_id++;
      retry.retry_of = primary_id;
      trace.queries.push_back(std::move(retry));
    }
  }
  trace.id_count = next_id;

  std::sort(trace.queries.begin(), trace.queries.end(),
            [](const StubQuery& a, const StubQuery& b) {
              if (a.arrival_ms != b.arrival_ms)
                return a.arrival_ms < b.arrival_ms;
              return a.id < b.id;
            });
  return trace;
}

}  // namespace ede::serve
