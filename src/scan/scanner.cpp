#include "scan/scanner.hpp"

#include <algorithm>
#include <map>

#include "dnscore/counters.hpp"
#include "edns/ede.hpp"
#include "resolver/resolver.hpp"

namespace ede::scan {

namespace {

/// EXTRA-TEXT samples kept per code. Merge re-applies the cap, so merged
/// shards keep the samples a sequential scan would.
constexpr std::size_t kMaxExtraTextSamples = 3;

}  // namespace

void ScanResult::merge(const ScanResult& other) {
  total_domains += other.total_domains;
  domains_with_ede += other.domains_with_ede;
  noerror_with_ede += other.noerror_with_ede;
  servfail_domains += other.servfail_domains;
  lame_union += other.lame_union;

  for (const auto& [code, stats] : other.per_code) {
    auto& mine = per_code[code];
    mine.domains += stats.domains;
    for (const auto& text : stats.sample_extra_text) {
      if (mine.sample_extra_text.size() >= kMaxExtraTextSamples) break;
      mine.sample_extra_text.push_back(text);
    }
  }

  if (per_tld.size() < other.per_tld.size())
    per_tld.resize(other.per_tld.size());
  for (std::size_t i = 0; i < other.per_tld.size(); ++i) {
    per_tld[i].scanned += other.per_tld[i].scanned;
    per_tld[i].with_ede += other.per_tld[i].with_ede;
  }

  tranco_hits.insert(tranco_hits.end(), other.tranco_hits.begin(),
                     other.tranco_hits.end());

  for (const auto& [category, codes] : other.codes_by_category) {
    auto& mine = codes_by_category[category];
    for (const auto& [code, count] : codes) mine[code] += count;
  }

  upstream_queries += other.upstream_queries;
  transport.merge(other.transport);
  hardening.merge(other.hardening);
  record_cache.merge(other.record_cache);
  wall_seconds += other.wall_seconds;
  sim_seconds += other.sim_seconds;
  max_in_flight = std::max(max_in_flight, other.max_in_flight);
}

ScanResult Scanner::run(resolver::RecursiveResolver& resolver,
                        const Population& population, std::size_t begin,
                        std::size_t end) const {
  ScanResult result;
  result.per_tld.resize(population.tlds.size());
  end = std::min(end, population.domains.size());

  const auto net_before = resolver.network().stats();
  const auto infra_before = resolver.infra().stats();
  const auto cache_before = resolver.cache().stats();
  const auto hardening_before = resolver.hardening_stats();
  const auto sim_before = resolver.network().clock().now_ms();
  const auto start = std::chrono::steady_clock::now();

  // Per-domain aggregation. Folding happens in population (index) order —
  // that order decides which extra-text samples survive the per-code cap
  // and the tranco_hits sequence, so it must not depend on completion
  // order.
  const auto fold = [&](const DomainSpec& domain, dns::RCode rcode,
                        const std::vector<edns::ExtendedError>& errors,
                        int upstream_queries) {
    ++result.total_domains;
    result.upstream_queries += static_cast<std::uint64_t>(upstream_queries);
    result.per_tld[domain.tld].scanned += 1;

    if (rcode == dns::RCode::SERVFAIL) ++result.servfail_domains;
    if (errors.empty()) return;

    ++result.domains_with_ede;
    result.per_tld[domain.tld].with_ede += 1;
    if (rcode == dns::RCode::NOERROR) ++result.noerror_with_ede;

    bool lame = false;
    for (const auto& error : errors) {
      const auto code = static_cast<std::uint16_t>(error.code);
      auto& stats = result.per_code[code];
      stats.domains += 1;
      if (!error.extra_text.empty() &&
          stats.sample_extra_text.size() < kMaxExtraTextSamples) {
        stats.sample_extra_text.push_back(error.extra_text);
      }
      result.codes_by_category[domain.category][code] += 1;
      if (code == 22 || code == 23) lame = true;
    }
    if (lame) ++result.lame_union;

    if (domain.tranco_rank != 0) {
      result.tranco_hits.push_back(
          {domain.tranco_rank, rcode == dns::RCode::NOERROR});
    }
  };

  // Queue every domain of this shard and let resolve_many multiplex up to
  // `inflight` of them over one scheduler. Outcomes arrive in completion
  // order, so each waits in `pending` until every earlier domain has
  // folded, holding only what fold needs (the full Outcome carries
  // response messages and traces).
  struct LiteOutcome {
    dns::RCode rcode = dns::RCode::SERVFAIL;
    std::vector<edns::ExtendedError> errors;
    int upstream_queries = 0;
  };
  std::vector<resolver::ResolveJob> jobs;
  if (begin < end) jobs.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    jobs.push_back({dns::Name::of(population.domains[i].fqdn),
                    dns::RRType::A});
  }
  std::map<std::size_t, LiteOutcome> pending;
  std::size_t next_fold = 0;
  const auto engine = resolver.resolve_many(
      jobs, options_.inflight,
      [&](std::size_t job, resolver::Outcome&& outcome) {
        pending.emplace(job, LiteOutcome{outcome.rcode,
                                         std::move(outcome.errors),
                                         outcome.upstream_queries});
        for (auto it = pending.begin();
             it != pending.end() && it->first == next_fold;
             it = pending.erase(it), ++next_fold) {
          fold(population.domains[begin + next_fold], it->second.rcode,
               it->second.errors, it->second.upstream_queries);
        }
      });
  result.max_in_flight = engine.max_in_flight;
  const auto end_time = std::chrono::steady_clock::now();
  result.wall_seconds =
      std::chrono::duration<double>(end_time - start).count();
  result.sim_seconds =
      static_cast<double>(resolver.network().clock().now_ms() - sim_before) /
      1000.0;

  const auto& net_after = resolver.network().stats();
  const auto& infra_after = resolver.infra().stats();
  result.transport.packets_sent =
      net_after.packets_sent - net_before.packets_sent;
  result.transport.retransmits = net_after.retransmits - net_before.retransmits;
  result.transport.timeouts =
      net_after.packets_timeout - net_before.packets_timeout;
  result.transport.unreachable =
      net_after.packets_unreachable - net_before.packets_unreachable;
  result.transport.holddown_skips =
      infra_after.holddown_skips - infra_before.holddown_skips;
  result.transport.holddowns_started =
      infra_after.holddowns_started - infra_before.holddowns_started;
  result.transport.edns_broken_learned =
      infra_after.edns_broken_learned - infra_before.edns_broken_learned;
  result.hardening = obs::delta(resolver.hardening_stats(), hardening_before);
  result.record_cache = obs::delta(resolver.cache().stats(), cache_before);
  return result;
}

std::vector<std::pair<double, double>> make_cdf(std::vector<double> values) {
  std::vector<std::pair<double, double>> cdf;
  if (values.empty()) return cdf;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    // Collapse runs of equal values into their final (highest) CDF point.
    if (i + 1 < values.size() && values[i + 1] == values[i]) continue;
    cdf.emplace_back(values[i], static_cast<double>(i + 1) / n);
  }
  return cdf;
}

}  // namespace ede::scan
