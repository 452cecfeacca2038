#include "serve/frontend.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <utility>

#include "dnssec/findings.hpp"
#include "resolver/cache.hpp"
#include "resolver/resolver.hpp"

namespace ede::serve {

namespace {

constexpr sim::SimTimeMs kUnanswered =
    std::numeric_limits<sim::SimTimeMs>::max();
/// Minimum decayed sketch estimate for a name to earn a refresh.
constexpr std::uint32_t kPrefetchMinPopularity = 4;
/// Prefetch cap per wave, so a mass expiry cannot starve client traffic.
constexpr std::size_t kPrefetchMaxPerWave = 128;

void note_findings(const resolver::Outcome& outcome, ClientAnswer& answer,
                   ServeStats& stats) {
  for (const auto& finding : outcome.findings) {
    if (finding.defect == dnssec::Defect::AnswerSynthesized) {
      answer.synthesized = true;
    } else if (finding.defect == dnssec::Defect::StaleAnswerServed) {
      answer.stale = true;
      ++stats.stale_answers;
    } else if (finding.defect == dnssec::Defect::StaleNxdomainServed) {
      answer.stale = true;
      ++stats.stale_nxdomains;
    }
  }
}

}  // namespace

FrontEnd::FrontEnd(resolver::RecursiveResolver& resolver,
                   sim::Network& network, FrontEndOptions options)
    : resolver_(resolver),
      network_(network),
      options_(options) {
  options_.inflight = std::max<std::size_t>(1, options_.inflight);
  options_.wave_ms = std::max<sim::SimTimeMs>(1, options_.wave_ms);
}

std::vector<resolver::ResolveJob> rank_prefetch(
    const std::vector<resolver::CacheKey>& expiring,
    const PopularitySketch& sketch, std::uint32_t min_popularity,
    std::size_t limit) {
  // Filter first: most waves have few expiring keys popular enough, so
  // only the survivors pay for the sort and the canonical tie-break.
  std::vector<std::pair<std::uint32_t, const resolver::CacheKey*>> ranked;
  for (const auto& key : expiring) {
    const std::uint32_t estimate = sketch.estimate(key.name);
    if (estimate >= min_popularity) ranked.emplace_back(estimate, &key);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second->canonical_before(*b.second);
  });
  if (ranked.size() > limit) ranked.resize(limit);

  std::vector<resolver::ResolveJob> jobs;
  jobs.reserve(ranked.size());
  for (const auto& [estimate, key] : ranked)
    jobs.push_back({key->name, key->type, /*refresh=*/true});
  return jobs;
}

void FrontEnd::run_prefetch(sim::SimTimeMs epoch) {
  sketch_.tick();
  if (!options_.prefetch) return;
  auto& cache = resolver_.cache();
  const sim::SimTime now = network_.clock().now();
  const auto jobs = rank_prefetch(
      cache.expiring_within(FrontEndOptions::prefetch_horizon_ms, now),
      sketch_, kPrefetchMinPopularity, kPrefetchMaxPerWave);
  if (jobs.empty()) return;

  std::uint64_t upstream = 0;
  resolver_.resolve_many(jobs, options_.inflight,
                         [&](std::size_t, resolver::Outcome&& outcome) {
                           upstream += static_cast<std::uint64_t>(
                               std::max(0, outcome.upstream_queries));
                         });
  stats_.prefetch_jobs += jobs.size();
  stats_.prefetch_upstream_queries += upstream;
  // The prefetcher spends virtual time off the client path (a real one
  // runs on a maintenance thread): rewind to the wave epoch so client
  // latency measures client work only. Its cost shows up where it
  // belongs — in prefetch_upstream_queries.
  network_.clock().set_ms(epoch);
}

std::vector<ClientAnswer> FrontEnd::serve(const StubTrace& trace) {
  const sim::SimTimeMs base = network_.clock().now_ms();
  std::vector<ClientAnswer> answers(trace.queries.size());
  // Absolute answer time per query id (kUnanswered until served); what
  // decides whether a retransmit is live or absorbed.
  std::vector<sim::SimTimeMs> answered_at(trace.id_count, kUnanswered);

  // Per-wave (qname, qtype) → job slot; `jobs` carries the order.
  std::unordered_map<resolver::CacheKey, std::size_t, resolver::CacheKeyHash>
      job_of;
  sim::SimTimeMs last_wave_end = 0;
  std::size_t i = 0;
  while (i < trace.queries.size()) {
    const sim::SimTimeMs wave_start =
        trace.queries[i].arrival_ms / options_.wave_ms * options_.wave_ms;
    const sim::SimTimeMs wave_end = wave_start + options_.wave_ms;
    std::size_t j = i;
    while (j < trace.queries.size() &&
           trace.queries[j].arrival_ms < wave_end)
      ++j;
    last_wave_end = wave_end;

    const sim::SimTimeMs epoch = base + wave_start;
    network_.clock().set_ms(epoch);
    ++stats_.waves;
    run_prefetch(epoch);

    // Dedup the wave into distinct resolutions; absorb dead retransmits.
    std::vector<resolver::ResolveJob> jobs;
    job_of.clear();
    constexpr std::size_t kSuppressed = std::numeric_limits<std::size_t>::max();
    std::vector<std::size_t> query_job(j - i, kSuppressed);
    for (std::size_t k = i; k < j; ++k) {
      const StubQuery& query = trace.queries[k];
      ++stats_.queries;
      ClientAnswer& answer = answers[k];
      answer.client = query.client;
      if (query.retry_of != kNoRetry) {
        const sim::SimTimeMs original = answered_at[query.retry_of];
        if (original != kUnanswered && original <= base + query.arrival_ms) {
          answer.suppressed = true;
          ++stats_.suppressed_retries;
          continue;
        }
        answer.retransmit = true;
        ++stats_.live_retransmits;
      }
      sketch_.observe(query.qname);
      const auto [slot, inserted] = job_of.try_emplace(
          resolver::CacheKey{query.qname, query.qtype}, jobs.size());
      if (inserted)
        jobs.push_back({query.qname, query.qtype});
      else
        ++stats_.coalesced;
      query_job[k - i] = slot->second;
    }

    std::vector<resolver::Outcome> outcomes(jobs.size());
    const auto report = resolver_.resolve_many(
        jobs, options_.inflight,
        [&](std::size_t index, resolver::Outcome&& outcome) {
          outcomes[index] = std::move(outcome);
        });
    stats_.busy_virtual_ms += report.makespan_ms;
    stats_.longest_wave_ms =
        std::max(stats_.longest_wave_ms, report.makespan_ms);
    for (const auto& outcome : outcomes)
      stats_.upstream_queries +=
          static_cast<std::uint64_t>(std::max(0, outcome.upstream_queries));

    for (std::size_t k = i; k < j; ++k) {
      const std::size_t slot = query_job[k - i];
      if (slot == kSuppressed) continue;
      const StubQuery& query = trace.queries[k];
      ClientAnswer& answer = answers[k];
      const resolver::Outcome& outcome = outcomes[slot];
      answer.rcode = outcome.rcode;
      answer.ede.reserve(outcome.errors.size());
      for (const auto& error : outcome.errors)
        answer.ede.push_back(static_cast<std::uint16_t>(error.code));
      std::sort(answer.ede.begin(), answer.ede.end());
      answer.ede.erase(std::unique(answer.ede.begin(), answer.ede.end()),
                       answer.ede.end());
      answer.latency_ms = report.job_duration_ms[slot];
      answer.from_cache = answer.latency_ms == 0;
      note_findings(outcome, answer, stats_);
      ++stats_.served;
      if (answer.from_cache) ++stats_.cache_answered;
      if (answer.synthesized) ++stats_.synthesized_answers;
      answered_at[query.id] = base + query.arrival_ms + answer.latency_ms;
    }
    i = j;
  }

  network_.clock().set_ms(base + last_wave_end);
  return answers;
}

}  // namespace ede::serve
