#include "serve/report.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>

#include "edns/ede.hpp"

namespace ede::serve {

namespace {

/// Fixed-precision rate rendering: the one float format in the report,
/// so the document stays byte-stable for identical inputs.
std::string rate4(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", value);
  return buf;
}

sim::SimTimeMs nearest_rank(const std::vector<sim::SimTimeMs>& sorted,
                            double quantile) {
  if (sorted.empty()) return 0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(quantile * n + 0.999999);
  rank = std::min(std::max<std::size_t>(rank, 1), sorted.size());
  return sorted[rank - 1];
}

void render_latency(std::ostringstream& out, const LatencySummary& latency) {
  out << "{\"p50\": " << latency.p50 << ", \"p95\": " << latency.p95
      << ", \"p99\": " << latency.p99 << ", \"max\": " << latency.max << "}";
}

void render_run(std::ostringstream& out, const RunSummary& run) {
  const auto& s = run.stats;
  out << "    {\n"
      << "      \"label\": \"" << run.label << "\",\n"
      << "      \"queries\": " << s.queries << ",\n"
      << "      \"served\": " << s.served << ",\n"
      << "      \"suppressed_retries\": " << s.suppressed_retries << ",\n"
      << "      \"live_retransmits\": " << s.live_retransmits << ",\n"
      << "      \"coalesced\": " << s.coalesced << ",\n"
      << "      \"waves\": " << s.waves << ",\n"
      << "      \"latency_ms\": ";
  render_latency(out, run.latency);
  out << ",\n"
      << "      \"cache_answered\": " << s.cache_answered << ",\n"
      << "      \"client_hit_rate\": " << rate4(run.hit_rate()) << ",\n"
      << "      \"synthesized_answers\": " << s.synthesized_answers << ",\n"
      << "      \"stale_answers\": " << s.stale_answers << ",\n"
      << "      \"stale_nxdomains\": " << s.stale_nxdomains << ",\n"
      << "      \"upstream_queries\": " << s.upstream_queries << ",\n"
      << "      \"prefetch_jobs\": " << s.prefetch_jobs << ",\n"
      << "      \"prefetch_upstream_queries\": "
      << s.prefetch_upstream_queries << ",\n"
      << "      \"busy_virtual_ms\": " << s.busy_virtual_ms << ",\n"
      << "      \"longest_wave_ms\": " << s.longest_wave_ms << ",\n"
      << "      \"resolver_cache\": {\"lookups\": " << run.cache.lookups
      << ", \"hits\": " << run.cache.hits
      << ", \"misses\": " << run.cache.misses
      << ", \"stale_hits\": " << run.cache.stale_hits << "},\n"
      << "      \"ede_deliveries\": {";
  bool first = true;
  for (const auto& [code, delivery] : run.ede) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << code << "\": {\"answers\": " << delivery.answers
        << ", \"clients\": " << delivery.clients << "}";
  }
  out << "}\n    }";
}

const RunSummary* find_run(const ServeReportDoc& doc,
                           const std::string& label) {
  for (const auto& run : doc.runs)
    if (run.label == label) return &run;
  return nullptr;
}

}  // namespace

double RunSummary::hit_rate() const {
  return stats.served == 0 ? 0.0
                           : static_cast<double>(stats.cache_answered) /
                                 static_cast<double>(stats.served);
}

LatencySummary summarize_latency(const std::vector<ClientAnswer>& answers) {
  std::vector<sim::SimTimeMs> latencies;
  latencies.reserve(answers.size());
  for (const auto& answer : answers)
    if (!answer.suppressed) latencies.push_back(answer.latency_ms);
  std::sort(latencies.begin(), latencies.end());
  LatencySummary summary;
  summary.p50 = nearest_rank(latencies, 0.50);
  summary.p95 = nearest_rank(latencies, 0.95);
  summary.p99 = nearest_rank(latencies, 0.99);
  summary.max = latencies.empty() ? 0 : latencies.back();
  return summary;
}

RunSummary summarize_run(std::string label,
                         const std::vector<ClientAnswer>& answers,
                         const ServeStats& stats,
                         const resolver::Cache::Stats& cache_delta) {
  RunSummary run;
  run.label = std::move(label);
  run.stats = stats;
  run.cache = cache_delta;
  run.latency = summarize_latency(answers);
  std::map<std::uint16_t, std::set<std::uint32_t>> clients_by_code;
  for (const auto& answer : answers) {
    if (answer.suppressed) continue;
    for (const std::uint16_t code : answer.ede) {
      ++run.ede[code].answers;
      clients_by_code[code].insert(answer.client);
    }
  }
  for (const auto& [code, clients] : clients_by_code)
    run.ede[code].clients = clients.size();
  return run;
}

std::string render_serve_json(const ServeReportDoc& doc) {
  std::ostringstream out;
  out << "{\n  \"config\": {\n"
      << "    \"clients\": " << doc.stub.clients << ",\n"
      << "    \"queries\": " << doc.stub.queries << ",\n"
      << "    \"duration_ms\": " << doc.stub.duration_ms << ",\n"
      << "    \"nxdomain_fraction\": " << rate4(doc.stub.nxdomain_fraction)
      << ",\n"
      << "    \"zipf_exponent\": " << rate4(kZipfExponent) << ",\n"
      << "    \"seed\": " << doc.stub.seed << ",\n"
      << "    \"inflight\": " << doc.inflight << ",\n"
      << "    \"wave_ms\": " << doc.wave_ms << "\n  },\n"
      << "  \"runs\": [\n";
  for (std::size_t i = 0; i < doc.runs.size(); ++i) {
    if (i > 0) out << ",\n";
    render_run(out, doc.runs[i]);
  }
  out << "\n  ]";

  // Optimization deltas vs. the control runs: each optimization must
  // demonstrably move its own metric (the acceptance criterion).
  const auto* full = find_run(doc, "full");
  const auto* no_prefetch = find_run(doc, "no_prefetch");
  const auto* no_aggressive = find_run(doc, "no_aggressive");
  if (full && (no_prefetch || no_aggressive)) {
    out << ",\n  \"comparisons\": {";
    bool first = true;
    if (no_prefetch) {
      out << "\n    \"prefetch_hit_rate_lift\": "
          << rate4(full->hit_rate() - no_prefetch->hit_rate());
      first = false;
    }
    if (no_aggressive) {
      if (!first) out << ",";
      const auto with = full->stats.upstream_queries;
      const auto without = no_aggressive->stats.upstream_queries;
      out << "\n    \"aggressive_upstream_saved\": "
          << (without > with ? without - with : 0) << ",\n"
          << "    \"aggressive_upstream_reduction\": "
          << rate4(without == 0
                       ? 0.0
                       : 1.0 - static_cast<double>(with) /
                                   static_cast<double>(without));
    }
    out << "\n  }";
  }

  if (doc.outage) {
    const auto& o = *doc.outage;
    out << ",\n  \"outage\": {\n"
        << "    \"served\": " << o.served << ",\n"
        << "    \"stale_answers\": " << o.stale_answers << ",\n"
        << "    \"stale_nxdomains\": " << o.stale_nxdomains << ",\n"
        << "    \"ede3_clients\": " << o.ede3_clients << ",\n"
        << "    \"ede19_clients\": " << o.ede19_clients << ",\n"
        << "    \"latency_ms\": ";
    render_latency(out, o.latency);
    out << ",\n    \"p99_bound_ms\": " << o.p99_bound_ms << ",\n"
        << "    \"violations\": [";
    for (std::size_t i = 0; i < o.violations.size(); ++i) {
      if (i > 0) out << ", ";
      out << "\"" << o.violations[i] << "\"";
    }
    out << "]\n  }";
  }
  out << "\n}\n";
  return out.str();
}

std::string render_serve_text(const ServeReportDoc& doc) {
  std::ostringstream out;
  out << "frontline serving report (" << doc.stub.clients << " clients, "
      << doc.stub.queries << " queries, seed " << doc.stub.seed
      << ", inflight " << doc.inflight << ")\n";
  for (const auto& run : doc.runs) {
    const auto& s = run.stats;
    out << "  [" << run.label << "] served " << s.served << "/" << s.queries
        << " (suppressed " << s.suppressed_retries << ", coalesced "
        << s.coalesced << ")\n"
        << "    latency p50/p95/p99: " << run.latency.p50 << "/"
        << run.latency.p95 << "/" << run.latency.p99
        << " ms, client hit rate " << rate4(run.hit_rate())
        << ", synthesized " << s.synthesized_answers << "\n"
        << "    upstream " << s.upstream_queries << " (+"
        << s.prefetch_upstream_queries << " prefetch over "
        << s.prefetch_jobs << " jobs)\n";
    for (const auto& [code, delivery] : run.ede) {
      out << "    EDE " << code << " ("
          << edns::to_string(static_cast<edns::EdeCode>(code)) << "): "
          << delivery.answers << " answers to " << delivery.clients
          << " clients\n";
    }
  }
  if (doc.runs.size() > 1) {
    ServeStats totals;
    for (const auto& run : doc.runs) totals.merge(run.stats);
    out << "  [all runs] " << totals.queries << " queries over "
        << totals.waves << " waves (" << totals.live_retransmits
        << " live retransmits), busy " << totals.busy_virtual_ms
        << " virtual ms, longest wave " << totals.longest_wave_ms
        << " ms\n";
  }
  if (doc.outage) {
    const auto& o = *doc.outage;
    out << "  [outage] served " << o.served << ", EDE 3 to "
        << o.ede3_clients << " clients, EDE 19 to " << o.ede19_clients
        << " clients, p99 " << o.latency.p99 << " ms (bound "
        << o.p99_bound_ms << " ms), violations: " << o.violations.size()
        << "\n";
  }
  return out.str();
}

}  // namespace ede::serve
