#include "scan/report.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "dnscore/sorted.hpp"
#include "edns/ede.hpp"
#include "resolver/infra_cache.hpp"

namespace ede::scan {

namespace {

/// Paper §4.2: domains per INFO-CODE in the 303 M-domain scan.
const std::map<std::uint16_t, double>& paper_code_counts() {
  static const std::map<std::uint16_t, double> counts = {
      {22, 13'965'865}, {23, 11'647'551}, {10, 2'746'604}, {9, 296'643},
      {6, 82'465},      {24, 12'268},     {1, 8'751},      {7, 2'877},
      {12, 1'980},      {2, 62},          {3, 32},         {8, 29},
      {13, 8},          {0, 7},
  };
  return counts;
}

std::string human(double value) {
  char buf[32];
  if (value >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM", value / 1e6);
  } else if (value >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fk", value / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", value);
  }
  return buf;
}

}  // namespace

std::string render_section42(const ScanResult& result,
                             const Population& population) {
  std::ostringstream out;
  const double scale = population.config.scale();
  out << "== Section 4.2 — Extended DNS Errors in the wild ==\n";
  out << "scanned domains      : " << result.total_domains << " (paper: 303M, scale 1:"
      << static_cast<long>(std::llround(1.0 / scale)) << ")\n";
  out << "domains with EDE     : " << result.domains_with_ede << " ("
      << 100.0 * static_cast<double>(result.domains_with_ede) /
             static_cast<double>(std::max<std::size_t>(result.total_domains, 1))
      << "% ; paper: 17.7M = 5.8%)\n";
  out << "lame delegations 22/23: " << result.lame_union
      << " unique (paper: 14.8M)\n";
  out << "NOERROR with EDE     : " << result.noerror_with_ede << "\n\n";

  // Sort codes by measured count, descending — the paper's presentation.
  std::vector<std::pair<std::uint16_t, const CodeStats*>> ordered;
  for (const auto& [code, stats] : result.per_code)
    ordered.emplace_back(code, &stats);
  std::sort(ordered.begin(), ordered.end(), [](const auto& a, const auto& b) {
    return a.second->domains > b.second->domains;
  });

  out << "rank  code  name                              measured   scaled-up   paper\n";
  int rank = 0;
  for (const auto& [code, stats] : ordered) {
    ++rank;
    const auto paper = paper_code_counts().find(code);
    char line[160];
    std::snprintf(line, sizeof(line), "%-5d %-5u %-33s %-10zu %-11s %s\n",
                  rank, code,
                  edns::to_string(static_cast<edns::EdeCode>(code)).c_str(),
                  stats->domains,
                  human(static_cast<double>(stats->domains) /
                        population.config.scale())
                      .c_str(),
                  paper == paper_code_counts().end()
                      ? "-"
                      : human(paper->second).c_str());
    out << line;
    for (const auto& text : stats->sample_extra_text) {
      out << "            e.g. \"" << text << "\"\n";
    }
  }

  // The diagnostic cross-tab: which misconfiguration category produced
  // which INFO-CODEs. Both map levels are ordered, so the block is
  // byte-stable for identical scans.
  if (!result.codes_by_category.empty()) {
    out << "\ncategory -> codes:\n";
    for (const auto& [category, codes] : result.codes_by_category) {
      out << "  " << to_string(category) << ":";
      for (const auto& [code, count] : codes)
        out << " " << code << "x" << count;
      out << "\n";
    }
  }

  const auto& t = result.transport;
  out << "\ntransport: " << t.packets_sent << " packets ("
      << t.retransmits << " retransmits, " << t.timeouts << " timeouts, "
      << t.unreachable << " unreachable";
  out << ")\n";
  if (t.holddown_skips != 0 || t.holddowns_started != 0) {
    out << "infra cache: " << t.holddowns_started << " servers held down, "
        << t.holddown_skips << " probes avoided\n";
  }
  const auto& h = result.hardening;
  out << "hardening: " << h.servfail_cache_hits << " cached SERVFAILs, "
      << h.coalesced_queries << " coalesced probes";
  if (h.rejected_qid_mismatch != 0 || h.rejected_question_mismatch != 0 ||
      h.rejected_oversize != 0) {
    out << ", rejected " << h.rejected_qid_mismatch << " bad-QID + "
        << h.rejected_question_mismatch << " bad-question + "
        << h.rejected_oversize << " oversized";
  }
  if (h.scrubbed_records != 0)
    out << ", scrubbed " << h.scrubbed_records << " records";
  if (h.watchdog_trips != 0)
    out << ", " << h.watchdog_trips << " watchdog trips";
  if (h.tcp_fallbacks != 0) {
    out << ", " << h.tc_seen << " TC seen, " << h.tcp_fallbacks
        << " DoTCP fallbacks (" << h.tcp_success << " ok, "
        << h.tcp_connect_failures << " connect-failed, "
        << h.tcp_stream_failures << " stream-failed)";
  }
  out << "\n";
  // The RFC 6891 compliance breakdown: which flavors of hostile EDNS the
  // scan ran into, and what the probe-and-fallback machinery made of them.
  if (h.edns_formerr_seen != 0 || h.edns_badvers_seen != 0 ||
      h.edns_garbled_opt != 0 || h.edns_fallback_probes != 0 ||
      h.edns_degraded_success != 0 || h.edns_capability_skips != 0 ||
      t.edns_broken_learned != 0) {
    out << "edns compliance: " << h.edns_fallback_probes
        << " plain-DNS probes, " << h.edns_degraded_success
        << " degraded answers\n"
        << "  rejections: " << h.edns_formerr_seen << " FORMERR-on-OPT, "
        << h.edns_badvers_seen << " BADVERS, " << h.edns_garbled_opt
        << " garbled/duplicate OPT\n"
        << "  capability memory: " << t.edns_broken_learned
        << " servers learned plain-only, " << h.edns_capability_skips
        << " dances skipped\n";
  }
  const auto& rc = result.record_cache;
  out << "record cache: " << rc.hits << " hits, " << rc.misses
      << " misses, " << rc.stale_hits << " stale answers served";
  if (rc.evicted_expired != 0 || rc.evicted_capacity != 0) {
    out << ", evicted " << rc.evicted_expired << " expired + "
        << rc.evicted_capacity << " at capacity";
  }
  out << "\n";
  return out.str();
}

std::string render_shard_summary(const ParallelScanResult& result) {
  std::ostringstream out;
  out << "== Sharded scan — per-worker throughput ==\n";
  out << "shard  first      domains    wall s    sim s     domains/s\n";
  double scan_seconds_total = 0.0;
  for (const auto& shard : result.shards) {
    char line[120];
    std::snprintf(line, sizeof(line),
                  "%-6zu %-10zu %-10zu %-9.2f %-9.2f %.0f\n", shard.shard_id,
                  shard.first_domain, shard.result.total_domains,
                  shard.result.wall_seconds, shard.result.sim_seconds,
                  shard.result.queries_per_second());
    out << line;
    scan_seconds_total += shard.result.wall_seconds;
  }
  // Occupancy = sum of worker spans / elapsed. It approaches N whenever
  // all workers stay busy; true speedup needs a 1-shard run to compare
  // against (see bench/perf_baseline_scan.json).
  char line[160];
  std::snprintf(line, sizeof(line),
                "merged: %zu domains over %zu shard(s) in %.2f s end-to-end "
                "-> %.0f domains/s (sum of worker spans %.2f s, "
                "occupancy x%.2f)\n",
                result.merged.total_domains, result.shards.size(),
                result.wall_seconds, result.merged_qps(), scan_seconds_total,
                result.wall_seconds > 0
                    ? scan_seconds_total / result.wall_seconds
                    : 0.0);
  out << line;
  return out.str();
}

std::string render_infra_summary(const resolver::InfraCache& infra) {
  using FailureKind = resolver::InfraCache::FailureKind;
  std::ostringstream out;
  const auto& stats = infra.stats();
  out << "== Infrastructure cache — per-server state ==\n";
  out << "tracked servers: " << infra.size() << " (" << stats.successes
      << " replies, " << stats.failures << " failures, "
      << stats.holddowns_started << " hold-downs, " << stats.holddown_skips
      << " probes skipped)\n";
  out << "address            srtt ms   streak  hold-until  last-failure\n";
  for (const auto& [address, entry] : ede::util::sorted_items(infra.entries())) {
    const char* kind = "-";
    if (entry->last_failure == FailureKind::Timeout) kind = "timeout";
    if (entry->last_failure == FailureKind::Unreachable) kind = "unreachable";
    char line[160];
    std::snprintf(line, sizeof(line), "%-18s %-9.1f %-7d %-11llu %s\n",
                  address->to_string().c_str(), entry->srtt_ms,
                  entry->consecutive_timeouts,
                  static_cast<unsigned long long>(entry->hold_until_ms), kind);
    out << line;
  }
  return out.str();
}

std::string ascii_cdf(const std::vector<std::pair<double, double>>& a,
                      std::string_view a_name,
                      const std::vector<std::pair<double, double>>& b,
                      std::string_view b_name, double x_max,
                      std::string_view x_label) {
  constexpr int kWidth = 60;
  constexpr int kHeight = 12;
  std::ostringstream out;
  std::vector<std::string> grid(kHeight, std::string(kWidth, ' '));

  const auto value_at = [](const std::vector<std::pair<double, double>>& cdf,
                           double x) {
    double y = 0.0;
    for (const auto& [vx, vy] : cdf) {
      if (vx <= x) y = vy;
      else break;
    }
    return y;
  };

  for (int col = 0; col < kWidth; ++col) {
    const double x = x_max * (col + 1) / kWidth;
    const auto plot = [&](const std::vector<std::pair<double, double>>& cdf,
                          char mark) {
      if (cdf.empty()) return;
      const double y = value_at(cdf, x);
      int row = kHeight - 1 -
                static_cast<int>(std::round(y * (kHeight - 1)));
      row = std::clamp(row, 0, kHeight - 1);
      if (grid[static_cast<std::size_t>(row)][static_cast<std::size_t>(
              col)] == ' ') {
        grid[static_cast<std::size_t>(row)][static_cast<std::size_t>(col)] =
            mark;
      } else {
        grid[static_cast<std::size_t>(row)][static_cast<std::size_t>(col)] =
            '#';  // overlap
      }
    };
    plot(a, '*');
    plot(b, 'o');
  }

  out << "  1.0 +" << std::string(kWidth, '-') << "\n";
  for (int row = 0; row < kHeight; ++row) {
    out << "      |" << grid[static_cast<std::size_t>(row)] << "\n";
  }
  out << "  0.0 +" << std::string(kWidth, '-') << "> " << x_label << " (0.."
      << x_max << ")\n";
  out << "       legend: '*' " << a_name;
  if (!b.empty()) out << "   'o' " << b_name << "   '#' both";
  out << "\n";
  return out.str();
}

std::string render_figure1(const ScanResult& result,
                           const Population& population) {
  std::ostringstream out;
  out << "== Figure 1 — ratio of domains that trigger EDE codes per TLD ==\n";

  std::vector<double> gtld_ratios, cctld_ratios;
  std::size_t g_zero = 0, c_zero = 0, g_all = 0, c_all = 0;
  for (std::size_t i = 0; i < population.tlds.size(); ++i) {
    const auto& outcome = result.per_tld[i];
    if (outcome.scanned == 0) continue;
    const double ratio = 100.0 * static_cast<double>(outcome.with_ede) /
                         static_cast<double>(outcome.scanned);
    if (population.tlds[i].is_cc) {
      cctld_ratios.push_back(ratio);
      c_zero += outcome.with_ede == 0 ? 1 : 0;
      c_all += outcome.with_ede == outcome.scanned ? 1 : 0;
    } else {
      gtld_ratios.push_back(ratio);
      g_zero += outcome.with_ede == 0 ? 1 : 0;
      g_all += outcome.with_ede == outcome.scanned ? 1 : 0;
    }
  }
  const double g_n = std::max<double>(1.0, static_cast<double>(gtld_ratios.size()));
  const double c_n = std::max<double>(1.0, static_cast<double>(cctld_ratios.size()));
  out << "gTLDs with zero misconfigured domains : " << g_zero << "/"
      << gtld_ratios.size() << " ("
      << 100.0 * static_cast<double>(g_zero) / g_n << "% ; paper: ~38%)\n";
  out << "ccTLDs with zero misconfigured domains: " << c_zero << "/"
      << cctld_ratios.size() << " ("
      << 100.0 * static_cast<double>(c_zero) / c_n << "% ; paper: ~4%)\n";
  out << "fully misconfigured TLDs              : " << g_all << " gTLDs + "
      << c_all << " ccTLDs (paper: 11 gTLDs + 2 ccTLDs)\n\n";

  const auto g_cdf = make_cdf(gtld_ratios);
  const auto c_cdf = make_cdf(cctld_ratios);
  out << "series (ratio% -> CDF), gTLDs:\n";
  for (std::size_t i = 0; i < g_cdf.size(); i += std::max<std::size_t>(1, g_cdf.size() / 12)) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "  %6.2f%%  %.3f\n", g_cdf[i].first,
                  g_cdf[i].second);
    out << buf;
  }
  out << "series (ratio% -> CDF), ccTLDs:\n";
  for (std::size_t i = 0; i < c_cdf.size(); i += std::max<std::size_t>(1, c_cdf.size() / 12)) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "  %6.2f%%  %.3f\n", c_cdf[i].first,
                  c_cdf[i].second);
    out << buf;
  }
  out << "\n" << ascii_cdf(g_cdf, "gTLDs", c_cdf, "ccTLDs", 100.0,
                           "ratio of domains (%)");
  return out.str();
}

std::string render_figure2(const ScanResult& result) {
  std::ostringstream out;
  out << "== Figure 2 — EDE-triggering domains across the Tranco top 1M ==\n";
  out << "ranked EDE-triggering domains : " << result.tranco_hits.size()
      << " (boost x" << kTrancoBoost << " -> unboosted ~"
      << static_cast<double>(result.tranco_hits.size()) / kTrancoBoost
      << "; paper: 22.1k of 1M)\n";
  std::size_t noerror = 0;
  for (const auto& hit : result.tranco_hits) noerror += hit.noerror ? 1 : 0;
  out << "of which resolved NOERROR     : " << noerror << " ("
      << (result.tranco_hits.empty()
              ? 0.0
              : 100.0 * static_cast<double>(noerror) /
                    static_cast<double>(result.tranco_hits.size()))
      << "% ; paper: 12.2k/22.1k = 55%)\n\n";

  std::vector<double> ranks;
  ranks.reserve(result.tranco_hits.size());
  for (const auto& hit : result.tranco_hits)
    ranks.push_back(static_cast<double>(hit.rank));
  const auto cdf = make_cdf(ranks);
  out << "series (rank -> CDF):\n";
  for (std::size_t i = 0; i < cdf.size();
       i += std::max<std::size_t>(1, cdf.size() / 12)) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "  %8.0f  %.3f\n", cdf[i].first,
                  cdf[i].second);
    out << buf;
  }
  out << "\n" << ascii_cdf(cdf, "EDE-triggering domains", {}, "", 1'000'000,
                           "Tranco rank");
  out << "(a straight diagonal = evenly distributed across the ranking, as "
         "the paper observes)\n";
  return out.str();
}

}  // namespace ede::scan
