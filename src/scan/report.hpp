// Report renderers: print the scan aggregates in the same shape as the
// paper's §4.2 category listing, Figure 1 (per-TLD concentration CDFs) and
// Figure 2 (Tranco-rank CDF).
#pragma once

#include <string>

#include "resolver/infra_cache.hpp"
#include "scan/parallel.hpp"
#include "scan/scanner.hpp"

namespace ede::scan {

/// §4.2: the per-INFO-CODE breakdown, largest first, with scaled-up
/// equivalents and the paper's numbers side by side.
[[nodiscard]] std::string render_section42(const ScanResult& result,
                                           const Population& population);

/// Figure 1: CDFs of the per-TLD ratio of EDE-triggering domains, split
/// gTLD vs ccTLD, printed as (ratio%, cdf) series plus an ASCII sketch.
[[nodiscard]] std::string render_figure1(const ScanResult& result,
                                         const Population& population);

/// Figure 2: CDF of EDE-triggering domains across Tranco ranks.
[[nodiscard]] std::string render_figure2(const ScanResult& result);

/// Sharded-scan throughput: one row per worker (domains, wall/sim time,
/// rate) plus the merged end-to-end rate and the parallel speedup over
/// the sequential-equivalent cost (the sum of per-shard scan times).
[[nodiscard]] std::string render_shard_summary(
    const ParallelScanResult& result);

/// Post-scan infrastructure-cache state: one row per nameserver address
/// (srtt, failure streak, hold-down) in address order. The cache stores
/// entries in an unordered map, so emission goes through the sorted-items
/// helper to keep the report byte-stable across runs (lint rule D1).
[[nodiscard]] std::string render_infra_summary(
    const resolver::InfraCache& infra);

/// ASCII sketch of one or two CDF series on a shared axis.
[[nodiscard]] std::string ascii_cdf(
    const std::vector<std::pair<double, double>>& a, std::string_view a_name,
    const std::vector<std::pair<double, double>>& b, std::string_view b_name,
    double x_max, std::string_view x_label);

}  // namespace ede::scan
