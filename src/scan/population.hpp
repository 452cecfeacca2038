// Synthetic registered-domain population for the wild scan (E4–E6).
//
// SUBSTITUTION (DESIGN.md §2): the paper's 488 M-entry input list (CZDS,
// Tranco, passive DNS, ccTLD AXFRs, CT logs) is proprietary at that scale.
// We generate a scaled population whose *distributions* match what the
// paper measured: the per-category misconfiguration mix of §4.2, the
// per-TLD concentration of Figure 1 (38 % of gTLDs and 4 % of ccTLDs
// perfectly clean; 11 gTLDs and 2 ccTLDs entirely misconfigured; stand-by
// KSK issues concentrated under two ccTLDs), and the Tranco-rank spread of
// Figure 2. Everything is deterministic in the seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scan/category.hpp"

namespace ede::scan {

/// Rare categories are floored to this count so every §4.2 row appears
/// even at small scale (reported alongside the scale factor).
inline constexpr std::size_t kMinCategoryCount = 2;
/// Tranco ranks are assigned with the paper's marking probability times
/// this boost so the Figure 2 CDF has enough points at reduced scale; the
/// report divides the overlap back out.
inline constexpr double kTrancoBoost = 10.0;

struct PopulationConfig {
  /// Number of registered domains to scan. 303'000 is 1/1000 of the paper.
  std::size_t total_domains = 303'000;
  std::uint64_t seed = 42;

  [[nodiscard]] double scale() const {
    return static_cast<double>(total_domains) / 303e6;
  }
};

struct TldInfo {
  std::string name;
  bool is_cc = false;
  bool clean = false;     // carries no misconfigured domain
  bool all_bad = false;   // every registered domain misconfigured
  std::size_t planned_size = 0;
};

struct DomainSpec {
  std::string fqdn;           // e.g. "d12345.shop"
  std::uint32_t tld = 0;      // index into Population::tlds
  Category category = Category::Healthy;
  std::uint32_t tranco_rank = 0;  // 0 = not in the Tranco top 1M
  std::uint32_t provider = 0;     // provider pool slot for its category
};

struct Population {
  PopulationConfig config;
  std::vector<TldInfo> tlds;
  std::vector<DomainSpec> domains;

  [[nodiscard]] std::size_t count(Category category) const;
};

[[nodiscard]] Population generate_population(const PopulationConfig& config);

}  // namespace ede::scan
