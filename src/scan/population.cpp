#include "scan/population.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "crypto/rng.hpp"

namespace ede::scan {

namespace {

constexpr std::size_t kGtldCount = 200;
constexpr std::size_t kCctldCount = 100;

constexpr const char* kGtldSeeds[] = {
    "com",   "net",    "org",   "info",  "biz",   "online", "shop",
    "site",  "store",  "tech",  "xyz",   "top",   "club",   "dev",
    "app",   "page",   "cloud", "space", "fun",   "live",   "work",
    "life",  "world",  "today", "news",  "agency", "digital", "email",
    "group", "media"};

constexpr const char* kCctldSeeds[] = {"de", "uk", "nl", "fr", "se", "nu",
                                       "ch", "li", "cn", "ru", "br", "jp",
                                       "pl", "it", "es", "ca", "au", "in"};

std::vector<TldInfo> make_tlds(const PopulationConfig& config,
                               crypto::Xoshiro256& rng) {
  std::vector<TldInfo> tlds;
  tlds.reserve(kGtldCount + kCctldCount);
  for (std::size_t i = 0; i < kGtldCount; ++i) {
    TldInfo tld;
    tld.name = i < std::size(kGtldSeeds) ? kGtldSeeds[i]
                                         : "gtld" + std::to_string(i);
    tld.is_cc = false;
    tlds.push_back(std::move(tld));
  }
  for (std::size_t i = 0; i < kCctldCount; ++i) {
    TldInfo tld;
    if (i < std::size(kCctldSeeds)) {
      tld.name = kCctldSeeds[i];
    } else {
      // Synthetic two-letter codes ("aa", "ab", ...), skipping collisions
      // with the seeded ones by adding a numeric suffix when needed.
      std::string name;
      name.push_back(static_cast<char>('a' + (i / 26) % 26));
      name.push_back(static_cast<char>('a' + i % 26));
      for (const auto* seeded : kCctldSeeds) {
        if (name == seeded) {
          name += "x";
          break;
        }
      }
      tld.name = std::move(name);
    }
    tld.is_cc = true;
    tlds.push_back(std::move(tld));
  }

  // Zipf sizes over the whole TLD list (gTLDs get a head start: the large
  // legacy gTLDs dwarf everything, as in the real DNS).
  std::vector<double> weights(tlds.size());
  for (std::size_t i = 0; i < tlds.size(); ++i) {
    const double rank = static_cast<double>(
        tlds[i].is_cc ? (i - kGtldCount) * 2 + 3 : i + 1);
    weights[i] = 1.0 / rank;
  }
  const double total_weight =
      std::accumulate(weights.begin(), weights.end(), 0.0);
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < tlds.size(); ++i) {
    tlds[i].planned_size = std::max<std::size_t>(
        8, static_cast<std::size_t>(
               std::floor(static_cast<double>(config.total_domains) *
                          weights[i] / total_weight)));
    assigned += tlds[i].planned_size;
  }
  // Trim/pad the largest TLD so sizes sum exactly to total_domains.
  auto& largest = *std::max_element(
      tlds.begin(), tlds.end(), [](const TldInfo& a, const TldInfo& b) {
        return a.planned_size < b.planned_size;
      });
  if (assigned > config.total_domains) {
    largest.planned_size -= std::min(largest.planned_size - 8,
                                     assigned - config.total_domains);
  } else {
    largest.planned_size += config.total_domains - assigned;
  }

  // Figure 1 calibration: 38 % of gTLDs and 4 % of ccTLDs are perfectly
  // clean; 11 gTLDs and 2 ccTLDs are entirely misconfigured. Clean status
  // goes to the smallest TLDs (hygiene correlates with registry size in
  // the paper's data); the all-bad ones are small niche TLDs totaling
  // ~108 k domains at full scale.
  std::vector<std::size_t> g_order, c_order;
  for (std::size_t i = 0; i < tlds.size(); ++i) {
    (tlds[i].is_cc ? c_order : g_order).push_back(i);
  }
  const auto by_size = [&](std::size_t a, std::size_t b) {
    return tlds[a].planned_size < tlds[b].planned_size;
  };
  std::sort(g_order.begin(), g_order.end(), by_size);
  std::sort(c_order.begin(), c_order.end(), by_size);

  const std::size_t clean_g =
      static_cast<std::size_t>(0.38 * static_cast<double>(g_order.size()));
  const std::size_t clean_c =
      static_cast<std::size_t>(0.04 * static_cast<double>(c_order.size()));
  for (std::size_t i = 0; i < clean_g; ++i) tlds[g_order[i]].clean = true;
  for (std::size_t i = 0; i < clean_c; ++i) tlds[c_order[i]].clean = true;

  const std::size_t all_bad_total = std::max<std::size_t>(
      13, static_cast<std::size_t>(108'000 * config.scale()));
  std::size_t all_bad_budget = all_bad_total;
  std::size_t marked = 0;
  for (std::size_t i = clean_g; i < g_order.size() && marked < 11; ++i) {
    auto& tld = tlds[g_order[i]];
    tld.all_bad = true;
    tld.planned_size = std::max<std::size_t>(2, all_bad_total / 13);
    all_bad_budget -= std::min(all_bad_budget, tld.planned_size);
    ++marked;
  }
  marked = 0;
  for (std::size_t i = clean_c; i < c_order.size() && marked < 2; ++i) {
    auto& tld = tlds[c_order[i]];
    tld.all_bad = true;
    tld.planned_size = std::max<std::size_t>(2, all_bad_total / 13);
    ++marked;
  }

  (void)rng;
  return tlds;
}

}  // namespace

std::size_t Population::count(Category category) const {
  return static_cast<std::size_t>(
      std::count_if(domains.begin(), domains.end(),
                    [&](const DomainSpec& d) { return d.category == category; }));
}

Population generate_population(const PopulationConfig& config) {
  Population population;
  population.config = config;
  crypto::Xoshiro256 rng(config.seed);
  population.tlds = make_tlds(config, rng);
  auto& tlds = population.tlds;

  // Scaled per-category quotas with a floor so rare categories survive.
  std::vector<std::pair<Category, std::size_t>> quotas;
  std::size_t bad_total = 0;
  for (const auto& entry : category_table()) {
    if (entry.category == Category::Healthy) continue;
    const auto scaled = static_cast<std::size_t>(
        std::llround(entry.paper_count * config.scale()));
    const std::size_t quota = std::max(scaled, kMinCategoryCount);
    quotas.emplace_back(entry.category, quota);
    bad_total += quota;
  }

  // Per-TLD capacity for misconfigured domains.
  std::vector<std::size_t> bad_capacity(tlds.size(), 0);
  std::vector<std::size_t> remaining(tlds.size());
  for (std::size_t i = 0; i < tlds.size(); ++i) {
    remaining[i] = tlds[i].planned_size;
    if (tlds[i].clean) continue;
    bad_capacity[i] = tlds[i].all_bad ? tlds[i].planned_size
                                      : tlds[i].planned_size;
  }

  // The stand-by-KSK quota is concentrated: ~90 % under two ccTLDs
  // (the paper traced 2.47 M of the 2.75 M RRSIGs-Missing domains to two
  // ccTLD registries using stand-by keys).
  std::size_t se_index = 0, nu_index = 0;
  for (std::size_t i = 0; i < tlds.size(); ++i) {
    if (tlds[i].name == "se") se_index = i;
    if (tlds[i].name == "nu") nu_index = i;
  }
  tlds[se_index].clean = false;
  tlds[nu_index].clean = false;

  const auto place = [&](Category category, std::size_t tld_index,
                         std::size_t count) {
    count = std::min(count, remaining[tld_index]);
    for (std::size_t k = 0; k < count; ++k) {
      DomainSpec spec;
      spec.tld = static_cast<std::uint32_t>(tld_index);
      spec.category = category;
      spec.fqdn = "d" + std::to_string(population.domains.size()) + "." +
                  tlds[tld_index].name;
      population.domains.push_back(std::move(spec));
    }
    remaining[tld_index] -= count;
    return count;
  };

  for (auto& [category, quota] : quotas) {
    std::size_t left = quota;
    if (category == Category::StandbyKsk) {
      const std::size_t concentrated =
          static_cast<std::size_t>(0.9 * static_cast<double>(quota));
      // Grow the two ccTLDs if the quota exceeds their planned size.
      for (const std::size_t idx : {se_index, nu_index}) {
        const std::size_t share = concentrated / 2;
        if (remaining[idx] < share) {
          tlds[idx].planned_size += share - remaining[idx];
          remaining[idx] = share;
        }
        left -= place(category, idx, share);
      }
    }
    // All-bad TLDs absorb lame-delegation quota first (they are the niche
    // TLDs whose entire contents are dead delegations).
    if (category == Category::LameRefused || category == Category::LameTimeout) {
      for (std::size_t i = 0; i < tlds.size() && left > 0; ++i) {
        if (!tlds[i].all_bad) continue;
        left -= place(category, i, std::min(left, remaining[i]));
      }
    }
    // Remainder: spread over non-clean TLDs proportionally to size, with a
    // mild ccTLD bias (the paper finds ccTLDs more misconfiguration-prone).
    double eligible_weight = 0.0;
    for (std::size_t i = 0; i < tlds.size(); ++i) {
      if (tlds[i].clean || tlds[i].all_bad || remaining[i] == 0) continue;
      eligible_weight += static_cast<double>(tlds[i].planned_size) *
                         (tlds[i].is_cc ? 1.5 : 1.0);
    }
    std::size_t placed_round = 1;
    while (left > 0 && placed_round > 0) {
      placed_round = 0;
      for (std::size_t i = 0; i < tlds.size() && left > 0; ++i) {
        if (tlds[i].clean || tlds[i].all_bad || remaining[i] == 0) continue;
        const double weight = static_cast<double>(tlds[i].planned_size) *
                              (tlds[i].is_cc ? 1.5 : 1.0);
        auto share = static_cast<std::size_t>(std::ceil(
            static_cast<double>(left) * weight / eligible_weight));
        share = std::max<std::size_t>(share, 1);
        share = std::min({share, left, remaining[i]});
        const std::size_t placed = place(category, i, share);
        left -= placed;
        placed_round += placed;
      }
    }
  }

  // Fill the rest with healthy domains, then pad the largest TLD so the
  // population hits total_domains exactly (quota rounding can undershoot).
  for (std::size_t i = 0; i < tlds.size(); ++i) {
    while (remaining[i] > 0) place(Category::Healthy, i, remaining[i]);
  }
  std::size_t largest_tld = 0;
  for (std::size_t i = 1; i < tlds.size(); ++i) {
    if (tlds[i].planned_size > tlds[largest_tld].planned_size) largest_tld = i;
  }
  while (population.domains.size() < config.total_domains) {
    remaining[largest_tld] = 1;
    tlds[largest_tld].planned_size += 1;
    place(Category::Healthy, largest_tld, 1);
  }
  // Quota floors and the concentrated-category growth can overshoot at
  // small scales; trim healthy domains (never misconfigured ones — the
  // category counts are the calibrated quantity) until the size is exact.
  // Healthy domains were all placed after the misconfigured ones, so they
  // are the tail, and every domain keeps the index its name carries.
  auto& domains = population.domains;
  while (domains.size() > config.total_domains &&
         domains.back().category == Category::Healthy) {
    tlds[domains.back().tld].planned_size -= 1;
    domains.pop_back();
  }

  // Provider assignment: skewed so a handful of "mega-lame" providers host
  // most dead delegations (the paper: 6 nameservers each authoritative for
  // >100 k broken domains; fixing 20 k servers would repair 81 %).
  for (auto& domain : population.domains) {
    const std::uint64_t h = crypto::fnv1a(domain.fqdn);
    // Zipf-ish slot choice in [0, 255].
    const double u = static_cast<double>(h % 100'000) / 100'000.0;
    domain.provider =
        static_cast<std::uint32_t>(std::pow(256.0, u)) - 1;
  }

  // Tranco ranks (Figure 2): EDE-triggering domains carry a rank with the
  // paper's marking probability (split by eventual RCODE so the 22.1 k /
  // 12.2 k-NOERROR structure reproduces), times kTrancoBoost.
  const double p_noerror = 0.0034 * kTrancoBoost;
  const double p_servfail = 0.0007 * kTrancoBoost;
  for (auto& domain : population.domains) {
    if (domain.category == Category::Healthy) continue;
    const double p = resolves_noerror(domain.category) ? p_noerror
                                                       : p_servfail;
    if (rng.uniform() < p) {
      domain.tranco_rank =
          static_cast<std::uint32_t>(1 + rng.below(1'000'000));
    }
  }

  return population;
}

}  // namespace ede::scan
