#include "resolver/cache.hpp"

#include <algorithm>
#include <vector>

namespace ede::resolver {

namespace {

/// True when the entry can never be served again: it expired longer than
/// `retention` ago (retention is the stale window for the maps that serve
/// stale, zero for the SERVFAIL map). A `now` of zero means the caller has
/// no clock, in which case nothing is provably dead.
template <typename Entry>
bool beyond_retention(const Entry& entry, sim::SimTime now,
                      sim::SimTime retention) {
  return now > 0 && entry.expires < now && now - entry.expires > retention;
}

}  // namespace

template <typename Map>
void Cache::make_room(Map& map, sim::SimTime now, sim::SimTime retention) {
  if (map.size() < options_.max_entries) return;

  // Pass 1: sweep entries that are past all usefulness. Before this sweep
  // existed, dead entries lingered until the map hit the cap and was wiped
  // wholesale — taking every live entry down with them.
  for (auto it = map.begin(); it != map.end();) {
    if (beyond_retention(it->second, now, retention)) {
      it = map.erase(it);
      ++stats_.evicted_expired;
    } else {
      ++it;
    }
  }
  if (map.size() < options_.max_entries) return;

  // Pass 2: still full of live entries — evict the oldest-expiring ones.
  // Evict down to a watermark a little below the cap so the O(n) selection
  // amortizes over the next batch of inserts instead of running per put.
  const std::size_t batch =
      std::max<std::size_t>(1, options_.max_entries / 16);
  const std::size_t target =
      options_.max_entries > batch ? options_.max_entries - batch : 0;
  std::size_t evict = map.size() - target;

  std::vector<sim::SimTime> expiries;
  expiries.reserve(map.size());
  for (const auto& [key, entry] : map) expiries.push_back(entry.expires);
  std::nth_element(expiries.begin(),
                   expiries.begin() + static_cast<std::ptrdiff_t>(evict - 1),
                   expiries.end());
  const sim::SimTime cutoff = expiries[evict - 1];

  for (auto it = map.begin(); it != map.end() && evict > 0;) {
    if (it->second.expires <= cutoff) {
      it = map.erase(it);
      --evict;
      ++stats_.evicted_capacity;
    } else {
      ++it;
    }
  }
}

void Cache::put_positive(PositiveEntry entry, sim::SimTime now) {
  if (!options_.enabled) return;
  make_room(positive_, now, options_.stale_window);
  CacheKey key{entry.rrset.name, entry.rrset.type};
  positive_[std::move(key)] = std::move(entry);
}

void Cache::put_negative(const dns::Name& name, dns::RRType type,
                         NegativeEntry entry, sim::SimTime now) {
  if (!options_.enabled) return;
  make_room(negative_, now, options_.stale_window);
  negative_[CacheKey{name, type}] = entry;
}

void Cache::put_servfail(const dns::Name& name, dns::RRType type,
                         ServfailEntry entry, sim::SimTime now) {
  if (!options_.enabled) return;
  make_room(servfail_, now, 0);
  servfail_[CacheKey{name, type}] = std::move(entry);
}

const PositiveEntry* Cache::get_positive(const dns::Name& name,
                                         dns::RRType type,
                                         sim::SimTime now) const {
  if (!options_.enabled) return nullptr;
  ++stats_.lookups;
  const auto it = positive_.find(CacheKey{name, type});
  if (it == positive_.end() || it->second.expires < now) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return &it->second;
}

const PositiveEntry* Cache::get_stale_positive(const dns::Name& name,
                                               dns::RRType type,
                                               sim::SimTime now) const {
  // Stale getters run as the fallback of a fresh lookup whose miss is
  // already on the books, so a nullptr here counts nothing — only an
  // actual serve is a new, answered lookup (see the Stats contract).
  if (!options_.enabled) return nullptr;
  const auto it = positive_.find(CacheKey{name, type});
  if (it == positive_.end()) return nullptr;
  if (it->second.expires >= now) {  // still fresh
    ++stats_.lookups;
    ++stats_.hits;
    return &it->second;
  }
  if (now - it->second.expires > options_.stale_window) return nullptr;
  ++stats_.lookups;
  ++stats_.stale_hits;
  return &it->second;
}

const NegativeEntry* Cache::get_negative(const dns::Name& name,
                                         dns::RRType type,
                                         sim::SimTime now) const {
  if (!options_.enabled) return nullptr;
  ++stats_.lookups;
  const auto it = negative_.find(CacheKey{name, type});
  if (it == negative_.end() || it->second.expires < now) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return &it->second;
}

const NegativeEntry* Cache::get_stale_negative(const dns::Name& name,
                                               dns::RRType type,
                                               sim::SimTime now) const {
  // Same no-recount rule as get_stale_positive.
  if (!options_.enabled) return nullptr;
  const auto it = negative_.find(CacheKey{name, type});
  if (it == negative_.end()) return nullptr;
  if (it->second.expires >= now) {
    ++stats_.lookups;
    ++stats_.hits;
    return &it->second;
  }
  if (now - it->second.expires > options_.stale_window) return nullptr;
  ++stats_.lookups;
  ++stats_.stale_hits;
  return &it->second;
}

const ServfailEntry* Cache::get_servfail(const dns::Name& name,
                                         dns::RRType type,
                                         sim::SimTime now) const {
  if (!options_.enabled) return nullptr;
  ++stats_.lookups;
  const auto it = servfail_.find(CacheKey{name, type});
  if (it == servfail_.end() || it->second.expires < now) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return &it->second;
}

std::vector<CacheKey> Cache::expiring_within(sim::SimTimeMs within_ms,
                                             sim::SimTime now) const {
  std::vector<CacheKey> keys;
  if (!options_.enabled) return keys;
  // Ceiling conversion: a 1 ms horizon still covers entries expiring at
  // the next whole second (SimTime is second-granular).
  const sim::SimTime horizon =
      now + static_cast<sim::SimTime>((within_ms + 999) / 1000);
  for (const auto& [key, entry] : positive_) {
    if (entry.expires >= now && entry.expires <= horizon)
      keys.push_back(key);
  }
  return keys;
}

void Cache::clear() {
  positive_.clear();
  negative_.clear();
  servfail_.clear();
}

std::size_t Cache::size() const {
  return positive_.size() + negative_.size() + servfail_.size();
}

}  // namespace ede::resolver
