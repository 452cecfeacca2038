#include "resolver/cache.hpp"

#include <algorithm>
#include <type_traits>
#include <vector>

namespace ede::resolver {

namespace {

/// True when the entry can never be served again: it expired longer than
/// `retention` ago (retention is the stale window for the maps that serve
/// stale, zero for the SERVFAIL map). A `now` of zero means the caller has
/// no clock, in which case nothing is provably dead.
bool beyond_retention(sim::SimTime expires, sim::SimTime now,
                      sim::SimTime retention) {
  return now > 0 && expires < now && now - expires > retention;
}

template <typename Value>
sim::SimTime expires_of(const Value& value) {
  if constexpr (requires { value.entry; }) {
    return value.entry.expires;
  } else {
    return value.expires;
  }
}

}  // namespace

void Cache::link(PositiveNode& node) {
  ExpiryList& list = expiry_index_[node.second.entry.expires];
  node.second.prev = list.tail;
  node.second.next = nullptr;
  (list.tail != nullptr ? list.tail->second.next : list.head) = &node;
  list.tail = &node;
}

void Cache::unlink(PositiveNode& node) {
  const auto list = expiry_index_.find(node.second.entry.expires);
  const Positive& entry = node.second;
  (entry.prev != nullptr ? entry.prev->second.next : list->second.head) =
      entry.next;
  (entry.next != nullptr ? entry.next->second.prev : list->second.tail) =
      entry.prev;
  if (list->second.head == nullptr) expiry_index_.erase(list);
}

template <typename Map>
typename Map::iterator Cache::erase(Map& map, typename Map::iterator it) {
  if constexpr (std::is_same_v<typename Map::mapped_type, Positive>)
    unlink(*it);
  return map.erase(it);
}

template <typename Map>
void Cache::make_room(Map& map, sim::SimTime now, sim::SimTime retention) {
  if (map.size() < options_.max_entries) return;

  // Pass 1: sweep entries that are past all usefulness. Before this sweep
  // existed, dead entries lingered until the map hit the cap and was wiped
  // wholesale — taking every live entry down with them.
  for (auto it = map.begin(); it != map.end();) {
    if (beyond_retention(expires_of(it->second), now, retention)) {
      it = erase(map, it);
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
  for (const auto& [key, value] : map) expiries.push_back(expires_of(value));
  std::nth_element(expiries.begin(),
                   expiries.begin() + static_cast<std::ptrdiff_t>(evict - 1),
                   expiries.end());
  const sim::SimTime cutoff = expiries[evict - 1];

  // Every entry expiring before the cutoff goes (fewer than `evict` of
  // them, by the cutoff's rank); the rest of the batch comes from the
  // entries tied at the cutoff, in canonical key order. So no kept entry
  // expires before an evicted one, and the choice among ties does not
  // depend on the hash map's iteration order.
  std::vector<typename Map::iterator> tied;
  for (auto it = map.begin(); it != map.end();) {
    const sim::SimTime expires = expires_of(it->second);
    if (expires < cutoff) {
      it = erase(map, it);
      --evict;
      ++stats_.evicted_capacity;
    } else {
      if (expires == cutoff) tied.push_back(it);
      ++it;
    }
  }
  std::sort(tied.begin(), tied.end(), [](const auto& a, const auto& b) {
    return a->first.canonical_before(b->first);
  });
  for (std::size_t i = 0; i < evict; ++i) {
    erase(map, tied[i]);
    ++stats_.evicted_capacity;
  }
}

void Cache::put_positive(PositiveEntry entry, sim::SimTime now) {
  if (!options_.enabled) return;
  make_room(positive_, now, options_.stale_window);
  auto [it, inserted] =
      positive_.try_emplace(CacheKey{entry.rrset.name, entry.rrset.type});
  if (!inserted) unlink(*it);
  it->second.entry = std::move(entry);
  link(*it);
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
  if (it == positive_.end() || it->second.entry.expires < now) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return &it->second.entry;
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
  const PositiveEntry& entry = it->second.entry;
  if (entry.expires >= now) {  // still fresh
    ++stats_.lookups;
    ++stats_.hits;
    return &entry;
  }
  if (now - entry.expires > options_.stale_window) return nullptr;
  ++stats_.lookups;
  ++stats_.stale_hits;
  return &entry;
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
  for (auto list = expiry_index_.lower_bound(now);
       list != expiry_index_.end() && list->first <= horizon; ++list) {
    for (const PositiveNode* node = list->second.head; node != nullptr;
         node = node->second.next)
      keys.push_back(node->first);
  }
  return keys;
}

void Cache::clear() {
  positive_.clear();
  expiry_index_.clear();
  negative_.clear();
  servfail_.clear();
}

std::size_t Cache::size() const {
  return positive_.size() + negative_.size() + servfail_.size();
}

}  // namespace ede::resolver
