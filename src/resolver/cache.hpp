// Resolver cache: positive RRset cache, negative cache and a SERVFAIL
// ("cached error") cache, with optional stale-answer retention
// (RFC 8767). The stale and cached-error paths are what produce EDE codes
// 3, 19 and 13 in the paper's wild scan. The three maps are hash maps
// keyed by (name, type); an expiry index orders the positive entries for
// the prefetcher (DESIGN.md §5m).
#pragma once

#include <compare>
#include <map>
#include <unordered_map>
#include <vector>

#include "dnscore/counters.hpp"
#include "dnscore/rr.hpp"
#include "dnssec/findings.hpp"
#include "simnet/clock.hpp"

namespace ede::resolver {

/// One cache slot. Equality is Name::equals (case-insensitive) plus the
/// type, and CacheKeyHash agrees with it, so the maps need no name order.
struct CacheKey {
  dns::Name name;
  dns::RRType type = dns::RRType::A;

  bool operator==(const CacheKey&) const = default;

  /// Canonical name order (RFC 4034 §6.1), then type: the explicit
  /// tie-break of capacity eviction and of the prefetch ranking, the two
  /// places where an order of keys is observable.
  [[nodiscard]] bool canonical_before(const CacheKey& other) const {
    if (const auto c = name.canonical_compare(other.name); std::is_neq(c))
      return std::is_lt(c);
    return type < other.type;
  }
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& key) const {
    return key.name.hash() ^
           (static_cast<std::size_t>(key.type) * 0x9e3779b97f4a7c15ULL);
  }
};

struct PositiveEntry {
  dns::RRset rrset;
  std::vector<dns::RrsigRdata> signatures;
  dnssec::Security security = dnssec::Security::Indeterminate;
  sim::SimTime expires = 0;
};

struct NegativeEntry {
  bool nxdomain = false;
  dnssec::Security security = dnssec::Security::Indeterminate;
  sim::SimTime expires = 0;
};

struct ServfailEntry {
  std::vector<dnssec::Finding> findings;
  sim::SimTime expires = 0;
};

/// RFC 2308 cap on SERVFAIL caching: how long a cached SERVFAIL holds.
inline constexpr sim::SimTime kServfailTtl = 30;

class Cache {
 public:
  struct Options {
    bool enabled = true;
    /// How long past expiry an entry may still be served stale.
    sim::SimTime stale_window = 86'400 * 7;
    /// Entry cap per map. An insert at the cap first sweeps entries that
    /// are beyond any usefulness (expired longer than the stale window
    /// ago), then evicts oldest-expiring entries in a small batch (ties
    /// at the batch's cutoff in canonical key order) — live entries are
    /// never dropped wholesale, and no kept entry expires before an
    /// evicted one.
    std::size_t max_entries = 400'000;
  };

  explicit Cache(Options options) : options_(options) {}
  Cache() : Cache(Options{}) {}
  // The expiry index points into positive_'s nodes: a move keeps them, a
  // copy would not.
  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;
  Cache(Cache&&) = default;
  Cache& operator=(Cache&&) = default;

  [[nodiscard]] const Options& options() const { return options_; }

  /// Inserts take the current simulated time so eviction can tell dead
  /// entries from live ones; `now == 0` (no clock) skips the expiry sweep
  /// and falls back to oldest-expiring eviction alone.
  void put_positive(PositiveEntry entry, sim::SimTime now = 0);
  void put_negative(const dns::Name& name, dns::RRType type,
                    NegativeEntry entry, sim::SimTime now = 0);
  void put_servfail(const dns::Name& name, dns::RRType type,
                    ServfailEntry entry, sim::SimTime now = 0);

  /// Fresh lookups honour expiry; stale lookups return entries that
  /// expired no longer than stale_window ago.
  [[nodiscard]] const PositiveEntry* get_positive(const dns::Name& name,
                                                  dns::RRType type,
                                                  sim::SimTime now) const;
  [[nodiscard]] const PositiveEntry* get_stale_positive(const dns::Name& name,
                                                        dns::RRType type,
                                                        sim::SimTime now) const;
  [[nodiscard]] const NegativeEntry* get_negative(const dns::Name& name,
                                                  dns::RRType type,
                                                  sim::SimTime now) const;
  [[nodiscard]] const NegativeEntry* get_stale_negative(const dns::Name& name,
                                                        dns::RRType type,
                                                        sim::SimTime now) const;
  [[nodiscard]] const ServfailEntry* get_servfail(const dns::Name& name,
                                                  dns::RRType type,
                                                  sim::SimTime now) const;

  void clear();
  [[nodiscard]] std::size_t size() const;

  /// Expiry introspection (the prefetcher's view of the cache): keys of
  /// fresh positive entries that expire within `within_ms` of `now`, in
  /// ascending expiry order, entries expiring in the same second in the
  /// order they were last written. Read off the expiry index, so the
  /// cost follows the answer, not the cache size. Entries already
  /// expired are not listed — refreshing them is serve-stale's job, not
  /// the prefetcher's. A pure read: it never touches Stats, so the
  /// hits/misses/stale_hits partition keeps counting only real serving
  /// lookups.
  [[nodiscard]] std::vector<CacheKey> expiring_within(
      sim::SimTimeMs within_ms, sim::SimTime now) const;

  /// Counting contract (holds the invariant
  ///     hits + misses + stale_hits == lookups
  /// across the positive, negative and SERVFAIL maps):
  ///
  /// - A fresh getter counts one lookup, plus a hit or a miss.
  /// - A stale getter counts a lookup ONLY when it serves something (a hit
  ///   if the entry turned out still fresh, a stale_hit if it was inside
  ///   the stale window). When it returns nullptr it counts nothing at
  ///   all: every resolver serve-stale path reaches a stale getter only as
  ///   the fallback of a fresh lookup that already booked the miss, so
  ///   re-counting here double-counted the same logical lookup (the old
  ///   behaviour made hits + misses + stale_hits drift above lookups).
  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stale_hits = 0;
    std::uint64_t evicted_expired = 0;   // swept past the stale horizon
    std::uint64_t evicted_capacity = 0;  // live but oldest-expiring at cap

    /// Fold another delta in (scan shards aggregate cache activity this
    /// way; preserves the hits + misses + stale_hits == lookups
    /// invariant since it holds per shard).
    void merge(const Stats& other) { obs::merge(*this, other); }

    static constexpr std::array<obs::Row<Stats>, 6> kCounters{{
        {"lookups", &Stats::lookups},
        {"hits", &Stats::hits},
        {"misses", &Stats::misses},
        {"stale_hits", &Stats::stale_hits},
        {"evicted_expired", &Stats::evicted_expired},
        {"evicted_capacity", &Stats::evicted_capacity},
    }};
  };
  static_assert(obs::covers_every_member<Stats>());
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  /// The expiry index threads every positive entry onto the list of its
  /// expiry second, in write order; `expiry_index_` maps each second that
  /// has entries to its list. The links live in the entries themselves
  /// (hash-map nodes never move), so the index costs two pointers per
  /// entry plus one node per distinct second, and holds no name.
  struct Positive;
  using PositiveNode = std::pair<const CacheKey, Positive>;
  struct Positive {
    PositiveEntry entry;
    PositiveNode* prev = nullptr;
    PositiveNode* next = nullptr;
  };
  struct ExpiryList {
    PositiveNode* head = nullptr;
    PositiveNode* tail = nullptr;
  };

  template <typename Map>
  void make_room(Map& map, sim::SimTime now, sim::SimTime retention);
  /// Erase one entry (and unlink a positive one from the expiry index).
  template <typename Map>
  typename Map::iterator erase(Map& map, typename Map::iterator it);
  /// Append to / remove from the list of the entry's current expiry.
  void link(PositiveNode& node);
  void unlink(PositiveNode& node);

  Options options_;
  std::unordered_map<CacheKey, Positive, CacheKeyHash> positive_;
  std::unordered_map<CacheKey, NegativeEntry, CacheKeyHash> negative_;
  std::unordered_map<CacheKey, ServfailEntry, CacheKeyHash> servfail_;
  std::map<sim::SimTime, ExpiryList> expiry_index_;
  mutable Stats stats_;
};

}  // namespace ede::resolver
