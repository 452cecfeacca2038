// Resolver cache: positive RRset cache, negative cache and a SERVFAIL
// ("cached error") cache, with optional stale-answer retention
// (RFC 8767). The stale and cached-error paths are what produce EDE codes
// 3, 19 and 13 in the paper's wild scan.
#pragma once

#include <map>
#include <vector>

#include "dnscore/counters.hpp"
#include "dnscore/rr.hpp"
#include "dnssec/findings.hpp"
#include "simnet/clock.hpp"

namespace ede::resolver {

struct CacheKey {
  dns::Name name;
  dns::RRType type = dns::RRType::A;

  bool operator<(const CacheKey& other) const {
    if (const auto c = name.canonical_compare(other.name);
        c != std::strong_ordering::equal)
      return c == std::strong_ordering::less;
    return type < other.type;
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
    /// ago), then evicts oldest-expiring entries in a small batch — live
    /// entries are never dropped wholesale.
    std::size_t max_entries = 400'000;
  };

  explicit Cache(Options options) : options_(options) {}
  Cache() : Cache(Options{}) {}

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
  /// canonical key order (deterministic for report emitters and the
  /// prefetch scheduler). Entries already expired are not listed —
  /// refreshing them is serve-stale's job, not the prefetcher's. A pure
  /// read: it never touches Stats, so the hits/misses/stale_hits
  /// partition keeps counting only real serving lookups.
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
  template <typename Map>
  void make_room(Map& map, sim::SimTime now, sim::SimTime retention);

  Options options_;
  std::map<CacheKey, PositiveEntry> positive_;
  std::map<CacheKey, NegativeEntry> negative_;
  std::map<CacheKey, ServfailEntry> servfail_;
  mutable Stats stats_;
};

}  // namespace ede::resolver
