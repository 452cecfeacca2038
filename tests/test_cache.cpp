// Resolver-cache unit tests: freshness, staleness windows, the SERVFAIL
// cache, eviction caps and statistics.
#include <gtest/gtest.h>

#include <string>

#include "resolver/cache.hpp"

namespace {

using namespace ede::resolver;
using ede::dns::Name;
using ede::dns::RRType;

PositiveEntry entry_for(const char* name, ede::sim::SimTime expires) {
  PositiveEntry entry;
  entry.rrset = ede::dns::RRset{
      Name::of(name), RRType::A, ede::dns::RRClass::IN, 300,
      {ede::dns::Rdata{
          ede::dns::ARdata{*ede::dns::Ipv4Address::parse("192.0.2.1")}}}};
  entry.security = ede::dnssec::Security::Secure;
  entry.expires = expires;
  return entry;
}

TEST(Cache, FreshPositiveHit) {
  Cache cache;
  cache.put_positive(entry_for("a.test", 1000));
  EXPECT_NE(cache.get_positive(Name::of("a.test"), RRType::A, 999), nullptr);
  EXPECT_NE(cache.get_positive(Name::of("a.test"), RRType::A, 1000), nullptr);
  EXPECT_EQ(cache.get_positive(Name::of("a.test"), RRType::A, 1001), nullptr);
}

TEST(Cache, LookupIsCaseInsensitive) {
  Cache cache;
  cache.put_positive(entry_for("A.Test", 1000));
  EXPECT_NE(cache.get_positive(Name::of("a.TEST"), RRType::A, 500), nullptr);
}

TEST(Cache, TypeIsPartOfTheKey) {
  Cache cache;
  cache.put_positive(entry_for("a.test", 1000));
  EXPECT_EQ(cache.get_positive(Name::of("a.test"), RRType::AAAA, 500),
            nullptr);
}

TEST(Cache, StaleLookupHonoursTheWindow) {
  Cache::Options options;
  options.stale_window = 100;
  Cache cache(options);
  cache.put_positive(entry_for("a.test", 1000));
  // Fresh entries are returned too.
  EXPECT_NE(cache.get_stale_positive(Name::of("a.test"), RRType::A, 900),
            nullptr);
  // Expired but within the window.
  EXPECT_NE(cache.get_stale_positive(Name::of("a.test"), RRType::A, 1050),
            nullptr);
  // Beyond the window.
  EXPECT_EQ(cache.get_stale_positive(Name::of("a.test"), RRType::A, 1101),
            nullptr);
}

TEST(Cache, NegativeEntries) {
  Cache cache;
  cache.put_negative(Name::of("n.test"), RRType::A, {true,
                     ede::dnssec::Security::Secure, 500});
  const auto* hit = cache.get_negative(Name::of("n.test"), RRType::A, 400);
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->nxdomain);
  EXPECT_EQ(cache.get_negative(Name::of("n.test"), RRType::A, 501), nullptr);
  // Stale negative.
  EXPECT_NE(cache.get_stale_negative(Name::of("n.test"), RRType::A, 600),
            nullptr);
}

TEST(Cache, ServfailEntriesCarryFindings) {
  Cache cache;
  ServfailEntry entry;
  entry.findings.push_back({ede::dnssec::Stage::Transport,
                            ede::dnssec::Defect::ServerRefused, "x"});
  entry.expires = 100;
  cache.put_servfail(Name::of("s.test"), RRType::A, entry);
  const auto* hit = cache.get_servfail(Name::of("s.test"), RRType::A, 50);
  ASSERT_NE(hit, nullptr);
  ASSERT_EQ(hit->findings.size(), 1u);
  EXPECT_EQ(hit->findings.front().defect,
            ede::dnssec::Defect::ServerRefused);
  EXPECT_EQ(cache.get_servfail(Name::of("s.test"), RRType::A, 101), nullptr);
}

TEST(Cache, DisabledCacheStoresNothing) {
  Cache::Options options;
  options.enabled = false;
  Cache cache(options);
  cache.put_positive(entry_for("a.test", 1000));
  EXPECT_EQ(cache.get_positive(Name::of("a.test"), RRType::A, 10), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(Cache, EvictionCapBoundsMemory) {
  Cache::Options options;
  options.max_entries = 10;
  Cache cache(options);
  for (int i = 0; i < 25; ++i) {
    cache.put_positive(
        entry_for(("d" + std::to_string(i) + ".test").c_str(), 1000));
  }
  EXPECT_LE(cache.size(), options.max_entries);
}

TEST(Cache, InsertAtCapacityNeverWipesTheMap) {
  // Regression: the old eviction called .clear() on the whole map at the
  // cap, nuking every live entry. An insert at capacity must keep all but
  // (at most) a small oldest-expiring batch.
  Cache::Options options;
  options.max_entries = 64;
  Cache cache(options);
  for (int i = 0; i < 64; ++i) {
    cache.put_positive(entry_for(("d" + std::to_string(i) + ".test").c_str(),
                                 static_cast<ede::sim::SimTime>(1000 + i)),
                       /*now=*/500);
  }
  cache.put_positive(entry_for("straw.test", 2000), /*now=*/500);

  EXPECT_LE(cache.size(), options.max_entries);
  // At least 15/16 of the live entries survive the capacity eviction.
  EXPECT_GE(cache.size(), options.max_entries - options.max_entries / 16);
  EXPECT_NE(cache.get_positive(Name::of("straw.test"), RRType::A, 600),
            nullptr);
  // The survivors are the *youngest*-expiring; the very last entry
  // inserted before the straw expires latest of the original 64.
  EXPECT_NE(cache.get_positive(Name::of("d63.test"), RRType::A, 600),
            nullptr);
}

TEST(Cache, CapacityEvictionTakesTheOldestExpiringFirst) {
  Cache::Options options;
  options.max_entries = 4;
  options.stale_window = 0;
  Cache cache(options);
  cache.put_positive(entry_for("a.test", 100), 50);
  cache.put_positive(entry_for("b.test", 200), 50);
  cache.put_positive(entry_for("c.test", 300), 50);
  cache.put_positive(entry_for("d.test", 400), 50);
  cache.put_positive(entry_for("e.test", 500), 50);  // at cap: evicts a.test

  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.get_positive(Name::of("a.test"), RRType::A, 60), nullptr);
  for (const char* name : {"b.test", "c.test", "d.test", "e.test"}) {
    EXPECT_NE(cache.get_positive(Name::of(name), RRType::A, 60), nullptr)
        << name;
  }
  EXPECT_EQ(cache.stats().evicted_capacity, 1u);
  EXPECT_EQ(cache.stats().evicted_expired, 0u);
}

// Regression: pass 2 used to erase the first `evict` entries expiring at
// or before the cutoff in map order, so entries tied at the cutoff could
// go while an older one stayed. Everything older than the cutoff goes
// first; ties at the cutoff go in canonical key order.
TEST(Cache, CapacityEvictionNeverKeepsAnEntryOlderThanOneItEvicts) {
  Cache::Options options;
  options.max_entries = 32;
  Cache cache(options);
  cache.put_positive(entry_for("a1.test", 200), 50);
  cache.put_positive(entry_for("a2.test", 200), 50);
  cache.put_positive(entry_for("old.test", 100), 50);
  for (int i = 0; i < 29; ++i) {
    cache.put_positive(entry_for(("z" + std::to_string(i) + ".test").c_str(),
                                 static_cast<ede::sim::SimTime>(300 + i)),
                       50);
  }
  ASSERT_EQ(cache.size(), 32u);
  // The cap batch is 32 / 16 = 2 entries: old.test and then a1.test, the
  // canonically first of the two entries tied at the cutoff (200).
  cache.put_positive(entry_for("new.test", 900), 50);

  EXPECT_EQ(cache.stats().evicted_capacity, 2u);
  EXPECT_EQ(cache.get_positive(Name::of("old.test"), RRType::A, 60), nullptr);
  EXPECT_EQ(cache.get_positive(Name::of("a1.test"), RRType::A, 60), nullptr);
  EXPECT_NE(cache.get_positive(Name::of("a2.test"), RRType::A, 60), nullptr);
  EXPECT_NE(cache.get_positive(Name::of("new.test"), RRType::A, 60), nullptr);
  EXPECT_EQ(cache.size(), 31u);
  // The expiry index lost the evicted entries with them.
  const auto keys = cache.expiring_within(1'000'000, /*now=*/60);
  ASSERT_EQ(keys.size(), 31u);
  EXPECT_EQ(keys.front().name, Name::of("a2.test"));
}

TEST(Cache, InsertAtCapacitySweepsEntriesPastTheStaleHorizon) {
  Cache::Options options;
  options.max_entries = 4;
  options.stale_window = 10;
  Cache cache(options);
  // Three entries expired beyond expiry+stale_window, one still stale-
  // servable, then an insert at the cap with the clock at 200.
  cache.put_positive(entry_for("dead1.test", 100), 100);
  cache.put_positive(entry_for("dead2.test", 120), 120);
  cache.put_positive(entry_for("dead3.test", 140), 140);
  cache.put_positive(entry_for("stale.test", 195), 150);
  cache.put_positive(entry_for("fresh.test", 900), 200);

  // The dead entries were swept; the stale-window entry survived.
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evicted_expired, 3u);
  EXPECT_EQ(cache.stats().evicted_capacity, 0u);
  EXPECT_NE(cache.get_stale_positive(Name::of("stale.test"), RRType::A, 200),
            nullptr);
  EXPECT_NE(cache.get_positive(Name::of("fresh.test"), RRType::A, 200),
            nullptr);
}

TEST(Cache, NegativeAndServfailMapsEvictWithoutWiping) {
  Cache::Options options;
  options.max_entries = 3;
  options.stale_window = 0;
  Cache cache(options);
  for (int i = 0; i < 6; ++i) {
    const auto name = Name::of(("n" + std::to_string(i) + ".test").c_str());
    cache.put_negative(name, RRType::A,
                       {true, ede::dnssec::Security::Insecure,
                        static_cast<ede::sim::SimTime>(100 + i)},
                       50);
    cache.put_servfail(name, RRType::A,
                       {{}, static_cast<ede::sim::SimTime>(100 + i)}, 50);
  }
  // Each map holds its newest-expiring entries, never zero.
  EXPECT_NE(cache.get_negative(Name::of("n5.test"), RRType::A, 60), nullptr);
  EXPECT_NE(cache.get_servfail(Name::of("n5.test"), RRType::A, 60), nullptr);
  EXPECT_EQ(cache.get_negative(Name::of("n0.test"), RRType::A, 60), nullptr);
  EXPECT_EQ(cache.get_servfail(Name::of("n0.test"), RRType::A, 60), nullptr);
  EXPECT_LE(cache.size(), 2 * options.max_entries);
  EXPECT_GE(cache.size(), 4u);
}

TEST(Cache, ClearEmptiesEverything) {
  Cache cache;
  cache.put_positive(entry_for("a.test", 1000));
  cache.put_negative(Name::of("b.test"), RRType::A, {});
  cache.put_servfail(Name::of("c.test"), RRType::A, {});
  EXPECT_EQ(cache.size(), 3u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(Cache, StatsTrackHitsAndMisses) {
  Cache cache;
  cache.put_positive(entry_for("a.test", 1000));
  (void)cache.get_positive(Name::of("a.test"), RRType::A, 10);
  (void)cache.get_positive(Name::of("b.test"), RRType::A, 10);
  (void)cache.get_stale_positive(Name::of("a.test"), RRType::A, 1500);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().stale_hits, 1u);
  EXPECT_EQ(cache.stats().lookups, 3u);
}

// The counting contract: every answered or missed lookup is counted
// exactly once, so the outcome counters always partition the lookups.
// (The serve-stale path used to double-count: the fresh miss was booked,
// then the stale fallback re-booked the same client question.)
TEST(Cache, StatsPartitionLookupsExactly) {
  Cache::Options options;
  options.stale_window = 100;
  Cache cache(options);
  cache.put_positive(entry_for("a.test", 1000));
  NegativeEntry negative;
  negative.nxdomain = true;
  negative.expires = 1000;
  cache.put_negative(Name::of("n.test"), RRType::A, negative);
  ServfailEntry servfail;
  servfail.expires = 100;
  cache.put_servfail(Name::of("s.test"), RRType::A, servfail);

  (void)cache.get_positive(Name::of("a.test"), RRType::A, 10);      // hit
  (void)cache.get_positive(Name::of("a.test"), RRType::A, 1500);    // miss
  (void)cache.get_stale_positive(Name::of("a.test"), RRType::A, 500);   // hit
  (void)cache.get_stale_positive(Name::of("a.test"), RRType::A, 1050);  // stale
  (void)cache.get_stale_positive(Name::of("a.test"), RRType::A, 1200);  // gone
  (void)cache.get_stale_positive(Name::of("x.test"), RRType::A, 10);    // gone
  (void)cache.get_negative(Name::of("n.test"), RRType::A, 10);      // hit
  (void)cache.get_negative(Name::of("x.test"), RRType::A, 10);      // miss
  (void)cache.get_stale_negative(Name::of("n.test"), RRType::A, 10);    // hit
  (void)cache.get_servfail(Name::of("s.test"), RRType::A, 10);      // hit
  (void)cache.get_servfail(Name::of("s.test"), RRType::A, 500);     // miss

  const auto& stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.stale_hits, stats.lookups);
  EXPECT_EQ(stats.hits, 5u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.stale_hits, 1u);
  EXPECT_EQ(stats.lookups, 9u);
}

// --- expiry introspection (the prefetcher's view) ------------------------

TEST(Cache, ExpiringWithinListsTheHorizonInExpiryOrder) {
  Cache cache;
  cache.put_positive(entry_for("soon.test", 1010));
  cache.put_positive(entry_for("later.test", 1200));
  cache.put_positive(entry_for("aaa-soon.test", 1005));
  cache.put_positive(entry_for("gone.test", 900));  // already expired

  const auto keys = cache.expiring_within(30'000, /*now=*/1000);
  ASSERT_EQ(keys.size(), 2u);
  // Soonest expiry first (deterministic for the prefetch scheduler).
  EXPECT_EQ(keys[0].name, Name::of("aaa-soon.test"));
  EXPECT_EQ(keys[1].name, Name::of("soon.test"));

  // The millisecond horizon rounds up to the next whole second.
  const auto tight = cache.expiring_within(4'500, /*now=*/1000);
  ASSERT_EQ(tight.size(), 1u);
  EXPECT_EQ(tight[0].name, Name::of("aaa-soon.test"));

  // A wide-open horizon lists every fresh entry, never the expired one.
  EXPECT_EQ(cache.expiring_within(1'000'000, /*now=*/1000).size(), 3u);
}

TEST(Cache, ExpiringWithinIsExpiryOrderNotNameOrder) {
  Cache cache;
  cache.put_positive(entry_for("aaa.test", 1008));
  cache.put_positive(entry_for("zzz.test", 1003));
  // Two entries expiring in the same second: insertion order.
  cache.put_positive(entry_for("m2.test", 1020));
  cache.put_positive(entry_for("m1.test", 1020));

  const auto keys = cache.expiring_within(30'000, /*now=*/1000);
  ASSERT_EQ(keys.size(), 4u);
  EXPECT_EQ(keys[0].name, Name::of("zzz.test"));
  EXPECT_EQ(keys[1].name, Name::of("aaa.test"));
  EXPECT_EQ(keys[2].name, Name::of("m2.test"));
  EXPECT_EQ(keys[3].name, Name::of("m1.test"));
}

TEST(Cache, ExpiringWithinListsAnOverwrittenEntryOnceAtItsNewExpiry) {
  Cache cache;
  cache.put_positive(entry_for("a.test", 1010));
  cache.put_positive(entry_for("b.test", 1020));
  cache.put_positive(entry_for("A.Test", 1030));  // overwrites a.test

  const auto keys = cache.expiring_within(60'000, /*now=*/1000);
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0].name, Name::of("b.test"));
  EXPECT_EQ(keys[1].name, Name::of("a.test"));
  // Moved out of the old expiry's window with the overwrite.
  EXPECT_TRUE(cache.expiring_within(15'000, /*now=*/1000).empty());
}

TEST(Cache, ExpiringWithinForgetsEvictedAndClearedEntries) {
  Cache::Options options;
  options.max_entries = 2;
  options.stale_window = 10;
  Cache cache(options);
  cache.put_positive(entry_for("dead.test", 100), 100);
  cache.put_positive(entry_for("old.test", 1005), 100);
  // At the cap with the clock at 200, dead.test is past its stale window
  // and swept; at the cap again, the batch of one evicts old.test.
  cache.put_positive(entry_for("new.test", 1010), 200);
  EXPECT_EQ(cache.stats().evicted_expired, 1u);
  cache.put_positive(entry_for("newer.test", 1020), 200);
  EXPECT_EQ(cache.stats().evicted_capacity, 1u);

  // A horizon from time zero would list all four, had the index kept them.
  const auto keys = cache.expiring_within(10'000'000, /*now=*/0);
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0].name, Name::of("new.test"));
  EXPECT_EQ(keys[1].name, Name::of("newer.test"));

  cache.clear();
  EXPECT_TRUE(cache.expiring_within(10'000'000, /*now=*/0).empty());
  // A cleared cache starts its index afresh.
  cache.put_positive(entry_for("again.test", 1010), 200);
  ASSERT_EQ(cache.expiring_within(10'000'000, /*now=*/0).size(), 1u);
}

TEST(Cache, IntrospectionNeverTouchesTheStats) {
  Cache cache;
  cache.put_positive(entry_for("a.test", 1000));
  (void)cache.get_positive(Name::of("a.test"), RRType::A, 10);    // hit
  (void)cache.get_positive(Name::of("miss.test"), RRType::A, 10); // miss
  const auto before = cache.stats();

  (void)cache.expiring_within(60'000, 10);

  const auto& after = cache.stats();
  EXPECT_EQ(after.lookups, before.lookups);
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.stale_hits, before.stale_hits);
  // The partition invariant keeps holding around introspection reads.
  EXPECT_EQ(after.hits + after.misses + after.stale_hits, after.lookups);
}

}  // namespace
