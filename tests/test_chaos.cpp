// Chaos tests: the adversarial transport driving the resolver's adaptive
// retry machinery end to end. A scripted fault window kills the control
// domain's authority mid-scenario and the EDE diagnosis must progress
// exactly the way the paper's lame-delegation story predicts: connectivity
// codes (22/23) while the server is down, Stale Answer (3) while the infra
// cache holds the dead server down without spending packets on it, and a
// clean validated NOERROR after recovery. Everything runs under the seeded
// latency model, so the whole storyline is deterministic and the
// inter-attempt spacing of the exponential backoff is assertable.
#include <gtest/gtest.h>

#include <sstream>

#include "edns/ede.hpp"
#include "edns/edns.hpp"
#include "resolver/forwarder.hpp"
#include "resolver/resolver.hpp"
#include "resolver/retry.hpp"
#include "scan/report.hpp"
#include "scan/scanner.hpp"
#include "scan/world.hpp"
#include "server/auth_server.hpp"
#include "simnet/byzantine.hpp"
#include "testbed/testbed.hpp"

namespace {

using namespace ede;
using resolver::RecursiveResolver;
using resolver::ResolverOptions;
using resolver::RetryPolicy;

/// The Cloudflare profile with its retry/backoff policy replaced.
resolver::ResolverProfile cloudflare_with(const RetryPolicy& retry) {
  auto profile = resolver::profile_cloudflare();
  profile.retry = retry;
  return profile;
}

class ChaosTest : public ::testing::Test {
 protected:
  ChaosTest()
      : clock_(std::make_shared<sim::Clock>()),
        network_(std::make_shared<sim::Network>(clock_)),
        testbed_(network_) {
    child_addr_ = testbed_.server_address("valid").value();
  }

  RecursiveResolver make(
      ResolverOptions options = {},
      resolver::ResolverProfile profile = resolver::profile_cloudflare()) {
    return testbed_.make_resolver(std::move(profile), options);
  }

  static dns::Name valid_name() {
    return dns::Name::of("valid.extended-dns-errors.com");
  }

  static bool has_code(const resolver::Outcome& outcome, edns::EdeCode code) {
    for (const auto& error : outcome.errors)
      if (error.code == code) return true;
    return false;
  }

  std::vector<sim::Network::SendRecord> sends_to_child() const {
    std::vector<sim::Network::SendRecord> out;
    for (const auto& record : network_->send_log())
      if (record.destination == child_addr_) out.push_back(record);
    return out;
  }

  std::shared_ptr<sim::Clock> clock_;
  std::shared_ptr<sim::Network> network_;
  testbed::Testbed testbed_;
  sim::NodeAddress child_addr_;
};

// The headline scenario from the issue: healthy -> scripted outage ->
// hold-down -> recovery, with the EDE progression 22/23 -> 3 -> none.
TEST_F(ChaosTest, ScriptedOutageWalksTheEdeProgression) {
  network_->set_latency({.enabled = true, .base_rtt_ms = 20, .jitter_ms = 8,
                         .seed = 0xc4a05});

  RetryPolicy retry;
  retry.initial_timeout_ms = 400;
  retry.backoff_factor = 2.0;
  retry.attempts_per_server = 4;  // enough probes to watch the backoff grow
  auto resolver = make({}, cloudflare_with(retry));

  // Act 1 — healthy: a validated answer lands in the cache.
  const auto healthy = resolver.resolve(valid_name(), dns::RRType::A);
  EXPECT_EQ(healthy.rcode, dns::RCode::NOERROR);
  EXPECT_EQ(healthy.security, dnssec::Security::Secure);
  EXPECT_TRUE(healthy.errors.empty());

  // Act 2 — the authority dies for a scripted window 4000 s from now
  // (past the 3600 s TTLs, so resolution must go upstream into it).
  const auto t0 = clock_->now();
  network_->fail_between(child_addr_, t0 + 4000, t0 + 8000);
  clock_->set(t0 + 4000);
  network_->record_sends(true);

  // An uncached qtype forces the resolver upstream into the outage: every
  // probe times out and the connectivity codes surface.
  const auto down = resolver.resolve(valid_name(), dns::RRType::TXT);
  EXPECT_EQ(down.rcode, dns::RCode::SERVFAIL);
  EXPECT_TRUE(has_code(down, edns::EdeCode::NoReachableAuthority));  // 22
  EXPECT_TRUE(has_code(down, edns::EdeCode::NetworkError));          // 23

  // The retransmission schedule to the dead server backs off
  // exponentially: consecutive gaps strictly increase, each doubling.
  const auto probes = sends_to_child();
  ASSERT_GE(probes.size(), 4u);
  EXPECT_FALSE(probes[0].retransmission);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_TRUE(probes[i].retransmission);
    EXPECT_GT(probes[i].at_ms, probes[i - 1].at_ms);
  }
  const auto gap1 = probes[1].at_ms - probes[0].at_ms;
  const auto gap2 = probes[2].at_ms - probes[1].at_ms;
  const auto gap3 = probes[3].at_ms - probes[2].at_ms;
  EXPECT_EQ(gap1, 400u);
  EXPECT_EQ(gap2, 2 * gap1);
  EXPECT_EQ(gap3, 2 * gap2);
  EXPECT_GE(network_->stats().retransmits, 3u);

  // Four consecutive timeouts passed the hold-down threshold.
  EXPECT_GE(resolver.infra().stats().holddowns_started, 1u);

  // Act 3 — hold-down: the A record is served stale (EDE 3) and not one
  // packet is spent probing the held-down authority.
  network_->record_sends(true);  // resets the log
  const auto stale = resolver.resolve(valid_name(), dns::RRType::A);
  EXPECT_EQ(stale.rcode, dns::RCode::NOERROR);
  EXPECT_TRUE(has_code(stale, edns::EdeCode::StaleAnswer));    // 3
  EXPECT_TRUE(has_code(stale, edns::EdeCode::NetworkError));   // 23 preserved
  EXPECT_TRUE(sends_to_child().empty());
  EXPECT_GE(resolver.infra().stats().holddown_skips, 1u);

  // Act 4 — recovery: past the fault window and the hold-down, the next
  // resolution walks the hierarchy again and validates cleanly.
  clock_->set(t0 + 9000);
  const auto recovered = resolver.resolve(valid_name(), dns::RRType::A);
  EXPECT_EQ(recovered.rcode, dns::RCode::NOERROR);
  EXPECT_EQ(recovered.security, dnssec::Security::Secure);
  EXPECT_TRUE(recovered.errors.empty());
}

// The same scenario replayed on a fresh stack with the same seed produces
// a bit-identical transcript: rcodes, EDE codes and probe timestamps.
TEST(ChaosDeterminism, FixedSeedReplaysTheSameStoryline) {
  const auto run = [] {
    auto clock = std::make_shared<sim::Clock>();
    auto network = std::make_shared<sim::Network>(clock);
    testbed::Testbed testbed(network);
    const auto child = testbed.server_address("valid").value();
    network->set_latency({.enabled = true, .base_rtt_ms = 20, .jitter_ms = 8,
                          .seed = 0xc4a05});
    RetryPolicy retry;
    retry.attempts_per_server = 4;
    auto resolver = testbed.make_resolver(cloudflare_with(retry));

    std::ostringstream transcript;
    const auto log = [&](const resolver::Outcome& outcome) {
      transcript << static_cast<int>(outcome.rcode) << ':';
      for (const auto& error : outcome.errors)
        transcript << static_cast<std::uint16_t>(error.code) << ',';
      transcript << ';';
    };

    network->record_sends(true);
    log(resolver.resolve(dns::Name::of("valid.extended-dns-errors.com"),
                         dns::RRType::A));
    const auto t0 = clock->now();
    network->fail_between(child, t0 + 4000, t0 + 8000);
    clock->set(t0 + 4000);
    log(resolver.resolve(dns::Name::of("valid.extended-dns-errors.com"),
                         dns::RRType::TXT));
    log(resolver.resolve(dns::Name::of("valid.extended-dns-errors.com"),
                         dns::RRType::A));
    clock->set(t0 + 9000);
    log(resolver.resolve(dns::Name::of("valid.extended-dns-errors.com"),
                         dns::RRType::A));
    for (const auto& record : network->send_log()) {
      transcript << record.at_ms << '@' << record.destination.to_string()
                 << (record.retransmission ? "R" : "") << ' ';
    }
    return transcript.str();
  };

  const auto first = run();
  const auto second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// The acceptance bar for the infrastructure cache: on a population where
// the same dead provider addresses serve many lame delegations, enabling
// it measurably cuts packets while the per-code EDE classification stays
// byte-for-byte identical.
TEST(ChaosScan, InfraCacheSavesPacketsWithoutChangingTheDiagnosis) {
  // Large enough that the 15-slot Timeout pool and 64-slot Unroutable
  // pool are each hit several times per address — the repeated-lame
  // traffic the infra cache exists to absorb.
  scan::PopulationConfig config;
  config.total_domains = 10'000;
  config.seed = 7;
  const auto population = scan::generate_population(config);

  const auto run = [&](bool infra_enabled) {
    auto clock = std::make_shared<sim::Clock>();
    auto network = std::make_shared<sim::Network>(clock);
    scan::ScanWorld world(network, population);
    ResolverOptions options;
    options.infra.enabled = infra_enabled;
    auto resolver =
        world.make_resolver(resolver::profile_cloudflare(), options);
    world.prewarm(resolver);
    return scan::Scanner().run(resolver, population);
  };

  const auto with_infra = run(true);
  const auto without_infra = run(false);

  // Identical classification, domain for domain.
  ASSERT_EQ(with_infra.per_code.size(), without_infra.per_code.size());
  for (const auto& [code, stats] : with_infra.per_code) {
    const auto it = without_infra.per_code.find(code);
    ASSERT_NE(it, without_infra.per_code.end()) << "code " << code;
    EXPECT_EQ(stats.domains, it->second.domains) << "code " << code;
  }
  EXPECT_EQ(with_infra.codes_by_category, without_infra.codes_by_category);
  EXPECT_EQ(with_infra.domains_with_ede, without_infra.domains_with_ede);
  EXPECT_EQ(with_infra.servfail_domains, without_infra.servfail_domains);
  EXPECT_EQ(with_infra.lame_union, without_infra.lame_union);

  // Measurably cheaper: held-down dead servers stop eating retransmissions.
  EXPECT_GT(with_infra.transport.holddown_skips, 0u);
  EXPECT_EQ(without_infra.transport.holddown_skips, 0u);
  EXPECT_LT(with_infra.transport.packets_sent,
            without_infra.transport.packets_sent);
  EXPECT_LT(with_infra.transport.retransmits,
            without_infra.transport.retransmits);
}

// The SERVFAIL cache (RFC 2308) and the infra-cache hold-down both sit in
// front of serve-stale; neither may shadow it. With the authority held
// down AND a live cached SERVFAIL for the very (name, type) being asked,
// the resolver must still prefer the expired answer (RFC 8767: stale data
// beats an error), replay the outage diagnosis (22/23) alongside EDE 3,
// and spend zero packets — exactly the interplay PR 1's progression test
// pins for the hold-down alone.
TEST_F(ChaosTest, CachedServfailUnderHolddownStillServesStale) {
  network_->set_latency({.enabled = true, .base_rtt_ms = 20, .jitter_ms = 8,
                         .seed = 0xc4a05});
  RetryPolicy retry;
  retry.attempts_per_server = 4;  // enough consecutive timeouts to hold down
  auto resolver = make({}, cloudflare_with(retry));

  // Healthy pass: positive A entry and a negative (NXDOMAIN) entry land.
  const auto missing = dns::Name::of("nope.valid.extended-dns-errors.com");
  ASSERT_EQ(resolver.resolve(valid_name(), dns::RRType::A).rcode,
            dns::RCode::NOERROR);
  ASSERT_EQ(resolver.resolve(missing, dns::RRType::A).rcode,
            dns::RCode::NXDOMAIN);

  // Outage past the 3600 s TTLs; the TXT probe walks into it, diagnoses
  // 22/23 and trips the hold-down.
  const auto t0 = clock_->now();
  network_->fail_between(child_addr_, t0 + 4000, t0 + 8000);
  clock_->set(t0 + 4000);
  const auto down = resolver.resolve(valid_name(), dns::RRType::TXT);
  ASSERT_EQ(down.rcode, dns::RCode::SERVFAIL);
  ASSERT_TRUE(has_code(down, edns::EdeCode::NoReachableAuthority));
  ASSERT_GE(resolver.infra().stats().holddowns_started, 1u);

  // Plant live cached SERVFAILs carrying the outage diagnosis for both
  // names, alongside their now-stale cache entries and the held-down
  // server.
  const auto now = clock_->now();
  resolver.cache().put_servfail(valid_name(), dns::RRType::A,
                                {down.findings, now + 30}, now);
  resolver.cache().put_servfail(missing, dns::RRType::A,
                                {down.findings, now + 30}, now);

  const auto hits_before = resolver.hardening_stats().servfail_cache_hits;
  network_->record_sends(true);
  const auto stale = resolver.resolve(valid_name(), dns::RRType::A);
  EXPECT_EQ(stale.rcode, dns::RCode::NOERROR);
  EXPECT_FALSE(stale.response.answer.empty());
  EXPECT_TRUE(has_code(stale, edns::EdeCode::StaleAnswer));           // 3
  EXPECT_TRUE(has_code(stale, edns::EdeCode::NetworkError));          // 23
  EXPECT_FALSE(has_code(stale, edns::EdeCode::CachedError));          // not 13

  const auto stale_nx = resolver.resolve(missing, dns::RRType::A);
  EXPECT_EQ(stale_nx.rcode, dns::RCode::NXDOMAIN);
  EXPECT_TRUE(has_code(stale_nx, edns::EdeCode::StaleNxdomainAnswer));  // 19
  EXPECT_FALSE(has_code(stale_nx, edns::EdeCode::CachedError));

  // Both resolutions were SERVFAIL-cache hits and spent zero packets on
  // the held-down authority.
  EXPECT_EQ(resolver.hardening_stats().servfail_cache_hits, hits_before + 2);
  EXPECT_TRUE(sends_to_child().empty());

  // With serve-stale off the same state degrades to the cached error
  // (EDE 13 shape): SERVFAIL, diagnosis replayed, still zero packets.
  ResolverOptions no_stale;
  no_stale.serve_stale = false;
  auto strict = make(no_stale, cloudflare_with(retry));
  strict.cache().put_servfail(valid_name(), dns::RRType::A,
                              {down.findings, now + 30}, now);
  const auto cached_error = strict.resolve(valid_name(), dns::RRType::A);
  EXPECT_EQ(cached_error.rcode, dns::RCode::SERVFAIL);
  EXPECT_EQ(strict.hardening_stats().servfail_cache_hits, 1u);
}

// An authority that answers every exchange with a mangled transaction ID
// is indistinguishable from a dead one: every reply is silently discarded
// by the acceptance gate (no findings leak from unaccepted datagrams), the
// retries run dry and the diagnosis is the connectivity pair 22/23.
TEST_F(ChaosTest, WrongQidFloodIsRejectedAndDiagnosedAsUnreachable) {
  auto stats = std::make_shared<sim::ByzantineStats>();
  network_->set_mutator(
      child_addr_, sim::make_byzantine_mutator(
                       {sim::ByzantineBehavior::wrong_qid()}, 0xbad, stats));
  auto resolver = make();

  const auto outcome = resolver.resolve(valid_name(), dns::RRType::A);
  EXPECT_EQ(outcome.rcode, dns::RCode::SERVFAIL);
  EXPECT_TRUE(has_code(outcome, edns::EdeCode::NoReachableAuthority));
  EXPECT_GT(resolver.hardening_stats().rejected_qid_mismatch, 0u);
  EXPECT_GT(stats->mutations_applied, 0u);
  EXPECT_EQ(stats->by_kind[static_cast<std::size_t>(sim::ByzantineKind::WrongQid)],
            stats->mutations_applied);
}

// A flaky forger that mangles only half the exchanges loses to the retry
// schedule: the gate discards the bad replies, a clean one eventually
// lands and the resolution still validates.
TEST_F(ChaosTest, IntermittentQidManglingIsSurvivedByRetry) {
  auto stats = std::make_shared<sim::ByzantineStats>();
  network_->set_mutator(
      child_addr_,
      sim::make_byzantine_mutator({sim::ByzantineBehavior::wrong_qid(0.5)},
                                  0xa11ce, stats));
  RetryPolicy retry;
  retry.attempts_per_server = 8;
  auto resolver = make({}, cloudflare_with(retry));

  // Several uncached qtypes, each forcing fresh exchanges with the flaky
  // forger; every one must come back clean.
  for (const auto qtype : {dns::RRType::A, dns::RRType::TXT,
                           dns::RRType::AAAA, dns::RRType::MX}) {
    const auto outcome = resolver.resolve(valid_name(), qtype);
    EXPECT_EQ(outcome.rcode, dns::RCode::NOERROR)
        << dns::to_string(qtype);
  }
  EXPECT_GT(resolver.hardening_stats().rejected_qid_mismatch, 0u);
  EXPECT_GT(stats->mutations_applied, 0u);
}

// An on-path attacker who knows the QID and echoes the question survives
// the acceptance gate; the forged (unsigned, poison-carrying) answer must
// then die in the scrubber + validator, and the poison name must appear in
// neither the client response nor the cache.
TEST_F(ChaosTest, OnPathSpoofNeverPoisonsCacheOrClient) {
  network_->set_mutator(
      child_addr_,
      sim::make_byzantine_mutator(
          {sim::ByzantineBehavior::spoof(1.0, /*qid_known=*/true)}, 0x0ff));
  auto resolver = make();

  const auto outcome = resolver.resolve(valid_name(), dns::RRType::A);
  EXPECT_EQ(outcome.rcode, dns::RCode::SERVFAIL);
  EXPECT_GT(resolver.hardening_stats().scrubbed_records, 0u);

  const auto owned = [](const std::vector<dns::ResourceRecord>& rrs) {
    for (const auto& rr : rrs)
      if (rr.name == sim::poison_marker()) return true;
    return false;
  };
  EXPECT_FALSE(owned(outcome.response.answer));
  EXPECT_FALSE(owned(outcome.response.authority));
  EXPECT_FALSE(owned(outcome.response.additional));
  EXPECT_EQ(resolver.cache().get_positive(sim::poison_marker(),
                                          dns::RRType::A, clock_->now()),
            nullptr);
  EXPECT_EQ(resolver.cache().get_stale_positive(sim::poison_marker(),
                                                dns::RRType::A,
                                                clock_->now()),
            nullptr);
}

// Unbound-scrubber behavior: out-of-bailiwick records stuffed around an
// otherwise-honest answer are dropped without harming the answer itself —
// the resolution stays NOERROR/Secure and the poison is counted, not
// cached.
TEST_F(ChaosTest, BailiwickStuffingIsScrubbedWithoutHarmingTheAnswer) {
  auto stats = std::make_shared<sim::ByzantineStats>();
  network_->set_mutator(child_addr_,
                        sim::make_byzantine_mutator(
                            {sim::ByzantineBehavior::bailiwick_stuff()},
                            0x57aff, stats));
  auto resolver = make();

  const auto outcome = resolver.resolve(valid_name(), dns::RRType::A);
  EXPECT_EQ(outcome.rcode, dns::RCode::NOERROR);
  EXPECT_EQ(outcome.security, dnssec::Security::Secure);
  EXPECT_GT(resolver.hardening_stats().scrubbed_records, 0u);
  EXPECT_GT(
      stats->by_kind[static_cast<std::size_t>(sim::ByzantineKind::BailiwickStuff)],
      0u);
  EXPECT_EQ(resolver.cache().get_positive(sim::poison_marker(),
                                          dns::RRType::A, clock_->now()),
            nullptr);
  EXPECT_EQ(resolver.cache().get_positive(sim::poison_marker(),
                                          dns::RRType::NS, clock_->now()),
            nullptr);
}

// Compression-pointer traps (self-loops and 300-hop backwards chains) must
// be rejected by the wire reader as unparsable — the resolver retries,
// runs dry and reports connectivity trouble instead of spinning or
// crashing.
TEST_F(ChaosTest, PointerTrapsAreRejectedWithoutHangingTheParser) {
  network_->set_mutator(
      child_addr_,
      sim::make_byzantine_mutator({sim::ByzantineBehavior::pointer_loop()},
                                  0x100));
  auto resolver = make();
  const auto outcome = resolver.resolve(valid_name(), dns::RRType::A);
  EXPECT_EQ(outcome.rcode, dns::RCode::SERVFAIL);
  EXPECT_TRUE(has_code(outcome, edns::EdeCode::NoReachableAuthority));
}

// In-flight query coalescing: a delegation listing the same glueless
// nameserver name twice (a real-world copy-paste zone bug) makes the
// resolver chase the identical (zone, qname, qtype) probe twice within
// one resolution. With the probe's zone dead, the second chase must be
// answered from the coalescing memo — same findings, fewer packets.
TEST(ChaosCoalescing, DuplicateGluelessNsIsCoalescedOnFailure) {
  const auto build = [](bool coalesce) {
    auto clock = std::make_shared<sim::Clock>();
    auto network = std::make_shared<sim::Network>(clock);

    auto root = std::make_shared<zone::Zone>(dns::Name{});
    dns::SoaRdata soa;
    soa.mname = dns::Name::of("a.root-servers.net");
    root->add(dns::Name{}, dns::RRType::SOA, soa);
    root->add(dns::Name{}, dns::RRType::NS,
              dns::NsRdata{dns::Name::of("a.root-servers.net")});
    root->add(dns::Name::of("a.root-servers.net"), dns::RRType::A,
              dns::ARdata{*dns::Ipv4Address::parse("198.41.0.4")});
    // dead.test: delegated to an address nothing is attached to.
    root->add(dns::Name::of("dead.test"), dns::RRType::NS,
              dns::NsRdata{dns::Name::of("ns.dead.test")});
    root->add(dns::Name::of("ns.dead.test"), dns::RRType::A,
              dns::ARdata{*dns::Ipv4Address::parse("203.0.113.66")});
    // broken.test: the same glueless nameserver name, listed twice.
    root->add(dns::Name::of("broken.test"), dns::RRType::NS,
              dns::NsRdata{dns::Name::of("gone.dead.test")});
    root->add(dns::Name::of("broken.test"), dns::RRType::NS,
              dns::NsRdata{dns::Name::of("gone.dead.test")});
    const auto root_keys = zone::make_zone_keys(dns::Name{});
    zone::sign_zone(*root, root_keys, {});
    auto root_server = std::make_shared<server::AuthServer>();
    root_server->add_zone(root);
    network->attach(sim::NodeAddress::of("198.41.0.4"),
                    root_server->endpoint());

    ResolverOptions options;
    options.cache.enabled = false;  // so no cache layer masks the memo
    options.coalesce_queries = coalesce;
    RetryPolicy retry;
    retry.attempts_per_server = 2;
    resolver::RecursiveResolver resolver(
        network, cloudflare_with(retry),
        {sim::NodeAddress::of("198.41.0.4")}, root_keys.ksk.dnskey, options);
    const auto outcome =
        resolver.resolve(dns::Name::of("broken.test"), dns::RRType::A);
    return std::tuple{outcome, resolver.hardening_stats(),
                      network->stats().packets_sent};
  };

  const auto [with, with_stats, with_packets] = build(true);
  const auto [without, without_stats, without_packets] = build(false);

  EXPECT_EQ(with.rcode, dns::RCode::SERVFAIL);
  EXPECT_EQ(without.rcode, dns::RCode::SERVFAIL);
  EXPECT_GE(with_stats.coalesced_queries, 1u);
  EXPECT_EQ(without_stats.coalesced_queries, 0u);
  EXPECT_LT(with_packets, without_packets);

  // Classification-neutral: same rcode and the same EDEs in order, down to
  // the EXTRA-TEXT — a memo replay repeats the failure's findings word for
  // word.
  ASSERT_EQ(with.errors.size(), without.errors.size());
  for (std::size_t i = 0; i < with.errors.size(); ++i) {
    EXPECT_EQ(with.errors[i].code, without.errors[i].code);
    EXPECT_EQ(with.errors[i].extra_text, without.errors[i].extra_text);
  }
}

// A fully scripted Byzantine scenario replays bit-identically for a fixed
// seed — the property the chaos-campaign runner's reproducible report
// stands on.
TEST(ChaosByzantine, FixedSeedReplaysTheSameHostileStoryline) {
  const auto run = [] {
    auto clock = std::make_shared<sim::Clock>();
    auto network = std::make_shared<sim::Network>(clock);
    testbed::Testbed testbed(network);
    const auto child = testbed.server_address("valid").value();
    network->set_latency({.enabled = true, .base_rtt_ms = 20, .jitter_ms = 8,
                          .seed = 0xc4a05});
    auto stats = std::make_shared<sim::ByzantineStats>();
    network->set_mutator(
        child, sim::make_byzantine_mutator(
                   {sim::ByzantineBehavior::fuzz(0.5, 4),
                    sim::ByzantineBehavior::truncation_garbage(0.5)},
                   0xd1ce, stats));
    auto resolver = testbed.make_resolver(resolver::profile_cloudflare());

    std::ostringstream transcript;
    for (int i = 0; i < 3; ++i) {
      const auto outcome = resolver.resolve(
          dns::Name::of("valid.extended-dns-errors.com"), dns::RRType::A);
      transcript << static_cast<int>(outcome.rcode) << ':';
      for (const auto& error : outcome.errors)
        transcript << static_cast<std::uint16_t>(error.code) << ',';
      transcript << ';';
    }
    const auto& h = resolver.hardening_stats();
    transcript << h.rejected_qid_mismatch << '/' << h.rejected_question_mismatch
               << '/' << h.scrubbed_records << '/' << stats->mutations_applied;
    return transcript.str();
  };
  const auto first = run();
  EXPECT_EQ(first, run());
  EXPECT_FALSE(first.empty());
}

// A forwarder in front of a recursive endpoint rides out probabilistic
// loss on the upstream path by retransmitting on its backoff schedule.
TEST(ChaosForwarder, RetransmissionDefeatsProbabilisticLoss) {
  auto clock = std::make_shared<sim::Clock>();
  auto network = std::make_shared<sim::Network>(clock);
  testbed::Testbed testbed(network);

  const auto upstream_addr = sim::NodeAddress::of("198.51.200.53");
  auto recursive = std::make_shared<RecursiveResolver>(
      testbed.make_resolver(resolver::profile_cloudflare()));
  network->attach(upstream_addr, resolver::make_resolver_endpoint(recursive));

  // Half the datagrams toward the upstream vanish (seeded, deterministic).
  network->inject_fault(upstream_addr, sim::Fault::loss(0.5));

  resolver::ForwarderOptions options;
  options.retry.attempts_per_server = 8;
  resolver::Forwarder forwarder(network, sim::NodeAddress::of("198.51.200.99"),
                                {upstream_addr}, options);

  const auto query =
      dns::make_query(77, dns::Name::of("valid.extended-dns-errors.com"),
                      dns::RRType::A, /*recursion_desired=*/true);
  const auto response = forwarder.handle(query);
  EXPECT_EQ(response.header.rcode, dns::RCode::NOERROR);
  EXPECT_FALSE(response.answer.empty());

  // network -> endpoint -> recursive -> network is an ownership cycle;
  // detach the endpoint so LeakSanitizer sees everything reclaimed.
  network->detach(upstream_addr);
}

}  // namespace
