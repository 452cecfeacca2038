// RFC 8198 aggressive-negative-caching edge cases (satellite of the
// frontline serving PR): the resolver must synthesize NXDOMAIN/NODATA
// only from proofs that actually prove plain nonexistence. Opt-out NSEC3
// spans, wildcard-adjacent NSEC spans and expired proofs must never feed
// synthesis, and a synthesized negative inherits the proof's SOA-bounded
// lifetime rather than a fresh TTL window of its own.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "edns/ede.hpp"
#include "resolver/resolver.hpp"
#include "server/auth_server.hpp"
#include "simnet/network.hpp"
#include "simnet/stream.hpp"
#include "zone/signer.hpp"
#include "zone/zone.hpp"

namespace {

using namespace ede;

bool has_ede(const resolver::Outcome& outcome, edns::EdeCode code) {
  for (const auto& error : outcome.errors) {
    if (error.code == code) return true;
  }
  return false;
}

// A small signed hierarchy with one child zone per denial flavour:
//   n3.test    NSEC3, no opt-out        (the healthy synthesis baseline)
//   opt.test   NSEC3 with opt-out set   (proofs must be rejected)
//   flat.test  flat NSEC                (deterministic cross-name spans)
//   wild.test  flat NSEC + `*.wild.test A` (wildcard-adjacent spans)
// plus two insecure delegations for the batch-snapshot rule:
//   own.test   unsigned, `a.own.test CNAME b.own.test`
//   lame.test  no zone: its NS names bbb/charlie.flat.test do not exist
class Rfc8198 : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_ = std::make_shared<sim::Clock>();
    network_ = std::make_shared<sim::Network>(clock_);

    auto root_zone = std::make_shared<zone::Zone>(dns::Name{});
    dns::SoaRdata root_soa;
    root_soa.mname = dns::Name::of("a.root-servers.net");
    root_soa.minimum = 300;
    root_zone->add(dns::Name{}, dns::RRType::SOA, root_soa);
    root_zone->add(dns::Name{}, dns::RRType::NS,
                   dns::NsRdata{dns::Name::of("a.root-servers.net")});
    root_zone->add(dns::Name::of("a.root-servers.net"), dns::RRType::A,
                   dns::ARdata{*dns::Ipv4Address::parse("198.41.0.4")});

    zone::SigningPolicy n3_default;
    add_child(*root_zone, "n3.test", "93.184.220.1", [](zone::Zone&) {},
              n3_default);

    zone::SigningPolicy opt_out;
    opt_out.nsec3_opt_out = true;
    add_child(*root_zone, "opt.test", "93.184.220.2", [](zone::Zone&) {},
              opt_out);

    zone::SigningPolicy flat;
    flat.denial = zone::DenialMode::Nsec;
    add_child(*root_zone, "flat.test", "93.184.220.3",
              [](zone::Zone& z) {
                z.add(dns::Name::of("alpha.flat.test"), dns::RRType::A,
                      dns::ARdata{*dns::Ipv4Address::parse("192.0.2.10")});
              },
              flat);
    add_child(*root_zone, "wild.test", "93.184.220.4",
              [](zone::Zone& z) {
                z.add(dns::Name::of("*.wild.test"), dns::RRType::A,
                      dns::ARdata{*dns::Ipv4Address::parse("192.0.2.20")});
              },
              flat);
    add_child(*root_zone, "own.test", "93.184.220.5",
              [](zone::Zone& z) {
                z.add(dns::Name::of("a.own.test"), dns::RRType::CNAME,
                      dns::CnameRdata{dns::Name::of("b.own.test")});
                z.add(dns::Name::of("b.own.test"), dns::RRType::A,
                      dns::ARdata{*dns::Ipv4Address::parse("192.0.2.30")});
                z.add(dns::Name::of("c.own.test"), dns::RRType::A,
                      dns::ARdata{*dns::Ipv4Address::parse("192.0.2.31")});
              },
              std::nullopt);
    for (const char* ns : {"bbb.flat.test", "charlie.flat.test"}) {
      root_zone->add(dns::Name::of("lame.test"), dns::RRType::NS,
                     dns::NsRdata{dns::Name::of(ns)});
    }

    const auto root_keys = zone::make_zone_keys(dns::Name{});
    trust_anchor_ = root_keys.ksk.dnskey;
    for (auto& [child, keys] : pending_ds_) {
      for (const auto& ds : zone::ds_records(child, keys)) {
        root_zone->add(child, dns::RRType::DS, ds);
      }
    }
    zone::sign_zone(*root_zone, root_keys, {});
    auto root_server = std::make_shared<server::AuthServer>();
    root_server->add_zone(root_zone);
    attach(*root_server, "198.41.0.4");
    servers_.push_back(std::move(root_server));
  }

  // Signed NXDOMAINs with their NSEC3 proofs can overflow the 1232-byte
  // EDNS UDP budget, so every authority also listens for the DoTCP
  // fallback.
  void attach(server::AuthServer& server, const char* addr) {
    const auto endpoint = server.endpoint();
    network_->attach(sim::NodeAddress::of(addr), endpoint);
    network_->stream().listen(sim::NodeAddress::of(addr), endpoint);
  }

  /// A child zone on its own server; `policy` nullopt leaves it unsigned
  /// behind an insecure delegation.
  template <typename Fill>
  void add_child(zone::Zone& root_zone, const char* origin, const char* addr,
                 Fill fill, const std::optional<zone::SigningPolicy>& policy) {
    const auto child = dns::Name::of(origin);
    const auto ns_name = dns::Name::of(std::string{"ns1."} + origin);
    auto zone = std::make_shared<zone::Zone>(child);
    dns::SoaRdata soa;
    soa.mname = ns_name;
    soa.rname = child;
    soa.minimum = 300;
    zone->add(child, dns::RRType::SOA, soa);
    zone->add(child, dns::RRType::NS, dns::NsRdata{ns_name});
    zone->add(ns_name, dns::RRType::A,
              dns::ARdata{*dns::Ipv4Address::parse(addr)});
    zone->add(child, dns::RRType::A,
              dns::ARdata{*dns::Ipv4Address::parse("192.0.2.1")});
    fill(*zone);
    if (policy.has_value()) {
      const auto keys = zone::make_zone_keys(child);
      zone::sign_zone(*zone, keys, *policy);
      pending_ds_.emplace_back(child, keys);
    }

    root_zone.add(child, dns::RRType::NS, dns::NsRdata{ns_name});
    root_zone.add(ns_name, dns::RRType::A,
                  dns::ARdata{*dns::Ipv4Address::parse(addr)});

    auto server = std::make_shared<server::AuthServer>();
    server->add_zone(zone);
    attach(*server, addr);
    servers_.push_back(std::move(server));
  }

  resolver::RecursiveResolver make_resolver() {
    resolver::ResolverOptions options;
    options.aggressive_nsec_caching = true;
    return resolver::RecursiveResolver(
        network_, resolver::profile_reference(),
        {sim::NodeAddress::of("198.41.0.4")}, trust_anchor_, options);
  }

  std::uint64_t packets() const { return network_->stats().packets_sent; }

  std::shared_ptr<sim::Clock> clock_;
  std::shared_ptr<sim::Network> network_;
  std::vector<std::pair<dns::Name, zone::ZoneKeys>> pending_ds_;
  std::vector<std::shared_ptr<server::AuthServer>> servers_;
  dns::DnskeyRdata trust_anchor_;
};

// Baseline: a validated NSEC3 proof (no opt-out) feeds synthesis. The
// second query reuses the first proof without any upstream traffic and
// announces it with EDE 29.
TEST_F(Rfc8198, Nsec3ProofSynthesizesAcrossTypes) {
  auto resolver = make_resolver();
  const auto first =
      resolver.resolve(dns::Name::of("aaa.n3.test"), dns::RRType::A);
  ASSERT_EQ(first.rcode, dns::RCode::NXDOMAIN);
  EXPECT_FALSE(has_ede(first, edns::EdeCode::Synthesized));

  // Same owner, different type: its NSEC3 hash is covered by the very
  // span the first answer proved, so synthesis is deterministic.
  const auto before = packets();
  const auto second =
      resolver.resolve(dns::Name::of("aaa.n3.test"), dns::RRType::AAAA);
  EXPECT_EQ(second.rcode, dns::RCode::NXDOMAIN);
  EXPECT_EQ(packets(), before);
  EXPECT_TRUE(has_ede(second, edns::EdeCode::Synthesized));
}

// RFC 5155 §6: an opt-out span may hide unsigned delegations, so it
// proves nothing about plain nonexistence. The covered re-query must go
// back upstream instead of being synthesized.
TEST_F(Rfc8198, OptOutNsec3SpansAreNeverCaptured) {
  auto resolver = make_resolver();
  const auto first =
      resolver.resolve(dns::Name::of("aaa.opt.test"), dns::RRType::A);
  ASSERT_EQ(first.rcode, dns::RCode::NXDOMAIN);

  const auto before = packets();
  const auto second =
      resolver.resolve(dns::Name::of("aaa.opt.test"), dns::RRType::AAAA);
  EXPECT_EQ(second.rcode, dns::RCode::NXDOMAIN);
  EXPECT_GT(packets(), before);
  EXPECT_FALSE(has_ede(second, edns::EdeCode::Synthesized));
}

// Flat NSEC: the span alpha.flat.test -> ns1.flat.test from one NXDOMAIN
// proof deterministically covers every other label between them, so a
// different nonexistent name synthesizes locally.
TEST_F(Rfc8198, FlatNsecSynthesizesAcrossNames) {
  auto resolver = make_resolver();
  const auto first =
      resolver.resolve(dns::Name::of("bbb.flat.test"), dns::RRType::A);
  ASSERT_EQ(first.rcode, dns::RCode::NXDOMAIN);

  const auto before = packets();
  const auto second =
      resolver.resolve(dns::Name::of("charlie.flat.test"), dns::RRType::A);
  EXPECT_EQ(second.rcode, dns::RCode::NXDOMAIN);
  EXPECT_EQ(packets(), before);
  EXPECT_TRUE(has_ede(second, edns::EdeCode::Synthesized));
}

// NODATA synthesis: an exact-owner NSEC records which types exist there,
// so a second query for another absent type at the same owner is
// answerable locally.
TEST_F(Rfc8198, FlatNsecSynthesizesNodataForAbsentTypes) {
  auto resolver = make_resolver();
  const auto first =
      resolver.resolve(dns::Name::of("alpha.flat.test"), dns::RRType::TXT);
  ASSERT_EQ(first.rcode, dns::RCode::NOERROR);
  ASSERT_TRUE(first.response.answer.empty());

  const auto before = packets();
  const auto second =
      resolver.resolve(dns::Name::of("alpha.flat.test"), dns::RRType::MX);
  EXPECT_EQ(second.rcode, dns::RCode::NOERROR);
  EXPECT_TRUE(second.response.answer.empty());
  EXPECT_EQ(packets(), before);
  EXPECT_TRUE(has_ede(second, edns::EdeCode::Synthesized));

  // The owner's type bitmap lists A, so the positive type still resolves.
  const auto positive =
      resolver.resolve(dns::Name::of("alpha.flat.test"), dns::RRType::A);
  EXPECT_EQ(positive.rcode, dns::RCode::NOERROR);
  EXPECT_FALSE(positive.response.answer.empty());
}

// A span with a wildcard endpoint proves facts about wildcard expansion,
// not nonexistence: synthesizing NXDOMAIN across it would deny names the
// wildcard actually answers. In wild.test every NSEC a negative answer
// carries touches `*.wild.test` (the covering span's owner is the
// wildcard itself), so after a TXT denial a fresh name queried for A must
// still reach upstream and expand — a resolver that captured the span
// would synthesize NXDOMAIN and break the wildcard.
TEST_F(Rfc8198, WildcardAdjacentNsecSpansAreNeverCaptured) {
  auto resolver = make_resolver();
  const auto denied =
      resolver.resolve(dns::Name::of("aaa.wild.test"), dns::RRType::TXT);
  ASSERT_TRUE(denied.response.answer.empty());
  ASSERT_TRUE(denied.rcode == dns::RCode::NXDOMAIN ||
              denied.rcode == dns::RCode::NOERROR);

  const auto before = packets();
  const auto expanded =
      resolver.resolve(dns::Name::of("bbb.wild.test"), dns::RRType::A);
  EXPECT_EQ(expanded.rcode, dns::RCode::NOERROR);
  EXPECT_FALSE(expanded.response.answer.empty());
  EXPECT_GT(packets(), before);
  EXPECT_FALSE(has_ede(expanded, edns::EdeCode::Synthesized));
}

// Proofs age out on the SOA-bounded schedule (minimum = 300 s here): a
// covered name queried after expiry goes upstream again.
TEST_F(Rfc8198, ExpiredProofsAreNotUsedForSynthesis) {
  auto resolver = make_resolver();
  const auto first =
      resolver.resolve(dns::Name::of("bbb.flat.test"), dns::RRType::A);
  ASSERT_EQ(first.rcode, dns::RCode::NXDOMAIN);

  clock_->advance(400);  // past the 300 s proof lifetime
  const auto before = packets();
  const auto second =
      resolver.resolve(dns::Name::of("charlie.flat.test"), dns::RRType::A);
  EXPECT_EQ(second.rcode, dns::RCode::NXDOMAIN);
  EXPECT_GT(packets(), before);
  EXPECT_FALSE(has_ede(second, edns::EdeCode::Synthesized));
}

// The synthesized negative inherits the proof's remaining lifetime, not a
// fresh 300 s window: a proof captured at t0 expires at t0+300, so a
// negative synthesized from it at t0+200 must also be gone by t0+350.
TEST_F(Rfc8198, SynthesizedNegativesInheritTheProofBound) {
  auto resolver = make_resolver();
  const auto first =
      resolver.resolve(dns::Name::of("bbb.flat.test"), dns::RRType::A);
  ASSERT_EQ(first.rcode, dns::RCode::NXDOMAIN);

  clock_->advance(200);
  const auto before_synth = packets();
  const auto synthesized =
      resolver.resolve(dns::Name::of("charlie.flat.test"), dns::RRType::A);
  ASSERT_EQ(synthesized.rcode, dns::RCode::NXDOMAIN);
  ASSERT_EQ(packets(), before_synth);
  ASSERT_TRUE(has_ede(synthesized, edns::EdeCode::Synthesized));

  // t0+350: a full negative TTL from synthesis time would still be fresh
  // (until t0+500); the SOA-bounded entry is not.
  clock_->advance(150);
  const auto before = packets();
  const auto after =
      resolver.resolve(dns::Name::of("charlie.flat.test"), dns::RRType::A);
  EXPECT_EQ(after.rcode, dns::RCode::NXDOMAIN);
  EXPECT_GT(packets(), before);
  EXPECT_FALSE(has_ede(after, edns::EdeCode::Synthesized));
}

// The batch-snapshot rule (DESIGN.md §5g): a resolution always sees its
// own writes, even when a sibling in its batch overwrites them.
//  - a.own.test: own.test's server FORMERRs OPT queries for a.own.test
//    only. The verdict learned on the first hop must spare the CNAME
//    target's hop the dance, although the sibling c.own.test, which
//    queries the same server in lockstep, overwrites the verdict with
//    Full before that hop.
//  - www.lame.test needs the addresses of bbb.flat.test and
//    charlie.flat.test: the NXDOMAIN proof captured for the first must
//    synthesize the second without a packet.
TEST_F(Rfc8198, OwnVerdictAndOwnProofAreVisibleLaterInTheSameResolution) {
  const auto a_own = dns::Name::of("a.own.test");
  network_->set_mutator(
      sim::NodeAddress::of("93.184.220.5"),
      [a_own](crypto::BytesView query, crypto::Bytes response,
              sim::MutateContext& ctx) -> std::optional<crypto::Bytes> {
        const auto parsed = dns::Message::parse(query);
        if (!parsed || parsed.value().find_opt() == nullptr ||
            !(parsed.value().question.front().qname == a_own)) {
          return response;
        }
        dns::Message formerr = dns::make_query(
            parsed.value().header.id, a_own,
            parsed.value().question.front().qtype, false);
        formerr.header.qr = true;
        formerr.header.rcode = dns::RCode::FORMERR;
        ctx.mutated = true;
        return formerr.serialize();
      });
  std::size_t charlie_queries = 0;
  network_->set_mutator(
      sim::NodeAddress::of("93.184.220.3"),
      [&charlie_queries](crypto::BytesView query, crypto::Bytes response,
                         sim::MutateContext&) -> std::optional<crypto::Bytes> {
        const auto parsed = dns::Message::parse(query);
        if (parsed && parsed.value().question.front().qname ==
                          dns::Name::of("charlie.flat.test")) {
          ++charlie_queries;
        }
        return response;
      });

  auto resolver = make_resolver();
  std::vector<resolver::Outcome> outcomes(3);
  (void)resolver.resolve_many(
      {{a_own, dns::RRType::A},
       {dns::Name::of("c.own.test"), dns::RRType::A},
       {dns::Name::of("www.lame.test"), dns::RRType::A}},
      3, [&outcomes](std::size_t index, resolver::Outcome&& outcome) {
        outcomes[index] = std::move(outcome);
      });

  EXPECT_EQ(outcomes[0].rcode, dns::RCode::NOERROR);
  EXPECT_EQ(outcomes[1].rcode, dns::RCode::NOERROR);
  const auto& hardening = resolver.hardening_stats();
  EXPECT_EQ(hardening.edns_formerr_seen, 1u);
  EXPECT_EQ(hardening.edns_capability_skips, 1u);
  // Both a.own.test hops answered plain; the sibling spoke EDNS.
  EXPECT_EQ(hardening.edns_degraded_success, 2u);

  EXPECT_EQ(outcomes[2].rcode, dns::RCode::SERVFAIL);
  EXPECT_EQ(charlie_queries, 0u);
}

}  // namespace
