// The EDNS-compliance zoo family (RFC 6891, DESIGN.md §5i) end to end:
// every case resolved twice through all seven vendor profiles must match
// the calibrated expected_edns() table — the first contact shows the
// probe-and-fallback dance, the second (flipped qtype, so the answer and
// SERVFAIL caches miss) shows what the InfraCache capability memory made
// of the verdict — and the hardening counters must tell the same story.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "resolver/infra_cache.hpp"
#include "resolver/resolver.hpp"
#include "simnet/address.hpp"
#include "testbed/expected.hpp"
#include "testbed/testbed.hpp"

namespace {

using ede::resolver::HardeningStats;
using ede::testbed::EdnsCaseSpec;
using ede::testbed::Testbed;

struct EdnsWorld {
  EdnsWorld()
      : clock(std::make_shared<ede::sim::Clock>()),
        network(std::make_shared<ede::sim::Network>(clock)),
        testbed(network, {.edns_family = true}) {}

  std::shared_ptr<ede::sim::Clock> clock;
  std::shared_ptr<ede::sim::Network> network;
  Testbed testbed;
};

EdnsWorld& world() {
  static EdnsWorld instance;
  return instance;
}

std::vector<std::uint16_t> sorted_codes(const ede::resolver::Outcome& o) {
  std::vector<std::uint16_t> codes;
  for (const auto& error : o.errors)
    codes.push_back(static_cast<std::uint16_t>(error.code));
  std::sort(codes.begin(), codes.end());
  codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
  return codes;
}

ede::dns::RCode rcode_of(const std::string& name) {
  return name == "NOERROR" ? ede::dns::RCode::NOERROR
                           : ede::dns::RCode::SERVFAIL;
}

const EdnsCaseSpec& spec_of(const EdnsWorld& w, std::string_view label) {
  const auto& specs = w.testbed.edns_case_specs();
  const auto it =
      std::find_if(specs.begin(), specs.end(),
                   [&](const EdnsCaseSpec& s) { return s.label == label; });
  EXPECT_NE(it, specs.end()) << label;
  return *it;
}

class EdnsRow : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EdnsRow, MatchesTheCalibratedTable) {
  auto& w = world();
  const auto& spec = w.testbed.edns_case_specs()[GetParam()];
  const auto& expected = ede::testbed::expected_edns()[GetParam()];
  ASSERT_EQ(expected.label, spec.label) << "row tables out of sync";

  const auto qname = w.testbed.child_origin(spec.label);
  const auto profiles = ede::resolver::all_profiles();
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    // One resolver per (case, vendor): both contacts share its caches,
    // exactly what the capability memory needs to be observable.
    auto resolver = w.testbed.make_resolver(profiles[p]);
    const auto first =
        resolver.resolve(qname, Testbed::edns_qtype(spec, false));
    EXPECT_EQ(first.rcode, rcode_of(expected.first[p].rcode))
        << spec.label << " first contact via " << profiles[p].name;
    EXPECT_EQ(sorted_codes(first), expected.first[p].codes)
        << spec.label << " first contact via " << profiles[p].name;

    const auto second =
        resolver.resolve(qname, Testbed::edns_qtype(spec, true));
    EXPECT_EQ(second.rcode, rcode_of(expected.second[p].rcode))
        << spec.label << " second contact via " << profiles[p].name;
    EXPECT_EQ(sorted_codes(second), expected.second[p].codes)
        << spec.label << " second contact via " << profiles[p].name;

    // A plain-DNS rescue can never masquerade as validated data.
    if (second.rcode == ede::dns::RCode::NOERROR &&
        resolver.hardening_stats().edns_degraded_success > 0) {
      EXPECT_NE(second.security, ede::dnssec::Security::Secure)
          << spec.label << " via " << profiles[p].name;
    }
  }
}

std::string row_name(const ::testing::TestParamInfo<std::size_t>& info) {
  std::string label = ede::testbed::expected_edns()[info.param].label;
  for (char& c : label) {
    if (c == '-') c = '_';
  }
  return std::to_string(info.param + 1) + "_" + label;
}

INSTANTIATE_TEST_SUITE_P(AllCases, EdnsRow,
                         ::testing::Range<std::size_t>(0, 12), row_name);

TEST(EdnsZoo, TablesAreInSync) {
  auto& w = world();
  ASSERT_EQ(w.testbed.edns_case_specs().size(), 12u);
  ASSERT_EQ(ede::testbed::expected_edns().size(), 12u);
  // The classic worlds must not grow EDNS cases implicitly.
  Testbed plain(std::make_shared<ede::sim::Network>(
      std::make_shared<ede::sim::Clock>()));
  EXPECT_TRUE(plain.edns_case_specs().empty());
  EXPECT_EQ(plain.cases().size(), 63u);
}

// The capability memory, observed through the hardening counters: a
// timeout-downgrading vendor learns plain-DNS-only at abandonment and
// skips the dance on the next contact; a post-flag-day vendor never does.
TEST(EdnsZoo, CapabilityMemorySplitsTheVendors) {
  auto& w = world();
  const auto& spec = spec_of(w, "edns-drop");
  const auto qname = w.testbed.child_origin(spec.label);

  // Unbound-style: downgrade after the timeout quota, remember, skip.
  auto unbound = w.testbed.make_resolver(ede::resolver::profile_unbound());
  const auto first = unbound.resolve(qname, Testbed::edns_qtype(spec, false));
  EXPECT_EQ(first.rcode, ede::dns::RCode::SERVFAIL);
  const HardeningStats mid = unbound.hardening_stats();
  EXPECT_EQ(mid.edns_capability_skips, 0u);
  EXPECT_EQ(mid.edns_degraded_success, 0u);
  EXPECT_GE(unbound.infra().stats().edns_broken_learned, 1u);

  const auto second = unbound.resolve(qname, Testbed::edns_qtype(spec, true));
  EXPECT_EQ(second.rcode, ede::dns::RCode::NOERROR);
  const HardeningStats after = unbound.hardening_stats();
  EXPECT_GE(after.edns_capability_skips, 1u);
  EXPECT_GE(after.edns_degraded_success, 1u);

  // BIND-style (post flag day): timeouts never teach it anything.
  auto bind = w.testbed.make_resolver(ede::resolver::profile_bind());
  (void)bind.resolve(qname, Testbed::edns_qtype(spec, false));
  const auto bind_second =
      bind.resolve(qname, Testbed::edns_qtype(spec, true));
  EXPECT_EQ(bind_second.rcode, ede::dns::RCode::SERVFAIL);
  EXPECT_EQ(bind.hardening_stats().edns_capability_skips, 0u);
  EXPECT_EQ(bind.infra().stats().edns_broken_learned, 0u);
}

// Signal-driven fallback (FORMERR) is a free in-resolution retry: the
// plain probe is counted, the rejection is counted, and the verdict is
// remembered even by the post-flag-day vendors (the flag day removed only
// the timeout-driven downgrade). Each contact is its own one-job batch,
// and with latency off both start at the same virtual instant: the
// second still reads the verdict, because the batch-snapshot rule
// (DESIGN.md §5g) shows a resolution everything earlier batches learned.
TEST(EdnsZoo, FormerrDanceIsCountedAndRemembered) {
  auto& w = world();
  const auto& spec = spec_of(w, "edns-formerr");
  const auto qname = w.testbed.child_origin(spec.label);

  auto resolver = w.testbed.make_resolver(ede::resolver::profile_bind());
  const auto contact = [&](bool second) {
    ede::resolver::Outcome outcome;
    (void)resolver.resolve_many(
        {{qname, Testbed::edns_qtype(spec, second)}}, 1,
        [&outcome](std::size_t, ede::resolver::Outcome&& done) {
          outcome = std::move(done);
        });
    return outcome;
  };
  const auto epoch = w.clock->now_ms();
  const auto first = contact(false);
  EXPECT_EQ(first.rcode, ede::dns::RCode::NOERROR);
  const HardeningStats mid = resolver.hardening_stats();
  EXPECT_GE(mid.edns_formerr_seen, 1u);
  EXPECT_GE(mid.edns_fallback_probes, 1u);
  EXPECT_GE(mid.edns_degraded_success, 1u);
  EXPECT_EQ(mid.edns_capability_skips, 0u);

  const auto second = contact(true);
  EXPECT_EQ(second.rcode, ede::dns::RCode::NOERROR);
  EXPECT_EQ(w.clock->now_ms(), epoch);
  const HardeningStats after = resolver.hardening_stats();
  EXPECT_GE(after.edns_capability_skips, 1u);
  // No new rejection: the second contact never wasted an OPT.
  EXPECT_EQ(after.edns_formerr_seen, mid.edns_formerr_seen);
}

// A PlainOnly verdict expires after the vendor's re-probe TTL: the next
// contact pays for a fresh EDNS probe instead of skipping the dance.
TEST(EdnsZoo, CapabilityExpiryTriggersReprobe) {
  // A private world: this test moves the clock.
  EdnsWorld w;
  const auto& spec = spec_of(w, "edns-drop");
  const auto qname = w.testbed.child_origin(spec.label);

  auto resolver = w.testbed.make_resolver(ede::resolver::profile_unbound());
  (void)resolver.resolve(qname, Testbed::edns_qtype(spec, false));
  const auto learned = resolver.infra().stats().edns_broken_learned;
  EXPECT_GE(learned, 1u);

  // Within the TTL a third qtype still skips the dance (NODATA, but the
  // server answered plain).
  (void)resolver.resolve(qname, ede::dns::RRType::MX);
  EXPECT_GE(resolver.hardening_stats().edns_capability_skips, 1u);
  const auto skips = resolver.hardening_stats().edns_capability_skips;

  // Past the TTL the verdict reads Unknown again: the resolver re-probes
  // with EDNS, the OPT-eating server goes silent, and the failure is
  // learned afresh.
  w.clock->advance(
      ede::resolver::profile_unbound().edns_dance.capability_ttl_ms / 1000 +
      1);
  const auto reprobe = resolver.resolve(qname, ede::dns::RRType::AAAA);
  EXPECT_EQ(reprobe.rcode, ede::dns::RCode::SERVFAIL);
  EXPECT_EQ(resolver.hardening_stats().edns_capability_skips, skips);
  EXPECT_GT(resolver.infra().stats().edns_broken_learned, learned);
}

// The other half of the batch-snapshot rule: a verdict written by a
// sibling in the same batch stays hidden, whatever the window.
TEST(EdnsZoo, SiblingVerdictIsHiddenAtAnyWindow) {
  auto& w = world();
  const auto& spec = spec_of(w, "edns-formerr");
  const auto qname = w.testbed.child_origin(spec.label);
  for (const std::size_t window : {1, 2}) {
    auto resolver = w.testbed.make_resolver(ede::resolver::profile_bind());
    (void)resolver.resolve_many({{qname, Testbed::edns_qtype(spec, false)},
                                 {qname, Testbed::edns_qtype(spec, true)}},
                                window, {});
    // Both contacts danced: neither read the other's verdict.
    EXPECT_EQ(resolver.hardening_stats().edns_capability_skips, 0u)
        << "window " << window;
    EXPECT_EQ(resolver.hardening_stats().edns_formerr_seen, 2u)
        << "window " << window;
  }
}

// The verdict is overwritten in place, so its entry keeps the value it had
// when the current batch began: sibling overwrites never reach the other
// resolutions of that batch, and the next batch reads the latest write.
// (The writer's own PlainOnly verdicts live in its resolution context;
// Rfc8198.OwnVerdictAndOwnProofAreVisibleLaterInTheSameResolution covers
// them under a sibling's overwrite.)
TEST(EdnsZoo, SiblingOverwriteKeepsTheBatchStartVerdict) {
  using ede::resolver::InfraCache;
  InfraCache infra;
  const auto server = ede::sim::NodeAddress::of("192.0.2.53");
  const ede::sim::SimTimeMs now = 1'000;
  const auto plain = InfraCache::EdnsCapability::PlainOnly;
  const auto full = InfraCache::EdnsCapability::Full;

  infra.report_edns_broken(server, now, 60'000, {.self = 1, .batch_first = 1});
  // Batch two (ids 2..4): two siblings overwrite the verdict in turn.
  EXPECT_EQ(infra.edns_capability(server, now, {.self = 4, .batch_first = 2}),
            plain);
  infra.report_edns_ok(server, {.self = 2, .batch_first = 2});
  infra.report_edns_broken(server, now, 60'000, {.self = 3, .batch_first = 2});
  infra.report_edns_ok(server, {.self = 3, .batch_first = 2});
  for (const std::uint64_t reader : {2, 3, 4}) {
    EXPECT_EQ(infra.edns_capability(server, now,
                                    {.self = reader, .batch_first = 2}),
              plain)
        << "reader " << reader;
  }
  // Batch three sees the latest write of batch two.
  EXPECT_EQ(infra.edns_capability(server, now, {.self = 5, .batch_first = 5}),
            full);
}

}  // namespace
