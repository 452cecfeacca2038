// The truncation / DoTCP scenario family end to end: every stream case
// resolved through all seven vendor profiles must match the calibrated
// expected_stream() table — rcode, validation state, and EDE codes — and
// the hardening counters must tell the same story (TC seen, fallbacks
// attempted, connects failing vs streams dying).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "resolver/resolver.hpp"
#include "testbed/expected.hpp"
#include "testbed/testbed.hpp"

namespace {

using ede::resolver::HardeningStats;
using ede::resolver::RecursiveResolver;
using ede::testbed::StreamCaseSpec;
using ede::testbed::Testbed;

struct StreamWorld {
  StreamWorld()
      : network(std::make_shared<ede::sim::Network>(
            std::make_shared<ede::sim::Clock>())),
        testbed(network, {.stream_family = true}) {}

  std::shared_ptr<ede::sim::Network> network;
  Testbed testbed;
};

StreamWorld& world() {
  static StreamWorld instance;
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

class StreamRow : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StreamRow, MatchesTheCalibratedTable) {
  auto& w = world();
  const auto& spec = w.testbed.stream_case_specs()[GetParam()];
  const auto& expected = ede::testbed::expected_stream()[GetParam()];
  ASSERT_EQ(expected.label, spec.label) << "row tables out of sync";

  const auto qname = w.testbed.child_origin(spec.label);
  const auto profiles = ede::resolver::all_profiles();
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    ede::resolver::ResolverOptions options;
    options.edns_udp_payload = spec.resolver_payload;
    auto resolver = w.testbed.make_resolver(profiles[p], options);
    const auto outcome = resolver.resolve(qname, ede::dns::RRType::TXT);

    const auto want_rcode = expected.rcode == "NOERROR"
                                ? ede::dns::RCode::NOERROR
                                : ede::dns::RCode::SERVFAIL;
    EXPECT_EQ(outcome.rcode, want_rcode)
        << spec.label << " via " << profiles[p].name;
    EXPECT_EQ(sorted_codes(outcome), expected.codes[p])
        << spec.label << " via " << profiles[p].name;
    if (spec.expect_success) {
      EXPECT_EQ(outcome.security, ede::dnssec::Security::Secure)
          << spec.label << " via " << profiles[p].name;
      EXPECT_FALSE(outcome.response.answer.empty())
          << spec.label << " via " << profiles[p].name;
    }
  }
}

std::string row_name(const ::testing::TestParamInfo<std::size_t>& info) {
  std::string label = ede::testbed::expected_stream()[info.param].label;
  for (char& c : label) {
    if (c == '-') c = '_';
  }
  return std::to_string(info.param + 1) + "_" + label;
}

INSTANTIATE_TEST_SUITE_P(AllCases, StreamRow,
                         ::testing::Range<std::size_t>(0, 10), row_name);

TEST(StreamScenarios, TablesAreInSync) {
  auto& w = world();
  ASSERT_EQ(w.testbed.stream_case_specs().size(), 10u);
  ASSERT_EQ(ede::testbed::expected_stream().size(), 10u);
  // The classic worlds must not grow stream cases implicitly.
  Testbed plain(std::make_shared<ede::sim::Network>(
      std::make_shared<ede::sim::Clock>()));
  EXPECT_TRUE(plain.stream_case_specs().empty());
  EXPECT_EQ(plain.cases().size(), 63u);
}

// The hardening counters distinguish the transport stories the EDE codes
// fold together: a refused connect vs a stream that died mid-answer.
TEST(StreamScenarios, HardeningCountersTellTheTransportStory) {
  auto& w = world();
  const auto resolve = [&](std::string_view label) {
    const auto& specs = w.testbed.stream_case_specs();
    const auto it = std::find_if(
        specs.begin(), specs.end(),
        [&](const StreamCaseSpec& s) { return s.label == label; });
    EXPECT_NE(it, specs.end());
    ede::resolver::ResolverOptions options;
    options.edns_udp_payload = it->resolver_payload;
    auto resolver =
        w.testbed.make_resolver(ede::resolver::profile_cloudflare(), options);
    (void)resolver.resolve(w.testbed.child_origin(it->label),
                           ede::dns::RRType::TXT);
    return resolver.hardening_stats();
  };

  const HardeningStats clean = resolve("tc-clean-fallback");
  EXPECT_GE(clean.tc_seen, 1u);
  EXPECT_GE(clean.tcp_fallbacks, 1u);
  EXPECT_GE(clean.tcp_success, 1u);
  EXPECT_EQ(clean.tcp_connect_failures, 0u);
  EXPECT_EQ(clean.tcp_stream_failures, 0u);

  const HardeningStats refused = resolve("tcp-refused");
  EXPECT_GE(refused.tc_seen, 1u);
  EXPECT_GE(refused.tcp_connect_failures, 1u);
  EXPECT_EQ(refused.tcp_success, 0u);

  const HardeningStats stalled = resolve("tcp-stall");
  EXPECT_GE(stalled.tcp_stream_failures, 1u);
  EXPECT_EQ(stalled.tcp_success, 0u);

  const HardeningStats midclose = resolve("tcp-midstream-close");
  EXPECT_GE(midclose.tcp_stream_failures, 1u);
  EXPECT_EQ(midclose.tcp_success, 0u);

  // FragDrop never produces a TC bit: the answer just vanishes in flight,
  // so no DoTCP fallback is ever attempted.
  const HardeningStats fragged = resolve("frag-drop-dnssec");
  EXPECT_EQ(fragged.tc_seen, 0u);
  EXPECT_EQ(fragged.tcp_fallbacks, 0u);
}

// The buffer-size sweep: the same ~2 KB signed answer, three resolver
// advertisements. 512 and 1232 truncate and fall back; 4096 fits over UDP
// and never touches the stream.
TEST(StreamScenarios, EdnsBufferSizeSweep) {
  auto& w = world();
  const auto run = [&](std::string_view label, std::uint16_t payload) {
    ede::resolver::ResolverOptions options;
    options.edns_udp_payload = payload;
    const auto& specs = w.testbed.stream_case_specs();
    const auto it = std::find_if(
        specs.begin(), specs.end(),
        [&](const StreamCaseSpec& s) { return s.label == label; });
    EXPECT_NE(it, specs.end());
    auto resolver = w.testbed.make_resolver(
        ede::resolver::profile_cloudflare(), options);
    const auto outcome =
        resolver.resolve(w.testbed.child_origin(it->label),
                         ede::dns::RRType::TXT);
    EXPECT_EQ(outcome.rcode, ede::dns::RCode::NOERROR) << label;
    EXPECT_EQ(outcome.security, ede::dnssec::Security::Secure) << label;
    return resolver.hardening_stats();
  };

  EXPECT_GE(run("edns-512", 512).tcp_success, 1u);
  EXPECT_GE(run("edns-1232", 1'232).tcp_success, 1u);
  const HardeningStats big = run("edns-4096", 4'096);
  EXPECT_EQ(big.tc_seen, 0u);
  EXPECT_EQ(big.tcp_fallbacks, 0u);
}

}  // namespace
