// Golden-bytes fingerprint of the wire codec.
//
// Runs the full Table 4 matrix (63 testbed cases x 7 vendor profiles) with
// a Network wire tap and hashes every packet that crosses the simulated
// wire — every query the resolvers serialize and every response the
// authoritative servers serialize, compression choices included. The
// expected digest was recorded from the seed codec (vector-of-strings
// Name, map-based compression); any refactor of the codec data model must
// keep the stream byte-identical so the paper's Table 4 / §4.2 aggregates
// are provably unchanged.
//
// The two scenario families (truncation/DoTCP and the EDNS zoo) are pinned
// the same way, with each client response and its findings hashed too:
// their own suites check only rcodes and EDE codes.
#include <gtest/gtest.h>

#include "crypto/encoding.hpp"
#include "crypto/sha2.hpp"
#include "resolver/resolver.hpp"
#include "testbed/testbed.hpp"

namespace {

void hash_exchanges(ede::sim::Network& network, ede::crypto::Sha256& stream,
                    std::uint64_t& packets, std::uint64_t& bytes) {
  network.set_tap([&](ede::crypto::BytesView query,
                      const ede::sim::SendResult& result) {
    ++packets;
    bytes += query.size() + result.response.size();
    stream.update(query);
    const auto status = static_cast<std::uint8_t>(result.status);
    stream.update({&status, 1});
    stream.update(result.response);
  });
}

// Recorded from the seed codec at PR 3 (see file comment). If this test
// fails after an intentional wire-format change, re-record by running the
// test and copying the digest printed in the failure message — but for a
// pure performance refactor a mismatch means the refactor changed bytes.
//
// Re-recorded at PR 6: the fake TC retry (a second UDP exchange with a
// maximum-size EDNS advertisement) became a genuine DoTCP fallback, so
// truncated answers' second leg moved off the datagram tap and TC
// responses are now honestly truncated. The UDP codec itself is
// unchanged; the *transport dialogue* is what intentionally differs.
constexpr const char* kExpectedDigest =
    "54789e2ce796fe43e48306fe9108272fbd3affe8ba3ef912cf497e3c3ce152a1";

TEST(CodecGolden, Table4MatrixWireBytesUnchanged) {
  auto clock = std::make_shared<ede::sim::Clock>();
  auto network = std::make_shared<ede::sim::Network>(clock);
  ede::testbed::Testbed testbed(network);

  ede::crypto::Sha256 stream;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  hash_exchanges(*network, stream, packets, bytes);

  const auto profiles = ede::resolver::all_profiles();
  std::vector<ede::resolver::RecursiveResolver> resolvers;
  resolvers.reserve(profiles.size());
  for (const auto& profile : profiles)
    resolvers.push_back(testbed.make_resolver(profile));

  for (const auto& spec : testbed.cases()) {
    const auto qname = testbed.query_name(spec);
    for (auto& resolver : resolvers)
      (void)resolver.resolve(qname, ede::dns::RRType::A);
  }

  const auto digest = stream.finish();
  EXPECT_EQ(ede::crypto::to_hex({digest.data(), digest.size()}),
            kExpectedDigest)
      << "codec wire bytes changed (" << packets << " packets, " << bytes
      << " bytes hashed)";
}

// Recorded before the families' children moved to Testbed::add_child:
// both families in one testbed, every stream row (TXT at the row's
// resolver payload) and both contacts of every EDNS row through all seven
// profiles, once on the instantaneous transport and once with the latency
// model on.
constexpr const char* kFamiliesDigest =
    "e82b1947d8978ec843a739003940905bdf640a5d494594e6e31e10fca5fd28eb";

TEST(CodecGolden, ScenarioFamiliesWireBytesUnchanged) {
  ede::crypto::Sha256 stream;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  for (const bool latency : {false, true}) {
    auto clock = std::make_shared<ede::sim::Clock>();
    auto network = std::make_shared<ede::sim::Network>(clock);
    if (latency) network->set_latency({.enabled = true, .seed = 42});
    const ede::testbed::Testbed testbed(
        network, {.stream_family = true, .edns_family = true});
    hash_exchanges(*network, stream, packets, bytes);
    const auto hash_outcome = [&](const ede::resolver::Outcome& outcome) {
      stream.update(outcome.response.serialize());
      for (const auto& finding : outcome.findings)
        stream.update(ede::crypto::as_bytes(finding.detail));
    };
    const auto profiles = ede::resolver::all_profiles();
    for (const auto& spec : testbed.stream_case_specs()) {
      for (const auto& profile : profiles) {
        ede::resolver::ResolverOptions options;
        options.edns_udp_payload = spec.resolver_payload;
        auto resolver = testbed.make_resolver(profile, options);
        hash_outcome(resolver.resolve(testbed.child_origin(spec.label),
                                      ede::dns::RRType::TXT));
      }
    }
    for (const auto& spec : testbed.edns_case_specs()) {
      for (const auto& profile : profiles) {
        auto resolver = testbed.make_resolver(profile);
        for (const bool second : {false, true}) {
          hash_outcome(resolver.resolve(
              testbed.child_origin(spec.label),
              ede::testbed::Testbed::edns_qtype(spec, second)));
        }
      }
    }
  }

  const auto digest = stream.finish();
  EXPECT_EQ(ede::crypto::to_hex({digest.data(), digest.size()}),
            kFamiliesDigest)
      << "scenario-family bytes changed (" << packets << " packets, "
      << bytes << " bytes hashed)";
}

}  // namespace
