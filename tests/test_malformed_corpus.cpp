// Malformed-packet corpus: every wire the Byzantine mutators can emit —
// plus systematic truncation sweeps and hand-built compression-pointer
// traps — must flow through Message::parse without crashing, hanging or
// reading out of bounds. The suite is intentionally heavy on iteration
// counts and runs in the ASan+UBSan verify tree, where "parse returned an
// error" and "parse returned a value" are both passes and anything else
// (OOB read, signed overflow, runaway loop) aborts the binary.
#include <gtest/gtest.h>

#include "crypto/rng.hpp"
#include "dnscore/message.hpp"
#include "edns/edns.hpp"
#include "simnet/byzantine.hpp"

namespace {

using namespace ede;

/// A realistic, compression-heavy response: question + answer + authority
/// + additional (with OPT), all sharing suffixes so truncation cuts
/// through pointers mid-flight.
dns::Message sample_response() {
  const auto owner = dns::Name::of("host.child.example-zone.test");
  dns::Message m = dns::make_query(0x4242, owner, dns::RRType::A);
  m.header.qr = true;
  m.header.aa = true;
  m.answer.push_back({owner, dns::RRType::A, dns::RRClass::IN, 3600,
                      dns::ARdata{dns::Ipv4Address{{192, 0, 2, 1}}}});
  m.answer.push_back(
      {owner, dns::RRType::TXT, dns::RRClass::IN, 3600,
       dns::TxtRdata{{"a moderately long txt string for padding"}}});
  m.authority.push_back(
      {dns::Name::of("child.example-zone.test"), dns::RRType::NS,
       dns::RRClass::IN, 86'400,
       dns::NsRdata{dns::Name::of("ns1.child.example-zone.test")}});
  m.additional.push_back(
      {dns::Name::of("ns1.child.example-zone.test"), dns::RRType::A,
       dns::RRClass::IN, 86'400,
       dns::ARdata{dns::Ipv4Address{{192, 0, 2, 53}}}});
  m.additional.push_back({dns::Name{}, dns::RRType::OPT, dns::RRClass::IN,
                          static_cast<std::uint32_t>(1232) << 16,
                          dns::OptRdata{}});
  return m;
}

crypto::Bytes sample_query_wire() {
  return dns::make_query(0x4242, dns::Name::of("host.child.example-zone.test"),
                         dns::RRType::A)
      .serialize();
}

/// Drive one behavior's mutator over the sample exchange `rounds` times
/// (fresh seed each round) and parse whatever comes out. Returns how many
/// outputs parsed successfully — callers assert corpus-specific
/// expectations on it; the real test is that nothing crashes.
std::size_t parse_mutated_corpus(sim::ByzantineBehavior behavior,
                                 std::size_t rounds) {
  const auto query = sample_query_wire();
  const auto response = sample_response().serialize();
  std::size_t parsed_ok = 0;
  for (std::size_t seed = 0; seed < rounds; ++seed) {
    auto mutator = sim::make_byzantine_mutator({behavior}, 0x900d + seed);
    sim::MutateContext ctx;
    ctx.now = 1'700'000'000;
    const auto wire = mutator(query, response, ctx);
    if (!wire) continue;  // swallowed — nothing on the wire to parse
    const auto result = dns::Message::parse(*wire);
    if (result) ++parsed_ok;
  }
  return parsed_ok;
}

TEST(MalformedCorpus, EveryMutatorOutputParsesOrFailsCleanly) {
  constexpr std::size_t kRounds = 200;
  // Structure-preserving mutations stay parseable…
  EXPECT_EQ(parse_mutated_corpus(sim::ByzantineBehavior::wrong_qid(), kRounds),
            kRounds);
  EXPECT_EQ(parse_mutated_corpus(sim::ByzantineBehavior::wrong_question(),
                                 kRounds),
            kRounds);
  EXPECT_EQ(parse_mutated_corpus(sim::ByzantineBehavior::spoof(), kRounds),
            kRounds);
  EXPECT_EQ(parse_mutated_corpus(
                sim::ByzantineBehavior::spoof(1.0, /*qid_known=*/true),
                kRounds),
            kRounds);
  EXPECT_EQ(parse_mutated_corpus(sim::ByzantineBehavior::bailiwick_stuff(),
                                 kRounds),
            kRounds);
  EXPECT_EQ(parse_mutated_corpus(sim::ByzantineBehavior::different_answer(),
                                 kRounds),
            kRounds);
  // …structure-destroying ones must never parse…
  EXPECT_EQ(parse_mutated_corpus(sim::ByzantineBehavior::pointer_loop(),
                                 kRounds),
            0u);
  // …and the rest may land either way depending on where the bytes fall,
  // as long as nothing crashes (the sanitizers arbitrate).
  parse_mutated_corpus(sim::ByzantineBehavior::truncation_garbage(), kRounds);
  parse_mutated_corpus(sim::ByzantineBehavior::oversize(1.0, 6000), kRounds);
  parse_mutated_corpus(sim::ByzantineBehavior::fuzz(1.0, 16), kRounds);
  parse_mutated_corpus(sim::ByzantineBehavior::slow_drip(), kRounds);
}

/// The same exchange but with the query carrying an OPT — the EDNS
/// mutators that react to the client's EDNS state (drop, FORMERR,
/// BADVERS) gate on it.
crypto::Bytes sample_edns_query_wire() {
  auto q = dns::make_query(0x4242,
                           dns::Name::of("host.child.example-zone.test"),
                           dns::RRType::A);
  q.additional.push_back({dns::Name{}, dns::RRType::OPT,
                          static_cast<dns::RRClass>(1232), 0x8000u,
                          dns::OptRdata{}});
  return q.serialize();
}

std::size_t parse_edns_mutated_corpus(sim::ByzantineBehavior behavior,
                                      std::size_t rounds) {
  const auto query = sample_edns_query_wire();
  const auto response = sample_response().serialize();
  std::size_t parsed_ok = 0;
  for (std::size_t seed = 0; seed < rounds; ++seed) {
    auto mutator = sim::make_byzantine_mutator({behavior}, 0xed25 + seed);
    sim::MutateContext ctx;
    ctx.now = 1'700'000'000;
    const auto wire = mutator(query, response, ctx);
    if (!wire) continue;
    if (dns::Message::parse(*wire)) ++parsed_ok;
  }
  return parsed_ok;
}

// The RFC 6891 zoo mutators: every hostile-EDNS rewrite must stay
// parseable (the fallback machinery needs to *read* the rejection to
// react to it) — except the drop, which by definition puts nothing on
// the wire. A crash anywhere here would abort a resolution that a
// plain-DNS retry could have saved.
TEST(MalformedCorpus, EdnsMutatorOutputsStayParseable) {
  constexpr std::size_t kRounds = 200;
  EXPECT_EQ(parse_edns_mutated_corpus(sim::ByzantineBehavior::edns_drop(),
                                      kRounds),
            0u);
  EXPECT_EQ(parse_edns_mutated_corpus(sim::ByzantineBehavior::edns_formerr(),
                                      kRounds),
            kRounds);
  EXPECT_EQ(parse_edns_mutated_corpus(
                sim::ByzantineBehavior::edns_strip_opt(), kRounds),
            kRounds);
  EXPECT_EQ(parse_edns_mutated_corpus(
                sim::ByzantineBehavior::edns_echo_extra(), kRounds),
            kRounds);
  EXPECT_EQ(parse_edns_mutated_corpus(sim::ByzantineBehavior::edns_badvers(),
                                      kRounds),
            kRounds);
  EXPECT_EQ(parse_edns_mutated_corpus(
                sim::ByzantineBehavior::edns_buffer_lie(), kRounds),
            kRounds);
  EXPECT_EQ(parse_edns_mutated_corpus(sim::ByzantineBehavior::edns_garble(),
                                      kRounds),
            kRounds);
  EXPECT_EQ(parse_edns_mutated_corpus(
                sim::ByzantineBehavior::edns_duplicate_opt(), kRounds),
            kRounds);
}

// The duplicate-OPT rewrite appends a copy of the response's OPT, and
// leaves a response without one as it was.
TEST(MalformedCorpus, DuplicateOptDoublesAnExistingOptOnly) {
  const auto query = sample_edns_query_wire();
  auto mutator = sim::make_byzantine_mutator(
      {sim::ByzantineBehavior::edns_duplicate_opt()}, 0);
  sim::MutateContext ctx;
  ctx.now = 1'700'000'000;

  const auto doubled = mutator(query, sample_response().serialize(), ctx);
  ASSERT_TRUE(doubled.has_value());
  const auto parsed = dns::Message::parse(*doubled);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(edns::opt_count(parsed.value()), 2u);

  dns::Message plain = sample_response();
  plain.additional.pop_back();  // the OPT
  const auto plain_wire = plain.serialize();
  const auto untouched = mutator(query, plain_wire, ctx);
  ASSERT_TRUE(untouched.has_value());
  EXPECT_EQ(*untouched, plain_wire);
}

// The question-mangling middlebox: the echoed question names something
// nobody asked, while the QID and the RCODE stay the server's, so only
// the resolver's question check can catch it.
TEST(MalformedCorpus, WrongQuestionKeepsTheQidAndTheRcode) {
  dns::Message refused = sample_response();
  refused.header.rcode = dns::RCode::REFUSED;
  refused.answer.clear();
  refused.authority.clear();
  auto mutator = sim::make_byzantine_mutator(
      {sim::ByzantineBehavior::wrong_question()}, 0);
  sim::MutateContext ctx;
  ctx.now = 1'700'000'000;
  const auto wire = mutator(sample_query_wire(), refused.serialize(), ctx);
  ASSERT_TRUE(wire.has_value());
  const auto parsed = dns::Message::parse(*wire);
  ASSERT_TRUE(parsed.ok());
  const auto& m = parsed.value();
  EXPECT_EQ(m.header.id, 0x4242);
  EXPECT_EQ(m.header.rcode, dns::RCode::REFUSED);
  ASSERT_EQ(m.question.size(), 1u);
  EXPECT_NE(m.question.front().qname,
            dns::Name::of("host.child.example-zone.test"));
  EXPECT_EQ(m.question.front().qname, sim::poison_marker());
  EXPECT_EQ(m.question.front().qtype, dns::RRType::A);
}

/// A hand-built datagram: empty question, `opts` OPT records whose rdata
/// is exactly `rdatas[i]`, raw bytes straight onto the wire with no codec
/// in between.
crypto::Bytes raw_opt_datagram(const std::vector<crypto::Bytes>& rdatas) {
  crypto::Bytes wire(12, 0);
  wire[2] = 0x80;  // QR
  wire[11] = static_cast<std::uint8_t>(rdatas.size());  // arcount
  for (const auto& rdata : rdatas) {
    wire.push_back(0x00);                           // root owner
    wire.insert(wire.end(), {0x00, 0x29});          // TYPE = OPT
    wire.insert(wire.end(), {0x04, 0xd0});          // CLASS = 1232
    wire.insert(wire.end(), {0x00, 0x00, 0x00, 0x00});  // TTL
    wire.push_back(static_cast<std::uint8_t>(rdata.size() >> 8));
    wire.push_back(static_cast<std::uint8_t>(rdata.size() & 0xff));
    wire.insert(wire.end(), rdata.begin(), rdata.end());
  }
  return wire;
}

// Random OPT rdata — truncated option headers, lying lengths, pure noise —
// must never fail the message parse (the hardened decoder captures the
// unparseable tail instead), and whatever parsed must re-serialize to the
// exact input bytes: option-list prefix plus verbatim tail.
TEST(MalformedCorpus, OptRdataFuzzParsesAndRoundTrips) {
  crypto::Xoshiro256 rng(0x0b57);
  for (std::size_t round = 0; round < 400; ++round) {
    crypto::Bytes rdata(rng.below(40));
    for (auto& b : rdata) b = static_cast<std::uint8_t>(rng.below(256));
    const auto wire = raw_opt_datagram({rdata});
    const auto parsed = dns::Message::parse(wire);
    ASSERT_TRUE(parsed.ok()) << "round " << round;
    EXPECT_EQ(parsed.value().serialize(), wire) << "round " << round;
  }
}

// Multi-OPT datagrams (RFC 6891 §6.1.1 forbids them; hostile authorities
// send them anyway): they must parse, every OPT must be visible to the
// duplicate-OPT detector, and fuzzed rdata in any of them must not change
// that.
TEST(MalformedCorpus, MultiOptDatagramsParseAndAreCountable) {
  crypto::Xoshiro256 rng(0xd0b1);
  for (std::size_t round = 0; round < 200; ++round) {
    const std::size_t count = 2 + rng.below(3);
    std::vector<crypto::Bytes> rdatas(count);
    for (auto& rdata : rdatas) {
      rdata.resize(rng.below(24));
      for (auto& b : rdata) b = static_cast<std::uint8_t>(rng.below(256));
    }
    const auto wire = raw_opt_datagram(rdatas);
    const auto parsed = dns::Message::parse(wire);
    ASSERT_TRUE(parsed.ok()) << "round " << round;
    EXPECT_EQ(edns::opt_count(parsed.value()), count) << "round " << round;
  }
}

// Every prefix of a valid message — a datagram cut anywhere, including
// mid-pointer and mid-rdata — parses or errors without touching memory
// past the buffer.
TEST(MalformedCorpus, TruncationSweepNeverCrashes) {
  const auto wire = sample_response().serialize();
  ASSERT_GT(wire.size(), 12u);
  std::size_t parsed_ok = 0;
  for (std::size_t len = 0; len <= wire.size(); ++len) {
    const crypto::Bytes prefix(wire.begin(), wire.begin() + len);
    const auto result = dns::Message::parse(prefix);
    if (result) ++parsed_ok;
  }
  // Only the full message (and possibly a trailing-OPT-less prefix) can
  // parse; certainly not most prefixes.
  EXPECT_GE(parsed_ok, 1u);
  EXPECT_LT(parsed_ok, wire.size() / 2);
}

// parse_into with a reused scratch message across the whole corpus: the
// arena path must be exactly as robust as the allocating path.
TEST(MalformedCorpus, ReusedScratchMessageSurvivesTheCorpus) {
  const auto query = sample_query_wire();
  const auto response = sample_response().serialize();
  dns::Message scratch;
  for (std::size_t seed = 0; seed < 100; ++seed) {
    auto mutator = sim::make_byzantine_mutator(
        {sim::ByzantineBehavior::fuzz(1.0, 24)}, seed);
    sim::MutateContext ctx;
    ctx.now = 1'700'000'000;
    const auto wire = mutator(query, response, ctx);
    ASSERT_TRUE(wire.has_value());
    (void)dns::Message::parse_into(*wire, scratch);
  }
}

// Hand-built pointer traps, independent of the mutators: a self-pointer,
// a forward pointer, and a several-hundred-hop strictly-backwards chain.
// All three must be rejected (not followed forever).
TEST(MalformedCorpus, PointerTrapsAreRejected) {
  const auto header = [] {
    crypto::Bytes h(12, 0);
    h[2] = 0x80;  // QR
    h[5] = 1;     // qdcount = 1
    return h;
  };

  {  // name at offset 12 pointing at offset 12
    auto wire = header();
    wire.insert(wire.end(), {0xc0, 0x0c, 0x00, 0x01, 0x00, 0x01});
    EXPECT_FALSE(dns::Message::parse(wire).ok());
  }
  {  // forward pointer (points past itself)
    auto wire = header();
    wire.insert(wire.end(), {0xc0, 0x20, 0x00, 0x01, 0x00, 0x01});
    EXPECT_FALSE(dns::Message::parse(wire).ok());
  }
  {  // 400 pointers, each two bytes back: legal hop by hop, caught by the
     // hop cap
    auto wire = header();
    wire.push_back(0x00);  // root label at offset 12
    std::uint16_t target = 12;
    for (int i = 0; i < 400; ++i) {
      const auto at = static_cast<std::uint16_t>(wire.size());
      wire.push_back(static_cast<std::uint8_t>(0xc0 | (target >> 8)));
      wire.push_back(static_cast<std::uint8_t>(target & 0xff));
      target = at;
    }
    wire.insert(wire.end(), {0x00, 0x01, 0x00, 0x01});
    EXPECT_FALSE(dns::Message::parse(wire).ok());
  }
}

// Pure random-byte datagrams (not derived from any valid message), across
// a spread of sizes.
TEST(MalformedCorpus, RandomBytesNeverCrashTheParser) {
  crypto::Xoshiro256 rng(0xfadedbee);
  for (std::size_t round = 0; round < 500; ++round) {
    const std::size_t size = rng.below(768);
    crypto::Bytes wire(size);
    for (auto& b : wire) b = static_cast<std::uint8_t>(rng.below(256));
    (void)dns::Message::parse(wire);
  }
}

// The mutators themselves are deterministic: one seed, one output.
TEST(MalformedCorpus, MutatorsAreSeedDeterministic) {
  const auto query = sample_query_wire();
  const auto response = sample_response().serialize();
  for (const auto behavior :
       {sim::ByzantineBehavior::wrong_qid(), sim::ByzantineBehavior::spoof(),
        sim::ByzantineBehavior::pointer_loop(),
        sim::ByzantineBehavior::truncation_garbage(),
        sim::ByzantineBehavior::fuzz(1.0, 12)}) {
    const auto run = [&] {
      auto mutator = sim::make_byzantine_mutator({behavior}, 0x5a5a);
      sim::MutateContext ctx;
      ctx.now = 1'700'000'000;
      return mutator(query, response, ctx);
    };
    const auto first = run();
    const auto second = run();
    ASSERT_EQ(first.has_value(), second.has_value());
    if (first) {
      EXPECT_EQ(*first, *second);
    }
  }
}

// Poison detection (the campaign's cache invariant helper) is itself
// robust: garbage never "contains poison", stuffed output always does.
TEST(MalformedCorpus, ContainsPoisonMatchesTheStuffedWire) {
  const auto query = sample_query_wire();
  const auto response = sample_response().serialize();
  EXPECT_FALSE(sim::contains_poison(response));

  auto mutator = sim::make_byzantine_mutator(
      {sim::ByzantineBehavior::bailiwick_stuff()}, 1);
  sim::MutateContext ctx;
  ctx.now = 1'700'000'000;
  const auto stuffed = mutator(query, response, ctx);
  ASSERT_TRUE(stuffed.has_value());
  EXPECT_TRUE(sim::contains_poison(*stuffed));

  auto forger = sim::make_byzantine_mutator(
      {sim::ByzantineBehavior::different_answer()}, 1);
  const auto forged = forger(query, response, ctx);
  ASSERT_TRUE(forged.has_value());
  EXPECT_TRUE(sim::contains_poison(*forged));

  crypto::Bytes garbage(40, 0xff);
  EXPECT_FALSE(sim::contains_poison(garbage));
}

}  // namespace
