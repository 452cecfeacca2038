// The stream transport in isolation: RFC 1035 §4.2.2 framing edge cases
// (a length prefix split across segment boundaries, zero-length frames,
// over-declared prefixes), the one-call connection lifecycle (refuse, SYN
// drop, mid-stream close), the transport faults, the response mutator
// hook (the Byzantine zoo's forged answer included), and the fixed-seed
// replay guarantee chaos storylines depend on.
#include <gtest/gtest.h>

#include <memory>

#include "dnscore/message.hpp"
#include "dnscore/rdata.hpp"
#include "simnet/byzantine.hpp"
#include "simnet/stream.hpp"

namespace {

using ede::crypto::Bytes;
using ede::crypto::BytesView;
using ede::sim::Clock;
using ede::sim::FrameAssembler;
using ede::sim::NodeAddress;
using ede::sim::StreamBehavior;
using ede::sim::StreamTransport;
using StreamStatus = StreamTransport::Status;
using Status = FrameAssembler::Status;

Bytes bytes_of(std::initializer_list<std::uint8_t> values) {
  return Bytes(values.begin(), values.end());
}

// --- framing ----------------------------------------------------------

TEST(Framing, PrefixThenPayload) {
  const Bytes payload = bytes_of({0xde, 0xad, 0xbe, 0xef});
  const Bytes framed = ede::sim::frame_message(payload);
  ASSERT_EQ(framed.size(), 6u);
  EXPECT_EQ(framed[0], 0x00);
  EXPECT_EQ(framed[1], 0x04);
  EXPECT_EQ(Bytes(framed.begin() + 2, framed.end()), payload);
}

TEST(Framing, PrefixSpanningSegmentBoundaries) {
  // The two length bytes arrive in different segments, and so does the
  // payload: the assembler must never misread a half-received prefix.
  const Bytes payload = bytes_of({1, 2, 3, 4, 5});
  const Bytes framed = ede::sim::frame_message(payload);

  FrameAssembler assembler;
  assembler.feed(BytesView(framed.data(), 1));  // first prefix byte only
  EXPECT_EQ(assembler.pop().status, Status::NeedMore);
  assembler.feed(BytesView(framed.data() + 1, 1));  // second prefix byte
  EXPECT_EQ(assembler.pop().status, Status::NeedMore);
  assembler.feed(BytesView(framed.data() + 2, 2));  // part of the payload
  EXPECT_EQ(assembler.pop().status, Status::NeedMore);
  assembler.feed(BytesView(framed.data() + 4, framed.size() - 4));

  const auto result = assembler.pop();
  ASSERT_EQ(result.status, Status::Frame);
  EXPECT_EQ(result.frame, payload);
  EXPECT_EQ(assembler.pending(), 0u);
}

TEST(Framing, ZeroLengthFrameIsBadButRecoverable) {
  FrameAssembler assembler;
  assembler.feed(bytes_of({0x00, 0x00}));  // zero-length frame
  const Bytes payload = bytes_of({9, 8, 7});
  assembler.feed(ede::sim::frame_message(payload));

  EXPECT_EQ(assembler.pop().status, Status::BadFrame);
  const auto next = assembler.pop();
  ASSERT_EQ(next.status, Status::Frame);
  EXPECT_EQ(next.frame, payload);
}

TEST(Framing, OverDeclaredPrefixNeverCompletes) {
  FrameAssembler assembler;
  // Prefix promises 100 bytes; only 3 ever arrive. Indistinguishable from
  // a frame in flight, so the reader's patience is the only way out.
  assembler.feed(bytes_of({0x00, 100, 1, 2, 3}));
  EXPECT_EQ(assembler.pop().status, Status::NeedMore);
  EXPECT_EQ(assembler.pop().status, Status::NeedMore);
  EXPECT_EQ(assembler.pending(), 5u);
}

TEST(Framing, BackToBackFramesInOneBuffer) {
  const Bytes first = bytes_of({1, 1});
  const Bytes second = bytes_of({2, 2, 2});
  FrameAssembler assembler;
  Bytes wire = ede::sim::frame_message(first);
  const Bytes tail = ede::sim::frame_message(second);
  wire.insert(wire.end(), tail.begin(), tail.end());
  assembler.feed(wire);

  auto a = assembler.pop();
  auto b = assembler.pop();
  ASSERT_EQ(a.status, Status::Frame);
  ASSERT_EQ(b.status, Status::Frame);
  EXPECT_EQ(a.frame, first);
  EXPECT_EQ(b.frame, second);
  EXPECT_EQ(assembler.pop().status, Status::NeedMore);
}

// --- connection lifecycle ---------------------------------------------

struct StreamWorld {
  StreamWorld() : clock(std::make_shared<Clock>()), transport(clock, 42) {
    transport.listen(server, [this](BytesView query, const auto&) {
      last_query = Bytes(query.begin(), query.end());
      return std::optional<Bytes>(bytes_of({0xab, 0xcd}));
    });
  }

  StreamTransport::Result ask(const NodeAddress& to) {
    return transport.exchange(client, to, bytes_of({0x01}));
  }
  StreamTransport::Result ask() { return ask(server); }

  std::shared_ptr<Clock> clock;
  StreamTransport transport;
  NodeAddress client = NodeAddress::of("192.0.2.1");
  NodeAddress server = NodeAddress::of("93.184.216.1");
  Bytes last_query;
};

TEST(StreamLifecycle, HandshakeExchangeClose) {
  StreamWorld w;
  const auto reply = w.ask();
  ASSERT_EQ(reply.status, StreamStatus::Ok);
  EXPECT_EQ(w.last_query, bytes_of({0x01}));  // de-framed server side

  FrameAssembler assembler;
  assembler.feed(reply.bytes);
  const auto frame = assembler.pop();
  ASSERT_EQ(frame.status, Status::Frame);
  EXPECT_EQ(frame.frame, bytes_of({0xab, 0xcd}));

  EXPECT_EQ(w.transport.stats().connects_established, 1u);
  EXPECT_EQ(w.transport.stats().frames_delivered, 1u);
}

TEST(StreamLifecycle, NobodyListeningLooksRefused) {
  StreamWorld w;
  const auto reply = w.ask(NodeAddress::of("93.184.216.77"));
  EXPECT_EQ(reply.status, StreamStatus::Refused);
  EXPECT_TRUE(reply.bytes.empty());
  EXPECT_EQ(w.transport.stats().connects_refused, 1u);
}

TEST(StreamLifecycle, RefuseBehaviorSendsRst) {
  StreamWorld w;
  w.transport.set_behaviors(w.server, {StreamBehavior::refuse()});
  EXPECT_EQ(w.ask().status, StreamStatus::Refused);
  EXPECT_TRUE(w.last_query.empty());  // the server never saw the query
}

TEST(StreamLifecycle, SynDropTimesOut) {
  StreamWorld w;
  w.transport.set_behaviors(w.server, {StreamBehavior::syn_drop()});
  EXPECT_EQ(w.ask().status, StreamStatus::SynTimeout);
  EXPECT_EQ(w.transport.stats().connects_dropped, 1u);
}

TEST(StreamLifecycle, BehaviorWindowExpires) {
  StreamWorld w;
  w.transport.set_behaviors(
      w.server, {StreamBehavior::refuse().between(0, ede::sim::kDefaultNow)});
  // The window closed before the testbed's fixed "now": connects succeed.
  EXPECT_EQ(w.ask().status, StreamStatus::Ok);
}

// --- hostile exchange behaviors ---------------------------------------

TEST(StreamHostility, StallReadsAsTimeout) {
  StreamWorld w;
  w.transport.set_behaviors(w.server, {StreamBehavior::stall()});
  const auto reply = w.ask();
  EXPECT_EQ(reply.status, StreamStatus::Stalled);
  EXPECT_TRUE(reply.bytes.empty());
  EXPECT_EQ(w.transport.stats().connects_established, 1u);
  EXPECT_EQ(w.transport.stats().stalls, 1u);
}

TEST(StreamHostility, MidCloseDeliversAPartialFrame) {
  StreamWorld w;
  w.transport.set_behaviors(w.server,
                            {StreamBehavior::mid_close(1.0, /*bytes=*/3)});
  const auto reply = w.ask();
  EXPECT_EQ(reply.status, StreamStatus::Closed);
  EXPECT_EQ(reply.bytes.size(), 3u);  // prefix + one payload byte, then FIN
  EXPECT_EQ(w.transport.stats().mid_closes, 1u);

  FrameAssembler assembler;
  assembler.feed(reply.bytes);
  EXPECT_EQ(assembler.pop().status, Status::NeedMore);
}

TEST(StreamHostility, GarbageFrameNeverAssembles) {
  StreamWorld w;
  w.transport.set_behaviors(w.server, {StreamBehavior::garbage_frame()});
  const auto reply = w.ask();
  ASSERT_EQ(reply.status, StreamStatus::Ok);

  FrameAssembler assembler;
  assembler.feed(reply.bytes);
  const auto popped = assembler.pop();
  EXPECT_TRUE(popped.status == Status::BadFrame ||
              popped.status == Status::NeedMore);
  EXPECT_EQ(w.transport.stats().garbage_frames, 1u);
}

// The TC-then-different-answer bait-and-switch is a Byzantine behavior
// installed through the stream's mutator hook, not a stream fault.
TEST(StreamHostility, DifferentAnswerForgesUnsignedReply) {
  StreamWorld w;
  // A real DNS query this time, so the forge has a question to answer.
  ede::dns::Message query;
  query.header.id = 0x1234;
  query.question.push_back({ede::dns::Name::of("victim.example"),
                            ede::dns::RRType::A, ede::dns::RRClass::IN});
  w.transport.set_mutator(
      w.server, ede::sim::make_byzantine_mutator(
                    {ede::sim::ByzantineBehavior::different_answer()}, 0));
  const auto reply = w.transport.exchange(w.client, w.server,
                                          query.serialize());
  ASSERT_EQ(reply.status, StreamStatus::Ok);

  FrameAssembler assembler;
  assembler.feed(reply.bytes);
  auto frame = assembler.pop();
  ASSERT_EQ(frame.status, Status::Frame);
  auto parsed = ede::dns::Message::parse(frame.frame);
  ASSERT_TRUE(parsed.ok());
  const auto& forged = parsed.value();
  EXPECT_EQ(forged.header.id, 0x1234);
  ASSERT_EQ(forged.answer.size(), 1u);
  EXPECT_EQ(forged.answer[0].type, ede::dns::RRType::A);
  // Unsigned and bearing the poison marker: validation must reject it and
  // the scrubber must shed the additional record.
  EXPECT_TRUE(forged.authority.empty());
  ASSERT_FALSE(forged.additional.empty());
  EXPECT_EQ(forged.additional[0].name, ede::sim::poison_marker());
  EXPECT_EQ(w.transport.stats().mutated, 1u);
}

// The datagram ResponseMutator hook on the stream side: it sees the
// unframed query and response, and its bytes are what gets framed.
TEST(StreamHostility, MutatorRewritesTheResponseBeforeFraming) {
  StreamWorld w;
  Bytes seen_query;
  w.transport.set_mutator(
      w.server,
      [&seen_query](BytesView query, Bytes response,
                    ede::sim::MutateContext& ctx) -> std::optional<Bytes> {
        seen_query = Bytes(query.begin(), query.end());
        response.push_back(0xef);
        ctx.mutated = true;
        return response;
      });
  const auto reply = w.ask();
  ASSERT_EQ(reply.status, StreamStatus::Ok);
  EXPECT_EQ(seen_query, bytes_of({0x01}));

  // The length prefix covers the rewritten payload.
  FrameAssembler assembler;
  assembler.feed(reply.bytes);
  const auto frame = assembler.pop();
  ASSERT_EQ(frame.status, Status::Frame);
  EXPECT_EQ(frame.frame, bytes_of({0xab, 0xcd, 0xef}));
  EXPECT_EQ(w.transport.stats().mutated, 1u);
  EXPECT_EQ(w.transport.stats().frames_delivered, 1u);
}

TEST(StreamHostility, SwallowingMutatorReadsAsClose) {
  StreamWorld w;
  w.transport.set_mutator(
      w.server,
      [](BytesView, Bytes, ede::sim::MutateContext& ctx)
          -> std::optional<Bytes> {
        ctx.mutated = true;
        return std::nullopt;
      });
  const auto reply = w.ask();
  EXPECT_EQ(reply.status, StreamStatus::Closed);
  EXPECT_TRUE(reply.bytes.empty());
  EXPECT_EQ(w.transport.stats().mutated, 1u);
  EXPECT_EQ(w.transport.stats().frames_delivered, 0u);

  // A default-constructed mutator clears the hook.
  w.transport.set_mutator(w.server, nullptr);
  EXPECT_EQ(w.ask().status, StreamStatus::Ok);
}

// --- determinism ------------------------------------------------------

// A fixed seed must replay the exact same connection-fault storyline:
// same refusals, same stalls, same garbage draws. This is the property
// the chaos campaign's run-twice-and-compare check rests on.
TEST(StreamDeterminism, FixedSeedStorylineReplays) {
  const auto run = [](std::uint64_t seed) {
    auto clock = std::make_shared<Clock>();
    StreamTransport transport(clock, seed);
    const auto server = NodeAddress::of("93.184.216.1");
    const auto client = NodeAddress::of("192.0.2.1");
    transport.listen(server, [](BytesView, const auto&) {
      return std::optional<Bytes>(Bytes(700, 0x5a));
    });
    transport.set_behaviors(
        server, {StreamBehavior::refuse(0.3), StreamBehavior::stall(0.2),
                 StreamBehavior::garbage_frame(0.5)});

    std::vector<int> story;
    for (int i = 0; i < 64; ++i) {
      const auto reply = transport.exchange(client, server, Bytes(40, 0x01));
      story.push_back(static_cast<int>(reply.status));
      story.push_back(static_cast<int>(reply.bytes.size()));
    }
    story.push_back(static_cast<int>(transport.stats().garbage_frames));
    story.push_back(static_cast<int>(transport.stats().stalls));
    return story;
  };

  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));  // and the seed actually matters
}

}  // namespace
