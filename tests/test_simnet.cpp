// Simulated-network tests: routing, the special-purpose reachability
// model, fault injection and statistics.
#include <gtest/gtest.h>

#include "simnet/network.hpp"

namespace {

using namespace ede::sim;
using ede::crypto::Bytes;
using ede::crypto::BytesView;

Endpoint echo_endpoint() {
  return [](BytesView data, const PacketContext&) {
    return std::optional<Bytes>(Bytes(data.begin(), data.end()));
  };
}

class NetworkTest : public ::testing::Test {
 protected:
  std::shared_ptr<Clock> clock_ = std::make_shared<Clock>();
  Network net_{clock_};
  NodeAddress src_ = NodeAddress::of("192.0.2.100");
  Bytes payload_ = {1, 2, 3};
};

TEST_F(NetworkTest, DeliversToAttachedEndpoint) {
  const auto dst = NodeAddress::of("93.184.216.34");
  net_.attach(dst, echo_endpoint());
  const auto result = net_.send(src_, dst, payload_);
  EXPECT_EQ(result.status, SendStatus::Delivered);
  EXPECT_EQ(result.response, payload_);
}

TEST_F(NetworkTest, UnattachedRoutableAddressTimesOut) {
  const auto result =
      net_.send(src_, NodeAddress::of("93.184.216.35"), payload_);
  EXPECT_EQ(result.status, SendStatus::Timeout);
}

TEST_F(NetworkTest, SpecialPurposeAddressesAreUnreachable) {
  for (const char* addr : {"10.0.0.1", "192.168.1.1", "127.0.0.1",
                           "192.0.2.1", "169.254.0.1", "0.0.0.0",
                           "240.0.0.1", "224.0.0.1"}) {
    const auto dst = NodeAddress::of(addr);
    // Even an attached endpoint is unreachable if the address is special.
    net_.attach(dst, echo_endpoint());
    EXPECT_EQ(net_.send(src_, dst, payload_).status, SendStatus::Unreachable)
        << addr;
  }
  for (const char* addr :
       {"::1", "fe80::1", "2001:db8::1", "ff02::1", "::ffff:192.0.2.1",
        "64:ff9b::1", "fd00::1", "::"}) {
    EXPECT_EQ(net_.send(src_, NodeAddress::of(addr), payload_).status,
              SendStatus::Unreachable)
        << addr;
  }
}

TEST_F(NetworkTest, GlobalV6IsRoutable) {
  const auto dst = NodeAddress::of("2606:4700::1111");
  net_.attach(dst, echo_endpoint());
  EXPECT_EQ(net_.send(src_, dst, payload_).status, SendStatus::Delivered);
}

TEST_F(NetworkTest, EndpointSeesSourceAddress) {
  const auto dst = NodeAddress::of("93.184.216.34");
  NodeAddress seen;
  net_.attach(dst, [&](BytesView, const PacketContext& ctx) {
    seen = ctx.source;
    return std::optional<Bytes>(Bytes{});
  });
  (void)net_.send(src_, dst, payload_);
  EXPECT_EQ(seen, src_);
}

TEST_F(NetworkTest, SilentDropBecomesTimeout) {
  const auto dst = NodeAddress::of("93.184.216.34");
  net_.attach(dst, [](BytesView, const PacketContext&) {
    return std::optional<Bytes>{};
  });
  EXPECT_EQ(net_.send(src_, dst, payload_).status, SendStatus::Timeout);
}

TEST_F(NetworkTest, TimeoutFaultSwallowsPackets) {
  const auto dst = NodeAddress::of("93.184.216.34");
  net_.attach(dst, echo_endpoint());
  net_.inject_fault(dst, Fault::timeout());
  EXPECT_EQ(net_.send(src_, dst, payload_).status, SendStatus::Timeout);
  net_.inject_fault(dst, Fault::none());
  EXPECT_EQ(net_.send(src_, dst, payload_).status, SendStatus::Delivered);
}

TEST_F(NetworkTest, IntermittentFaultDropsEveryOtherPacket) {
  const auto dst = NodeAddress::of("93.184.216.34");
  net_.attach(dst, echo_endpoint());
  net_.inject_fault(dst, Fault::intermittent());
  EXPECT_EQ(net_.send(src_, dst, payload_).status, SendStatus::Timeout);
  EXPECT_EQ(net_.send(src_, dst, payload_).status, SendStatus::Delivered);
  EXPECT_EQ(net_.send(src_, dst, payload_).status, SendStatus::Timeout);
}

TEST_F(NetworkTest, DetachRemovesEndpoint) {
  const auto dst = NodeAddress::of("93.184.216.34");
  net_.attach(dst, echo_endpoint());
  EXPECT_TRUE(net_.attached(dst));
  net_.detach(dst);
  EXPECT_FALSE(net_.attached(dst));
  EXPECT_EQ(net_.send(src_, dst, payload_).status, SendStatus::Timeout);
}

TEST_F(NetworkTest, StatsCountOutcomes) {
  const auto dst = NodeAddress::of("93.184.216.34");
  net_.attach(dst, echo_endpoint());
  (void)net_.send(src_, dst, payload_);
  (void)net_.send(src_, NodeAddress::of("10.0.0.1"), payload_);
  (void)net_.send(src_, NodeAddress::of("93.184.216.99"), payload_);
  const auto& stats = net_.stats();
  EXPECT_EQ(stats.packets_sent, 3u);
  EXPECT_EQ(stats.packets_delivered, 1u);
  EXPECT_EQ(stats.packets_unreachable, 1u);
  EXPECT_EQ(stats.packets_timeout, 1u);
}

TEST_F(NetworkTest, ReinjectedIntermittentFaultStartsFresh) {
  // Regression: clearing a fault used to leave the parity counter behind,
  // so a later Intermittent fault resumed at the old parity.
  const auto dst = NodeAddress::of("93.184.216.34");
  net_.attach(dst, echo_endpoint());
  net_.inject_fault(dst, Fault::intermittent());
  EXPECT_EQ(net_.send(src_, dst, payload_).status, SendStatus::Timeout);
  net_.inject_fault(dst, Fault::none());
  EXPECT_EQ(net_.send(src_, dst, payload_).status, SendStatus::Delivered);
  net_.inject_fault(dst, Fault::intermittent());
  // A fresh Intermittent fault drops its first packet again.
  EXPECT_EQ(net_.send(src_, dst, payload_).status, SendStatus::Timeout);
}

TEST_F(NetworkTest, LossFaultExtremesAreDeterministic) {
  const auto dst = NodeAddress::of("93.184.216.34");
  net_.attach(dst, echo_endpoint());
  net_.inject_fault(dst, Fault::loss(1.0));
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(net_.send(src_, dst, payload_).status, SendStatus::Timeout);
  net_.inject_fault(dst, Fault::loss(0.0));
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(net_.send(src_, dst, payload_).status, SendStatus::Delivered);
}

TEST_F(NetworkTest, LossFaultDropsRoughlyTheConfiguredFraction) {
  const auto dst = NodeAddress::of("93.184.216.34");
  net_.attach(dst, echo_endpoint());
  net_.inject_fault(dst, Fault::loss(0.5));
  int dropped = 0;
  for (int i = 0; i < 400; ++i) {
    if (net_.send(src_, dst, payload_).status == SendStatus::Timeout)
      ++dropped;
  }
  EXPECT_GT(dropped, 120);
  EXPECT_LT(dropped, 280);
}

TEST_F(NetworkTest, ScriptedFaultWindowDiesAndRecovers) {
  const auto dst = NodeAddress::of("93.184.216.34");
  net_.attach(dst, echo_endpoint());
  const SimTime t0 = clock_->now() + 10;
  net_.fail_between(dst, t0, t0 + 10);
  EXPECT_EQ(net_.send(src_, dst, payload_).status, SendStatus::Delivered);
  clock_->advance(10);  // inside the outage window
  EXPECT_EQ(net_.send(src_, dst, payload_).status, SendStatus::Timeout);
  clock_->advance(10);  // the server has recovered
  EXPECT_EQ(net_.send(src_, dst, payload_).status, SendStatus::Delivered);
}

// send() reports the round trip and charges nothing; the sender waits it
// out (and any retry timer) with wait_ms().
TEST_F(NetworkTest, LatencyModelAdvancesTheClock) {
  const auto dst = NodeAddress::of("93.184.216.34");
  net_.attach(dst, echo_endpoint());
  LatencyModel model;
  model.enabled = true;
  model.base_rtt_ms = 30;
  model.jitter_ms = 0;
  net_.set_latency(model);
  const auto before = clock_->now_ms();
  const auto result = net_.send(src_, dst, payload_);
  EXPECT_EQ(result.rtt_ms, 30u);
  EXPECT_EQ(clock_->now_ms(), before);
  net_.wait_ms(result.rtt_ms);
  EXPECT_EQ(clock_->now_ms(), before + 30);
  net_.wait_ms(400);
  EXPECT_EQ(clock_->now_ms(), before + 430);
}

TEST_F(NetworkTest, LatencyDisabledKeepsTheClockStill) {
  const auto dst = NodeAddress::of("93.184.216.34");
  net_.attach(dst, echo_endpoint());
  const auto before = clock_->now_ms();
  (void)net_.send(src_, dst, payload_);
  net_.wait_ms(400);
  EXPECT_EQ(clock_->now_ms(), before);
}

TEST_F(NetworkTest, JitterStaysDeterministic) {
  const auto near = NodeAddress::of("93.184.216.34");
  net_.attach(near, echo_endpoint());
  LatencyModel model;
  model.enabled = true;
  model.base_rtt_ms = 10;
  model.jitter_ms = 5;
  model.seed = 42;
  net_.set_latency(model);
  std::vector<std::uint32_t> rtts;
  for (int i = 0; i < 4; ++i) rtts.push_back(net_.send(src_, near, payload_).rtt_ms);
  for (const auto rtt : rtts) {
    EXPECT_GE(rtt, 10u);
    EXPECT_LE(rtt, 15u);
  }
  // Reseeding reproduces the exact jitter sequence.
  net_.set_latency(model);
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(net_.send(src_, near, payload_).rtt_ms, rtts[static_cast<std::size_t>(i)]);
}

TEST_F(NetworkTest, SendLogRecordsTimestampsAndRetransmissions) {
  const auto dst = NodeAddress::of("93.184.216.34");
  net_.attach(dst, echo_endpoint());
  net_.record_sends(true);
  (void)net_.send(src_, dst, payload_);
  clock_->advance(2);
  (void)net_.send(src_, dst, payload_, /*retransmission=*/true);
  const auto& log = net_.send_log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_LT(log[0].at_ms, log[1].at_ms);
  EXPECT_FALSE(log[0].retransmission);
  EXPECT_TRUE(log[1].retransmission);
  EXPECT_EQ(net_.stats().retransmits, 1u);
}

TEST(ClockTest, AdvanceAndSet) {
  Clock clock(1000);
  EXPECT_EQ(clock.now(), 1000u);
  clock.advance(500);
  EXPECT_EQ(clock.now(), 1500u);
  clock.set(42);
  EXPECT_EQ(clock.now(), 42u);
}

TEST(ClockTest, MillisecondPrecision) {
  Clock clock(1000);
  EXPECT_EQ(clock.now_ms(), 1'000'000u);
  clock.advance_ms(1500);
  EXPECT_EQ(clock.now(), 1001u);
  EXPECT_EQ(clock.now_ms(), 1'001'500u);
  clock.set(2000);
  EXPECT_EQ(clock.now_ms(), 2'000'000u);
}

TEST(NodeAddressTest, ParseBothFamilies) {
  EXPECT_TRUE(NodeAddress::of("1.2.3.4").is_v4());
  EXPECT_FALSE(NodeAddress::of("2001:db8::1").is_v4());
  EXPECT_THROW((void)NodeAddress::of("not-an-address"), std::invalid_argument);
}

TEST(NodeAddressTest, LoopbackDetection) {
  EXPECT_TRUE(NodeAddress::of("127.0.0.1").is_loopback());
  EXPECT_TRUE(NodeAddress::of("::1").is_loopback());
  EXPECT_FALSE(NodeAddress::of("8.8.8.8").is_loopback());
}

}  // namespace
