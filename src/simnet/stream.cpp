#include "simnet/stream.hpp"

#include <algorithm>
#include <utility>

#include "crypto/rng.hpp"
#include "dnscore/wire.hpp"

namespace ede::sim {

namespace {

/// Salt folded into the Network's transport seed so the stream RNG draws
/// an independent sequence: datagram jitter/loss must not perturb the
/// stream fault schedule (and vice versa) or fixed-seed storylines stop
/// replaying when one side adds a probe.
constexpr std::uint64_t kStreamSeedSalt = 0x57e4'a117'ced5'eedULL;

/// The length prefix is two bytes, so a frame can never exceed the DNS
/// maximum message size.
constexpr std::size_t kMaxFrame = 0xffff;

}  // namespace

crypto::Bytes frame_message(crypto::BytesView payload) {
  const std::size_t len = std::min(payload.size(), kMaxFrame);
  dns::WireWriter writer;
  writer.write_u16(static_cast<std::uint16_t>(len));
  writer.write_bytes(payload.subspan(0, len));
  return std::move(writer).take();
}

void FrameAssembler::feed(crypto::BytesView bytes) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

FrameAssembler::PopResult FrameAssembler::pop() {
  const std::size_t avail = buffer_.size() - consumed_;
  if (avail < 2) return {Status::NeedMore, {}};

  dns::WireReader reader(
      crypto::BytesView(buffer_.data() + consumed_, avail));
  auto length = reader.read_u16();
  if (!length.ok()) return {Status::NeedMore, {}};
  const std::size_t len = length.value();
  if (len == 0) {
    // A zero-length frame carries no DNS message; consume the prefix so a
    // peer spraying empty frames cannot wedge the assembler.
    consumed_ += 2;
    return {Status::BadFrame, {}};
  }
  if (avail - 2 < len) {
    // Short payload: indistinguishable from a frame still in flight (an
    // over-declared prefix simply never completes and the reader's own
    // patience runs out).
    return {Status::NeedMore, {}};
  }
  auto frame = reader.read_bytes(len);
  if (!frame.ok()) return {Status::NeedMore, {}};
  consumed_ += 2 + len;
  if (consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  }
  return {Status::Frame, std::move(frame).take()};
}

StreamTransport::StreamTransport(std::shared_ptr<Clock> clock,
                                 std::uint64_t seed)
    : clock_(std::move(clock)), rng_(seed ^ kStreamSeedSalt) {
  latency_.seed = seed;
}

void StreamTransport::listen(const NodeAddress& address, Endpoint endpoint) {
  listeners_[address] = std::move(endpoint);
}

void StreamTransport::set_behaviors(const NodeAddress& address,
                                    std::vector<StreamBehavior> behaviors) {
  if (behaviors.empty()) {
    behaviors_.erase(address);
  } else {
    behaviors_[address] = std::move(behaviors);
  }
}

void StreamTransport::set_mutator(const NodeAddress& address,
                                  ResponseMutator mutator) {
  if (mutator) {
    mutators_[address] = std::move(mutator);
  } else {
    mutators_.erase(address);
  }
}

void StreamTransport::set_latency(const LatencyModel& model) {
  latency_ = model;
  rng_ = crypto::Xoshiro256(model.seed ^ kStreamSeedSalt);
}

std::uint32_t StreamTransport::link_rtt() {
  if (!latency_.enabled) return 0;
  std::uint32_t rtt = latency_.base_rtt_ms;
  if (latency_.jitter_ms > 0) {
    rtt += static_cast<std::uint32_t>(rng_.below(latency_.jitter_ms + 1));
  }
  return rtt;
}

void StreamTransport::charge(std::uint32_t rtt_ms) {
  if (latency_.enabled) clock_->advance_ms(rtt_ms);
}

StreamBehavior StreamTransport::pick_behavior(
    const NodeAddress& address,
    std::initializer_list<StreamBehaviorKind> kinds) {
  const auto it = behaviors_.find(address);
  if (it == behaviors_.end()) return {};
  const SimTime now = clock_->now();
  for (const auto& behavior : it->second) {
    if (!behavior.active(now)) continue;
    if (std::find(kinds.begin(), kinds.end(), behavior.kind) == kinds.end())
      continue;
    if (rng_.uniform() < behavior.probability) return behavior;
  }
  return {};
}

StreamTransport::Result StreamTransport::exchange(
    const NodeAddress& source, const NodeAddress& destination,
    crypto::BytesView query) {
  ++stats_.connects_attempted;

  if (!destination.is_routable()) {
    // ICMP comes back, so the round trip is charged like the datagram side.
    const std::uint32_t rtt = link_rtt();
    charge(rtt);
    return {Status::Unreachable, {}, rtt};
  }

  // ---- handshake ------------------------------------------------------
  const auto handshake = pick_behavior(
      destination, {StreamBehaviorKind::Refuse, StreamBehaviorKind::SynDrop});
  if (handshake.kind == StreamBehaviorKind::SynDrop) {
    // Silent drop: nothing is charged here, the caller's own connect
    // timeout is what elapses.
    ++stats_.connects_dropped;
    return {Status::SynTimeout, {}, 0};
  }

  const std::uint32_t handshake_rtt = link_rtt();
  const auto listener = listeners_.find(destination);
  if (handshake.kind == StreamBehaviorKind::Refuse ||
      listener == listeners_.end()) {
    // An RST (or port-closed RST from a UDP-only host) arrives promptly.
    ++stats_.connects_refused;
    charge(handshake_rtt);
    return {Status::Refused, {}, handshake_rtt};
  }

  // SYN / SYN-ACK / ACK: one round trip before data can flow.
  charge(handshake_rtt);
  ++stats_.connects_established;

  // ---- exchange -------------------------------------------------------
  // The query travels framed; the server de-chunks it through the same
  // assembler the client uses on responses, so both directions of the
  // length-prefix codec are exercised on every exchange.
  FrameAssembler server_side;
  server_side.feed(frame_message(query));
  auto inbound = server_side.pop();
  if (inbound.status != FrameAssembler::Status::Frame) {
    return {Status::Closed, {}, handshake_rtt};
  }

  auto response =
      listener->second(inbound.frame, PacketContext{source, true});
  std::uint32_t rtt = link_rtt();
  if (!response) {
    // The server dropped the query; over a stream that reads as a close.
    charge(rtt);
    return {Status::Closed, {}, handshake_rtt + rtt};
  }

  // Byzantine hook on the unframed response bytes, exactly like the
  // datagram path: the zoo in simnet/byzantine.hpp works unchanged here.
  if (const auto mut = mutators_.find(destination); mut != mutators_.end()) {
    MutateContext ctx;
    ctx.now = clock_->now();
    auto rewritten = mut->second(query, std::move(*response), ctx);
    if (ctx.mutated) ++stats_.mutated;
    rtt += ctx.extra_delay_ms;
    if (!rewritten) {
      charge(rtt);
      return {Status::Closed, {}, handshake_rtt + rtt};
    }
    response = std::move(rewritten);
  }

  const auto behavior = pick_behavior(
      destination, {StreamBehaviorKind::Stall, StreamBehaviorKind::MidClose,
                    StreamBehaviorKind::GarbageFrame});
  if (behavior.kind == StreamBehaviorKind::Stall) {
    // Accepted, acked, then silence: the caller's read patience elapses,
    // nothing is charged here.
    ++stats_.stalls;
    return {Status::Stalled, {}, handshake_rtt};
  }
  if (behavior.kind == StreamBehaviorKind::GarbageFrame) {
    ++stats_.garbage_frames;
    dns::WireWriter writer;
    if (rng_.below(2) == 0) {
      // A zero-length frame: BadFrame at the assembler.
      writer.write_u16(0);
    } else {
      // Over-declared prefix: the frame never completes, the reader's
      // patience runs out (NeedMore forever).
      writer.write_u16(static_cast<std::uint16_t>(
          std::min(response->size() + 64, kMaxFrame)));
      writer.write_bytes(*response);
    }
    charge(rtt);
    return {Status::Ok, std::move(writer).take(), handshake_rtt + rtt};
  }

  crypto::Bytes framed = frame_message(*response);
  charge(rtt);
  if (behavior.kind == StreamBehaviorKind::MidClose) {
    ++stats_.mid_closes;
    framed.resize(std::min<std::size_t>(behavior.param, framed.size()));
    return {Status::Closed, std::move(framed), handshake_rtt + rtt};
  }
  ++stats_.frames_delivered;
  return {Status::Ok, std::move(framed), handshake_rtt + rtt};
}

}  // namespace ede::sim
