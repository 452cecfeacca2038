#include "crypto/rng.hpp"
#include "simnet/network.hpp"

#include <algorithm>

#include "simnet/stream.hpp"

namespace ede::sim {

namespace {

/// Cap on the optional send trace so a long scan cannot grow it unbounded.
constexpr std::size_t kMaxSendLog = 65'536;

}  // namespace

// Defined out of line: StreamTransport is an incomplete type in the header.
Network::Network(std::shared_ptr<Clock> clock, std::uint64_t transport_seed)
    : clock_(std::move(clock)),
      stream_(std::make_shared<StreamTransport>(clock_, transport_seed)),
      rng_(transport_seed) {
  latency_.seed = transport_seed;
}

void Network::attach(const NodeAddress& address, Endpoint endpoint) {
  endpoints_[address] = std::move(endpoint);
}

void Network::detach(const NodeAddress& address) {
  endpoints_.erase(address);
}

bool Network::attached(const NodeAddress& address) const {
  return endpoints_.count(address) != 0;
}

void Network::inject_fault(const NodeAddress& address, Fault fault) {
  // Any (re)injection starts the fault from a clean slate: a stale parity
  // counter from an earlier Intermittent fault must not leak into a new
  // one.
  intermittent_counters_.erase(address);
  if (fault.kind == Fault::Kind::None) {
    faults_.erase(address);
  } else {
    faults_[address] = fault;
  }
}

void Network::set_mutator(const NodeAddress& address,
                          ResponseMutator mutator) {
  if (mutator) {
    mutators_[address] = std::move(mutator);
  } else {
    mutators_.erase(address);
  }
}

void Network::set_latency(const LatencyModel& model) {
  latency_ = model;
  rng_ = crypto::Xoshiro256(model.seed);
  stream_->set_latency(model);
}

std::uint32_t Network::link_rtt() {
  if (!latency_.enabled) return 0;
  std::uint32_t base = latency_.base_rtt_ms;
  if (latency_.jitter_ms > 0) {
    base += static_cast<std::uint32_t>(rng_.below(latency_.jitter_ms + 1));
  }
  return base;
}

SendResult Network::send(const NodeAddress& source,
                         const NodeAddress& destination,
                         crypto::BytesView query, bool retransmission) {
  SendResult result = send_impl(source, destination, query, retransmission);
  if (tap_) tap_(query, result);
  return result;
}

SendResult Network::send_impl(const NodeAddress& source,
                              const NodeAddress& destination,
                              crypto::BytesView query, bool retransmission) {
  ++stats_.packets_sent;
  if (retransmission) ++stats_.retransmits;
  if (record_sends_ && send_log_.size() < kMaxSendLog) {
    send_log_.push_back({clock_->now_ms(), destination, retransmission});
  }

  // The cost of one round trip on this link, reported whenever the sender
  // hears back (replies, ICMP unreachable, REFUSED) for the sender to wait
  // out. Silent drops report nothing: the sender's own retry timeout is
  // what elapses.
  std::uint32_t rtt = link_rtt();
  const auto reply = [&](SendStatus status, crypto::Bytes bytes) {
    return SendResult{status, std::move(bytes), rtt};
  };
  const auto drop = [&]() {
    ++stats_.packets_timeout;
    return SendResult{SendStatus::Timeout, {}, 0};
  };

  if (!destination.is_routable()) {
    ++stats_.packets_unreachable;
    return reply(SendStatus::Unreachable, {});
  }

  std::uint32_t frag_mtu = 0;
  const auto fault_it = faults_.find(destination);
  if (fault_it != faults_.end() &&
      fault_it->second.active(clock_->now())) {
    const Fault& fault = fault_it->second;
    switch (fault.kind) {
      case Fault::Kind::Timeout:
        return drop();
      case Fault::Kind::Intermittent:
        if (++intermittent_counters_[destination] % 2 == 1) return drop();
        break;
      case Fault::Kind::Loss:
        if (rng_.uniform() < fault.probability) return drop();
        break;
      case Fault::Kind::FragDrop:
        frag_mtu = fault.mtu_bytes;
        break;
      case Fault::Kind::None:
        break;
    }
  }

  const auto it = endpoints_.find(destination);
  if (it == endpoints_.end()) return drop();

  auto response = it->second(query, PacketContext{source});
  if (!response) return drop();

  // Byzantine hook: an installed mutator speaks for the far end, so it
  // runs on the endpoint's bytes before the path judges them below. A
  // swallowed reply (nullopt) looks like any other silent drop; extra
  // serialization delay (slow-drip answers) is charged with the link RTT.
  if (const auto mut = mutators_.find(destination); mut != mutators_.end()) {
    MutateContext ctx;
    ctx.now = clock_->now();
    auto rewritten = mut->second(query, std::move(*response), ctx);
    if (ctx.mutated) ++stats_.mutated;
    rtt += ctx.extra_delay_ms;
    if (!rewritten) return drop();
    response = std::move(rewritten);
  }

  // Path-MTU fragmentation loss: the response left the server, fragmented
  // in flight, and the fragments never arrived. Indistinguishable from any
  // other silent drop at the sender — which is the point.
  if (frag_mtu != 0 && response->size() > frag_mtu) return drop();

  ++stats_.packets_delivered;
  return reply(SendStatus::Delivered, std::move(*response));
}

}  // namespace ede::sim
