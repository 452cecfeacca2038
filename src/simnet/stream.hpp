// The in-memory stream (TCP-like) transport riding the same event clock
// as the datagram Network.
//
// DNS over a stream is two-byte length-prefixed messages (RFC 1035
// §4.2.2) on a connection: a SYN handshake that costs a round trip,
// acceptance or refusal, then one query and whatever the peer sends back
// before it closes. The resolver opens a fresh connection per DoTCP
// attempt, so one exchange() call is the whole connection. Each way that
// call can die is a distinct real-world failure the paper's EDE 22/23
// categories fold together, so the simulation keeps them distinct and
// injectable: StreamBehavior holds the TCP-specific transport faults
// (refuse-connection, SYN drop, accept-then-stall, close-after-N-bytes,
// garbage framing), and the datagram ResponseMutator hook works unchanged
// on the unframed response bytes — the Byzantine zoo (simnet/byzantine.hpp)
// stays the only code that rewrites an answer, over either transport.
//
// The framing codec goes through dnscore's WireWriter/WireReader like
// every other byte-level encoder in the tree; FrameAssembler is shared by
// both ends (the server de-chunks queries with it, the resolver
// reassembles responses with it) so the same parser sees hostile framing
// from both directions.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "crypto/bytes.hpp"
#include "crypto/rng.hpp"
#include "simnet/address.hpp"
#include "simnet/clock.hpp"
#include "simnet/network.hpp"

namespace ede::sim {

enum class StreamBehaviorKind : std::uint8_t {
  None = 0,
  Refuse,        // RST the handshake (connection refused)
  SynDrop,       // swallow the SYN (connect times out at the client)
  Stall,         // accept, then never send a response byte
  MidClose,      // close after the first N bytes of the response frame
  GarbageFrame,  // framing garbage: zero-length or over-declared prefix
};

/// One scripted hostile stream behavior. Construct via the factories and
/// scope to a simulated-time window with between(), exactly like Fault and
/// ByzantineBehavior. `probability` is the chance the behavior fires per
/// handshake (Refuse/SynDrop) or per exchange after it (the rest).
struct StreamBehavior {
  StreamBehaviorKind kind = StreamBehaviorKind::None;
  double probability = 1.0;
  SimTime active_from = 0;
  SimTime active_until = kFaultForever;
  /// MidClose only: response bytes delivered before the close.
  std::uint32_t param = 0;

  static StreamBehavior refuse(double p = 1.0) {
    return {StreamBehaviorKind::Refuse, p};
  }
  static StreamBehavior syn_drop(double p = 1.0) {
    return {StreamBehaviorKind::SynDrop, p};
  }
  static StreamBehavior stall(double p = 1.0) {
    return {StreamBehaviorKind::Stall, p};
  }
  static StreamBehavior mid_close(double p = 1.0, std::uint32_t bytes = 3) {
    StreamBehavior b{StreamBehaviorKind::MidClose, p};
    b.param = bytes;
    return b;
  }
  static StreamBehavior garbage_frame(double p = 1.0) {
    return {StreamBehaviorKind::GarbageFrame, p};
  }

  /// The same behavior, active only inside [t0, t1) of simulated time.
  [[nodiscard]] StreamBehavior between(SimTime t0, SimTime t1) const {
    StreamBehavior b = *this;
    b.active_from = t0;
    b.active_until = t1;
    return b;
  }

  [[nodiscard]] bool active(SimTime now) const {
    return kind != StreamBehaviorKind::None && now >= active_from &&
           now < active_until;
  }
};

/// Transport-wide tallies, mirroring Network::Stats for the stream side.
struct StreamStats {
  std::uint64_t connects_attempted = 0;
  std::uint64_t connects_established = 0;
  std::uint64_t connects_refused = 0;
  std::uint64_t connects_dropped = 0;  // SYN swallowed: times out at client
  std::uint64_t frames_delivered = 0;
  std::uint64_t stalls = 0;
  std::uint64_t mid_closes = 0;
  std::uint64_t garbage_frames = 0;
  std::uint64_t mutated = 0;  // responses tampered with by a ResponseMutator
};

/// Wrap one DNS message in the RFC 1035 §4.2.2 two-byte length prefix.
/// Payloads over 65535 bytes cannot be framed and are clamped at the DNS
/// maximum (a message that large never serializes out of this tree).
[[nodiscard]] crypto::Bytes frame_message(crypto::BytesView payload);

/// Incremental de-framer for a stream of length-prefixed DNS messages.
/// Bytes arrive in arbitrary chunks (a length prefix may span segment
/// boundaries); feed() appends, pop() yields at most one complete frame.
class FrameAssembler {
 public:
  enum class Status : std::uint8_t {
    Frame,     // a complete frame was extracted
    NeedMore,  // not enough buffered bytes yet (prefix or payload short)
    BadFrame,  // a zero-length frame: nothing a DNS peer can ever mean
  };
  struct PopResult {
    Status status = Status::NeedMore;
    crypto::Bytes frame;
  };

  void feed(crypto::BytesView bytes);
  [[nodiscard]] PopResult pop();

  /// Bytes buffered but not yet consumed by pop().
  [[nodiscard]] std::size_t pending() const {
    return buffer_.size() - consumed_;
  }

 private:
  crypto::Bytes buffer_;
  std::size_t consumed_ = 0;
};

/// The stream transport. One instance lives inside each Network (see
/// Network::stream()) sharing its Clock; servers listen with the same
/// Endpoint signature they attach to the datagram side, and a client
/// makes each connection with one exchange() call.
class StreamTransport {
 public:
  StreamTransport(std::shared_ptr<Clock> clock, std::uint64_t seed);

  /// Accept connections at `address`, answering queries via `endpoint`.
  void listen(const NodeAddress& address, Endpoint endpoint);

  /// Install a hostile-behavior schedule for connections to `address`
  /// (empty schedule clears). Evaluated like the Byzantine zoo: first
  /// behavior active at sim-time whose probability draw fires handles the
  /// handshake or the exchange.
  void set_behaviors(const NodeAddress& address,
                     std::vector<StreamBehavior> behaviors);

  /// Datagram-compatible Byzantine hook: runs on the unframed response
  /// bytes before framing, so every mutator from simnet/byzantine.hpp
  /// works unchanged over the stream. Default-constructed clears.
  void set_mutator(const NodeAddress& address, ResponseMutator mutator);

  /// Reseed alongside Network::set_latency. The stream RNG is salted so
  /// datagram jitter/loss draws never perturb the stream schedule.
  void set_latency(const LatencyModel& model);

  enum class Status : std::uint8_t {
    Ok,           // bytes delivered (a frame, or hostile framing garbage)
    Refused,      // RST: the peer actively refused the handshake
    SynTimeout,   // SYN swallowed: the client's connect timer elapses
    Unreachable,  // not globally routable, exactly like the datagram side
    Stalled,      // accepted, then silence: the client's read timer elapses
    Closed,       // the peer closed; any bytes are what arrived before the FIN
  };
  struct Result {
    Status status = Status::SynTimeout;
    /// Raw stream bytes as received — length prefix included, possibly a
    /// partial or garbage frame. Run them through a FrameAssembler.
    crypto::Bytes bytes;
    /// Handshake plus exchange round trips charged to the clock (latency
    /// model on).
    std::uint32_t rtt_ms = 0;
  };
  /// One connection from `source` to `destination`: handshake, write one
  /// DNS query, read whatever the peer sends back, close. A swallowed SYN
  /// or a stall charges no wait — the caller decides how long it waited,
  /// exactly like a datagram drop.
  [[nodiscard]] Result exchange(const NodeAddress& source,
                                const NodeAddress& destination,
                                crypto::BytesView query);

  [[nodiscard]] const StreamStats& stats() const { return stats_; }

 private:
  [[nodiscard]] std::uint32_t link_rtt();
  /// Advance the clock by `rtt_ms` when the latency model is on.
  void charge(std::uint32_t rtt_ms);
  /// First behavior at `address` active now, drawn from `kinds`, whose
  /// probability fires. None when nothing fires.
  [[nodiscard]] StreamBehavior pick_behavior(
      const NodeAddress& address, std::initializer_list<StreamBehaviorKind>
                                      kinds);

  std::shared_ptr<Clock> clock_;
  std::unordered_map<NodeAddress, Endpoint, NodeAddressHash> listeners_;
  std::unordered_map<NodeAddress, std::vector<StreamBehavior>,
                     NodeAddressHash>
      behaviors_;
  std::unordered_map<NodeAddress, ResponseMutator, NodeAddressHash> mutators_;
  LatencyModel latency_;
  crypto::Xoshiro256 rng_;
  StreamStats stats_;
};

}  // namespace ede::sim
