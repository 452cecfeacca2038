// The in-memory packet network standing in for the Internet.
//
// Messages travel as real wire-format byte buffers: the resolver
// serializes a query, the network routes it to the endpoint registered at
// the destination address, the endpoint (an authoritative server) parses
// the bytes and returns response bytes. Reachability follows the IANA
// special-purpose registries — glue pointing at 192.168.0.0/16 or
// 2001:db8::/32 is exactly as dead here as on the real Internet, which is
// what makes the paper's groups 6/7 testbed cases and the wild scan's lame
// delegations reproduce.
//
// The transport can additionally be made adversarial: a seeded latency
// model (base RTT + jitter, which the sender waits out on the shared
// Clock), and per-address fault injection covering hard timeouts, parity
// loss, probabilistic loss, fragment loss and scripted outage windows
// (fail_between) so servers can die and recover on the simulated
// timeline. A Fault decides whether a reply arrives; what an arriving
// reply says is rewritten only by a ResponseMutator (simnet/byzantine.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "crypto/bytes.hpp"
#include "crypto/rng.hpp"
#include "simnet/address.hpp"
#include "simnet/clock.hpp"

namespace ede::sim {

/// Context visible to an endpoint handling a packet: the sender (for ACL
/// decisions) and the transport it arrived on. One endpoint serves both
/// transports; a stream reply is never truncated (RFC 7766 §8).
struct PacketContext {
  NodeAddress source;
  bool over_stream = false;
};

/// An attached node: receives query bytes, returns response bytes.
/// Returning std::nullopt simulates a silent drop (timeout at the sender).
using Endpoint =
    std::function<std::optional<crypto::Bytes>(crypto::BytesView,
                                               const PacketContext&)>;

/// Per-exchange context handed to a ResponseMutator.
struct MutateContext {
  SimTime now = 0;  // simulated seconds when the response leaves the server
  /// Out-parameters the mutator may set. `extra_delay_ms` adds extra
  /// serialization time to the exchange's round trip (slow-drip answers);
  /// like a link RTT it only costs time when the latency model is enabled.
  /// `mutated` marks the exchange as actually tampered with (a mutator may
  /// decide to pass a response through untouched) for Network::Stats.
  std::uint32_t extra_delay_ms = 0;
  bool mutated = false;
};

/// An on-path adversary (or a Byzantine server implementation) rewriting
/// the response for one exchange. Receives the original query bytes and
/// owns the response bytes the endpoint produced; returns the bytes to put
/// on the wire instead, or std::nullopt to swallow the reply entirely.
/// Installed per address via Network::set_mutator; see simnet/byzantine.hpp
/// for a library of hostile behaviors.
using ResponseMutator = std::function<std::optional<crypto::Bytes>(
    crypto::BytesView query, crypto::Bytes response, MutateContext& ctx)>;

enum class SendStatus {
  Delivered,    // response bytes present
  Unreachable,  // destination address is not globally routable
  Timeout,      // no node at the address, injected loss, or silent drop
};

struct SendResult {
  SendStatus status = SendStatus::Timeout;
  crypto::Bytes response;
  /// Simulated round-trip time of this exchange, for the caller to wait
  /// out (Network::send charges no time). Zero when the latency model is
  /// disabled and on Timeout, where the caller's own retry timer is what
  /// elapses.
  std::uint32_t rtt_ms = 0;
};

constexpr SimTime kFaultForever = std::numeric_limits<SimTime>::max();

/// Per-address fault injection for failure testing and the wild scan.
/// Construct via the factories, optionally scoped to a simulated-time
/// window with between()/fail_between so faults can start and clear on the
/// timeline:
///
///   net.inject_fault(addr, Fault::loss(0.3));
///   net.fail_between(addr, t0, t1);   // dead inside [t0, t1), fine after
struct Fault {
  enum class Kind : std::uint8_t {
    None,
    Timeout,       // swallow every packet
    Intermittent,  // drop every other packet (deterministic parity)
    Loss,          // drop each packet independently with probability p
    FragDrop,      // drop responses larger than mtu_bytes (fragment loss)
  };

  Kind kind = Kind::None;
  double probability = 1.0;    // Loss
  std::uint32_t mtu_bytes = 0;  // FragDrop
  SimTime active_from = 0;     // fault applies inside [active_from,
  SimTime active_until = kFaultForever;  //                active_until)

  static Fault none() { return {}; }
  static Fault timeout() { return {Kind::Timeout}; }
  static Fault intermittent() { return {Kind::Intermittent}; }
  static Fault loss(double p) { return {Kind::Loss, p}; }
  /// Path-MTU fragmentation loss: any UDP response bigger than `mtu`
  /// fragments in flight and the fragments never arrive — the silent
  /// large-DNSSEC-answer blackhole the DoTCP fallback exists to survive.
  /// Queries and small responses pass untouched; the stream transport is
  /// unaffected (TCP segments below the MTU by construction).
  static Fault frag_drop(std::uint32_t mtu = 1'472) {
    Fault f{Kind::FragDrop};
    f.mtu_bytes = mtu;
    return f;
  }

  /// The same fault, active only inside [t0, t1).
  [[nodiscard]] Fault between(SimTime t0, SimTime t1) const {
    Fault f = *this;
    f.active_from = t0;
    f.active_until = t1;
    return f;
  }

  [[nodiscard]] bool active(SimTime now) const {
    return kind != Kind::None && now >= active_from && now < active_until;
  }
};

/// Seeded link latency. Disabled by default: the bulk-scan experiments
/// depend on an instantaneous transport (prewarmed cache entries with
/// 30-second TTLs would expire mid-scan otherwise). Chaos tests and
/// latency-sensitive benchmarks switch it on explicitly.
struct LatencyModel {
  bool enabled = false;
  std::uint32_t base_rtt_ms = 20;  // round trip on every link
  std::uint32_t jitter_ms = 8;     // uniform extra in [0, jitter_ms]
  std::uint64_t seed = 0x1ede;     // drives jitter and loss
};

class StreamTransport;

class Network {
 public:
  /// `transport_seed` drives the transport RNG (jitter, loss)
  /// and becomes the default LatencyModel seed. Sharded scans derive it as
  /// base_seed ^ shard_id so every worker's transport is independently
  /// reproducible for any shard count. The companion stream transport
  /// shares the clock and the seed (salted; see simnet/stream.cpp).
  explicit Network(std::shared_ptr<Clock> clock,
                   std::uint64_t transport_seed = LatencyModel{}.seed);

  /// Attach a node. Later registrations at the same address replace
  /// earlier ones (used by failure-injection tests).
  void attach(const NodeAddress& address, Endpoint endpoint);
  void detach(const NodeAddress& address);
  [[nodiscard]] bool attached(const NodeAddress& address) const;

  void inject_fault(const NodeAddress& address, Fault fault);

  /// Install a response mutator at an address. Applied to every response
  /// the endpoint there produces, after fault processing decides the packet
  /// survives and before fragment loss judges the rewritten size (the
  /// mutator models the far end, the fault the path). A default-
  /// constructed mutator clears the hook.
  void set_mutator(const NodeAddress& address, ResponseMutator mutator);
  /// Scripted outage: the address swallows every packet inside [t0, t1)
  /// and behaves normally outside the window.
  void fail_between(const NodeAddress& address, SimTime t0, SimTime t1) {
    inject_fault(address, Fault::timeout().between(t0, t1));
  }

  /// The TCP-like stream transport sharing this network's clock and seed.
  /// Servers listen on it via StreamTransport::listen with the same
  /// endpoint they attach here (PacketContext::over_stream tells the two
  /// apart); the resolver's DoTCP fallback makes each attempt through
  /// StreamTransport::exchange.
  [[nodiscard]] StreamTransport& stream() { return *stream_; }
  [[nodiscard]] const StreamTransport& stream() const { return *stream_; }

  /// Install (or disable) the latency model. Reseeds the transport RNG
  /// (datagram and stream sides both) so experiments are reproducible
  /// from the model's seed.
  void set_latency(const LatencyModel& model);
  [[nodiscard]] const LatencyModel& latency() const { return latency_; }

  /// A sender waiting out a retry timeout. Advances the clock only when
  /// the latency model is enabled, so the instantaneous-transport
  /// experiments keep their timeline.
  void wait_ms(std::uint32_t milliseconds) {
    if (latency_.enabled) clock_->advance_ms(milliseconds);
  }

  /// Send query bytes from `source` to `destination`. The exchange is
  /// decided at the send instant (fault windows, mutators, the jitter
  /// draw) and charges no time: the caller waits out `SendResult::rtt_ms`
  /// itself — the resolver parks on its scheduler, a blocking sender
  /// calls wait_ms(). `retransmission` marks a retry of an earlier query
  /// (statistics only).
  [[nodiscard]] SendResult send(const NodeAddress& source,
                                const NodeAddress& destination,
                                crypto::BytesView query,
                                bool retransmission = false);

  /// Optional wire tap observing every exchange after fault processing:
  /// exactly the bytes the sender put on the wire and what came back.
  /// Golden-bytes tests use this to fingerprint the codec's output.
  using PacketTap =
      std::function<void(crypto::BytesView query, const SendResult& result)>;
  void set_tap(PacketTap tap) { tap_ = std::move(tap); }

  [[nodiscard]] Clock& clock() { return *clock_; }
  [[nodiscard]] const Clock& clock() const { return *clock_; }

  // --- statistics ----------------------------------------------------
  struct Stats {
    std::uint64_t packets_sent = 0;
    std::uint64_t packets_delivered = 0;
    std::uint64_t packets_unreachable = 0;
    std::uint64_t packets_timeout = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t mutated = 0;       // responses tampered with by a mutator
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Optional per-send trace (timestamp + destination), for asserting
  /// retry/backoff spacing in tests. Bounded; disabled by default.
  struct SendRecord {
    SimTimeMs at_ms = 0;
    NodeAddress destination;
    bool retransmission = false;
  };
  void record_sends(bool on) {
    record_sends_ = on;
    send_log_.clear();
  }
  [[nodiscard]] const std::vector<SendRecord>& send_log() const {
    return send_log_;
  }

 private:
  [[nodiscard]] std::uint32_t link_rtt();
  [[nodiscard]] SendResult send_impl(const NodeAddress& source,
                                     const NodeAddress& destination,
                                     crypto::BytesView query,
                                     bool retransmission);

  std::shared_ptr<Clock> clock_;
  std::shared_ptr<StreamTransport> stream_;
  std::unordered_map<NodeAddress, Endpoint, NodeAddressHash> endpoints_;
  std::unordered_map<NodeAddress, Fault, NodeAddressHash> faults_;
  std::unordered_map<NodeAddress, ResponseMutator, NodeAddressHash> mutators_;
  std::unordered_map<NodeAddress, std::uint64_t, NodeAddressHash>
      intermittent_counters_;
  LatencyModel latency_;
  crypto::Xoshiro256 rng_;
  Stats stats_;
  bool record_sends_ = false;
  std::vector<SendRecord> send_log_;
  PacketTap tap_;
};

}  // namespace ede::sim
