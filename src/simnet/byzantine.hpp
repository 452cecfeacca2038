// A zoo of Byzantine authoritative behaviors for the simulated network.
//
// Fault (simnet/network.hpp) decides whether a datagram arrives: packets
// lost, delayed, fragmented away. This layer decides what an arriving
// answer says — a compromised or buggy authoritative server, a middlebox
// in front of it, or an off-path attacker racing it — which is where the
// paper's dominant wild-scan EDE codes (22 NoReachableAuthority / 23
// NetworkError, §4.2) actually come from: lame delegations, garbage
// responses, half-dead infrastructure. It is the only code that rewrites
// an authority's answer, over the datagram and the stream transport alike
// (StreamTransport::set_mutator takes the same mutators);
// server::AuthServer always answers honestly.
//
// Each ByzantineBehavior is seedable and scriptable per address and
// per time-window exactly like Fault:
//
//   net.set_mutator(addr, make_byzantine_mutator(
//       {ByzantineBehavior::wrong_qid(0.5).between(t0, t1)}, seed, stats));
//
// The compiled mutator owns an independent Xoshiro256 stream, so Byzantine
// schedules replay bit-for-bit regardless of how many transport-RNG draws
// (jitter, loss) happen around them.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "dnscore/name.hpp"
#include "simnet/network.hpp"

namespace ede::sim {

enum class ByzantineKind : std::uint8_t {
  None = 0,
  WrongQid,            // reply carries a different transaction ID
  WrongQuestion,       // answers a question nobody asked
  Spoof,               // off-path forgery races (and beats) the real reply
  BailiwickStuff,      // real answer + out-of-zone records (poisoning-shaped)
  PointerLoop,         // compression-pointer loop / hop bomb in the qname
  TruncationGarbage,   // TC=1 with a chopped body and trailing garbage
  Oversize,            // response padded far past the advertised UDP size
  Fuzz,                // random byte flips across the whole message
  SlowDrip,            // partial answer dribbling out after a long stall

  // --- EDNS-compliance zoo (RFC 6891): the OPT-layer pathologies the
  // "Analysis of an Extension Dynamic Name Service" study catalogs in
  // the wild. Each models an authority (or a middlebox in front of it)
  // that mishandles the OPT pseudo-record itself. -----------------------
  EdnsDrop,        // silently drop any query that carries an OPT record
  EdnsFormerr,     // answer FORMERR (OPT stripped) to any EDNS query
  EdnsStripOpt,    // answer normally but never echo the OPT back
  EdnsEchoExtra,   // echo an unregistered option back in the OPT
  EdnsBadvers,     // reply BADVERS even to EDNS version 0
  EdnsBufferLie,   // ignore the advertised size: spurious TC truncation
  EdnsGarble,      // garble the OPT RDATA (undecodable option tail)
  EdnsDuplicateOpt,  // append a second copy of the response's OPT record

  // --- DoTCP bait-and-switch: installed on the stream side after an
  // honest TC=1 over UDP. ------------------------------------------------
  DifferentAnswer,  // a forged, unsigned answer to the question asked
};

constexpr std::size_t kByzantineKindCount = 19;  // incl. None

[[nodiscard]] const char* to_string(ByzantineKind kind);

/// One scripted hostile behavior. Construct via the factories; scope to a
/// simulated-time window with between() like Fault. `probability` is the
/// chance the behavior fires for each individual exchange, so p < 1 models
/// a flaky or intermittently-compromised server whose retries eventually
/// get through.
struct ByzantineBehavior {
  ByzantineKind kind = ByzantineKind::None;
  double probability = 1.0;
  SimTime active_from = 0;
  SimTime active_until = kFaultForever;
  /// Kind-specific knob: Oversize = padding bytes appended, SlowDrip =
  /// extra serialization delay in ms, Fuzz = number of byte flips.
  std::uint32_t param = 0;
  /// Spoof only: the attacker is on-path and copies the victim's QID, so
  /// the forgery survives the QID gate and only question/bailiwick
  /// checks can stop it.
  bool qid_known = false;

  static ByzantineBehavior wrong_qid(double p = 1.0) {
    return {ByzantineKind::WrongQid, p};
  }
  static ByzantineBehavior wrong_question(double p = 1.0) {
    return {ByzantineKind::WrongQuestion, p};
  }
  static ByzantineBehavior spoof(double p = 1.0, bool qid_known = false) {
    ByzantineBehavior b{ByzantineKind::Spoof, p};
    b.qid_known = qid_known;
    return b;
  }
  static ByzantineBehavior bailiwick_stuff(double p = 1.0) {
    return {ByzantineKind::BailiwickStuff, p};
  }
  static ByzantineBehavior pointer_loop(double p = 1.0) {
    return {ByzantineKind::PointerLoop, p};
  }
  static ByzantineBehavior truncation_garbage(double p = 1.0) {
    return {ByzantineKind::TruncationGarbage, p};
  }
  static ByzantineBehavior oversize(double p = 1.0,
                                    std::uint32_t pad_bytes = 4096) {
    ByzantineBehavior b{ByzantineKind::Oversize, p};
    b.param = pad_bytes;
    return b;
  }
  static ByzantineBehavior fuzz(double p = 1.0, std::uint32_t flips = 8) {
    ByzantineBehavior b{ByzantineKind::Fuzz, p};
    b.param = flips;
    return b;
  }
  static ByzantineBehavior slow_drip(double p = 1.0,
                                     std::uint32_t stall_ms = 2000) {
    ByzantineBehavior b{ByzantineKind::SlowDrip, p};
    b.param = stall_ms;
    return b;
  }
  static ByzantineBehavior edns_drop(double p = 1.0) {
    return {ByzantineKind::EdnsDrop, p};
  }
  static ByzantineBehavior edns_formerr(double p = 1.0) {
    return {ByzantineKind::EdnsFormerr, p};
  }
  static ByzantineBehavior edns_strip_opt(double p = 1.0) {
    return {ByzantineKind::EdnsStripOpt, p};
  }
  static ByzantineBehavior edns_echo_extra(double p = 1.0) {
    return {ByzantineKind::EdnsEchoExtra, p};
  }
  static ByzantineBehavior edns_badvers(double p = 1.0) {
    return {ByzantineKind::EdnsBadvers, p};
  }
  static ByzantineBehavior edns_buffer_lie(double p = 1.0) {
    return {ByzantineKind::EdnsBufferLie, p};
  }
  static ByzantineBehavior edns_garble(double p = 1.0) {
    return {ByzantineKind::EdnsGarble, p};
  }
  static ByzantineBehavior edns_duplicate_opt(double p = 1.0) {
    return {ByzantineKind::EdnsDuplicateOpt, p};
  }
  static ByzantineBehavior different_answer(double p = 1.0) {
    return {ByzantineKind::DifferentAnswer, p};
  }

  /// The same behavior, active only inside [t0, t1) of simulated time.
  [[nodiscard]] ByzantineBehavior between(SimTime t0, SimTime t1) const {
    ByzantineBehavior b = *this;
    b.active_from = t0;
    b.active_until = t1;
    return b;
  }

  [[nodiscard]] bool active(SimTime now) const {
    return kind != ByzantineKind::None && now >= active_from &&
           now < active_until;
  }
};

/// Shared tally across every mutator holding a reference to it; the chaos
/// campaign uses one per (profile, seed) run to report what actually fired.
struct ByzantineStats {
  std::uint64_t exchanges_seen = 0;      // responses offered to a mutator
  std::uint64_t mutations_applied = 0;   // behaviors that actually fired
  std::array<std::uint64_t, kByzantineKindCount> by_kind{};

  void count(ByzantineKind kind) {
    ++mutations_applied;
    ++by_kind[static_cast<std::size_t>(kind)];
  }

  /// Fold another tally in (the chaos campaign sums per-seed stats into
  /// campaign-wide totals).
  void merge(const ByzantineStats& other) {
    exchanges_seen += other.exchanges_seen;
    mutations_applied += other.mutations_applied;
    for (std::size_t k = 0; k < by_kind.size(); ++k)
      by_kind[k] += other.by_kind[k];
  }
};

/// The owner name every poisoning-shaped mutation stuffs into responses.
/// It lives under an unrelated TLD, so it is out of bailiwick for every
/// zone the testbed and scan worlds serve; the chaos campaign's headline
/// invariant is that this name is never cached and never served to a
/// client. 192.0.2.66 (TEST-NET-1) is the address those records carry.
[[nodiscard]] const dns::Name& poison_marker();

/// True if any record in any section of `wire` (parsed as a DNS message)
/// is owned by poison_marker(). Unparseable wire returns false — garbage
/// that never parses can't poison a cache.
[[nodiscard]] bool contains_poison(crypto::BytesView wire);

/// Compile a schedule of behaviors into a ResponseMutator for
/// Network::set_mutator. Behaviors are evaluated in order; the first one
/// active at the exchange's sim-time whose probability draw fires handles
/// the exchange, the rest are skipped (compose multi-fault servers by
/// listing behaviors with windows or probabilities that interleave).
/// `seed` creates the mutator's private RNG; `stats`, when non-null, is
/// shared and bumped on every exchange.
[[nodiscard]] ResponseMutator make_byzantine_mutator(
    std::vector<ByzantineBehavior> behaviors, std::uint64_t seed,
    std::shared_ptr<ByzantineStats> stats = nullptr);

}  // namespace ede::sim
