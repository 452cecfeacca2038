#include "simnet/byzantine.hpp"

#include <utility>

#include "crypto/rng.hpp"
#include "dnscore/message.hpp"
#include "dnscore/rdata.hpp"

namespace ede::sim {

namespace {

constexpr std::size_t kHeaderSize = 12;
constexpr std::uint8_t kQrBit = 0x80;
constexpr std::uint8_t kTcBit = 0x02;

/// TEST-NET-1 address carried by every stuffed/forged record, so a cache
/// that did accept one would hand clients a visibly bogus target.
const dns::Ipv4Address kPoisonAddress{std::array<std::uint8_t, 4>{
    192, 0, 2, 66}};

dns::ResourceRecord poison_a_record() {
  return {poison_marker(), dns::RRType::A, dns::RRClass::IN, 86'400,
          dns::ARdata{kPoisonAddress}};
}

dns::ResourceRecord poison_ns_record() {
  return {poison_marker(), dns::RRType::NS, dns::RRClass::IN, 86'400,
          dns::NsRdata{poison_marker()}};
}

std::uint8_t nonzero_byte(crypto::Xoshiro256& rng) {
  return static_cast<std::uint8_t>(1 + rng.below(255));
}

/// Outcome of trying one behavior on one exchange. `fired` false means the
/// behavior could not apply (e.g. it needed to parse an already-mangled
/// response) and the next behavior in the schedule should get a chance.
struct Applied {
  bool fired = false;
  std::optional<crypto::Bytes> wire;
};

Applied not_applicable() { return {}; }

Applied rewritten(crypto::Bytes wire) { return {true, std::move(wire)}; }

Applied swallowed() { return {true, std::nullopt}; }

Applied mutate_wrong_qid(const crypto::Bytes& response,
                         crypto::Xoshiro256& rng) {
  if (response.size() < kHeaderSize) return not_applicable();
  crypto::Bytes out = response;
  // XORing a nonzero value into the first ID byte guarantees the reply no
  // longer matches the transaction the client has in flight.
  out[0] ^= nonzero_byte(rng);
  out[1] ^= static_cast<std::uint8_t>(rng.below(256));
  return rewritten(std::move(out));
}

Applied mutate_wrong_question(const crypto::Bytes& response) {
  auto parsed = dns::Message::parse(response);
  if (!parsed || parsed.value().question.empty()) return not_applicable();
  dns::Message m = std::move(parsed).value();
  m.question.front().qname = poison_marker();
  return rewritten(m.serialize());
}

/// Forge a reply from scratch, as an off-path attacker would: it races the
/// real answer (and in this model always wins the race — the real reply is
/// discarded, as a UDP socket takes the first datagram). The forgery
/// answers the right question with poisoned records; whether it carries
/// the right QID depends on whether the attacker is on-path (qid_known).
Applied mutate_spoof(crypto::BytesView query, bool qid_known,
                     crypto::Xoshiro256& rng) {
  auto parsed_query = dns::Message::parse(query);
  if (!parsed_query || parsed_query.value().question.empty()) {
    return not_applicable();
  }
  const dns::Message& q = parsed_query.value();
  dns::Message forged;
  forged.header.id =
      qid_known ? q.header.id : static_cast<std::uint16_t>(rng.below(0x10000));
  forged.header.qr = true;
  forged.header.aa = true;
  forged.question = q.question;
  forged.answer.push_back({q.question.front().qname, q.question.front().qtype,
                           dns::RRClass::IN, 86'400,
                           dns::ARdata{kPoisonAddress}});
  forged.answer.push_back(poison_a_record());
  forged.additional.push_back(poison_a_record());
  return rewritten(forged.serialize());
}

/// Keep the real answer intact but stuff poisoning-shaped records into all
/// three sections — the classic pre-bailiwick-checking cache attack shape.
Applied mutate_bailiwick_stuff(const crypto::Bytes& response) {
  auto parsed = dns::Message::parse(response);
  if (!parsed) return not_applicable();
  dns::Message m = std::move(parsed).value();
  m.answer.push_back(poison_a_record());
  m.authority.push_back(poison_ns_record());
  m.additional.push_back(poison_a_record());
  return rewritten(m.serialize());
}

/// Hand-craft a reply whose question name is a compression-pointer trap:
/// either a pointer aimed at itself (a loop a naive reader chases forever)
/// or a long strictly-backwards pointer chain (legal hop by hop, so only a
/// hop cap stops the walk). WireReader must reject both without reading
/// out of bounds.
Applied mutate_pointer_loop(const crypto::Bytes& response,
                            crypto::Xoshiro256& rng) {
  if (response.size() < kHeaderSize) return not_applicable();
  crypto::Bytes out(response.begin(), response.begin() + kHeaderSize);
  out[2] |= kQrBit;
  // qdcount=1, an/ns/ar = 0 so the parser walks straight into the trap.
  out[4] = 0;
  out[5] = 1;
  for (std::size_t i = 6; i < kHeaderSize; ++i) out[i] = 0;
  if (rng.below(2) == 0) {
    // Self-pointer: the name at offset 12 points at offset 12.
    out.push_back(0xc0);
    out.push_back(0x0c);
  } else {
    // Hop bomb: a root label at offset 12, then ~300 pointers each aimed
    // two bytes back, with the question name entering at the last one.
    out.push_back(0x00);
    std::uint16_t target = 12;
    for (int i = 0; i < 300; ++i) {
      const std::uint16_t at = static_cast<std::uint16_t>(out.size());
      out.push_back(static_cast<std::uint8_t>(0xc0 | (target >> 8)));
      out.push_back(static_cast<std::uint8_t>(target & 0xff));
      target = at;
    }
  }
  // QTYPE=A, QCLASS=IN after the trapped name.
  out.push_back(0x00);
  out.push_back(0x01);
  out.push_back(0x00);
  out.push_back(0x01);
  return rewritten(std::move(out));
}

/// TC=1 with the body chopped at a random point and garbage appended: the
/// shape Dikshit et al. probe for — a truncation signal whose payload is
/// unusable, forcing the client to decide between retrying and giving up.
Applied mutate_truncation_garbage(const crypto::Bytes& response,
                                  crypto::Xoshiro256& rng) {
  if (response.size() < kHeaderSize) return not_applicable();
  const std::size_t keep =
      kHeaderSize + rng.below(response.size() - kHeaderSize + 1);
  crypto::Bytes out(response.begin(), response.begin() + keep);
  out[2] |= static_cast<std::uint8_t>(kQrBit | kTcBit);
  const std::size_t garbage = 4 + rng.below(37);
  for (std::size_t i = 0; i < garbage; ++i) {
    out.push_back(static_cast<std::uint8_t>(rng.below(256)));
  }
  return rewritten(std::move(out));
}

Applied mutate_oversize(const crypto::Bytes& response, std::uint32_t pad,
                        crypto::Xoshiro256& rng) {
  crypto::Bytes out = response;
  out.reserve(out.size() + pad);
  for (std::uint32_t i = 0; i < pad; ++i) {
    out.push_back(static_cast<std::uint8_t>(rng.below(256)));
  }
  return rewritten(std::move(out));
}

Applied mutate_fuzz(const crypto::Bytes& response, std::uint32_t flips,
                    crypto::Xoshiro256& rng) {
  if (response.empty()) return not_applicable();
  crypto::Bytes out = response;
  for (std::uint32_t i = 0; i < flips; ++i) {
    out[rng.below(out.size())] ^= nonzero_byte(rng);
  }
  return rewritten(std::move(out));
}

/// Half the answer arrives, late: the connection stalls for `stall_ms` of
/// serialization time and then goes quiet mid-message.
Applied mutate_slow_drip(const crypto::Bytes& response, std::uint32_t stall_ms,
                         MutateContext& ctx) {
  ctx.extra_delay_ms += stall_ms;
  if (response.size() <= kHeaderSize) return swallowed();
  crypto::Bytes out(response.begin(),
                    response.begin() +
                        std::max(kHeaderSize, response.size() / 2));
  return rewritten(std::move(out));
}

// ---- EDNS-compliance zoo (RFC 6891) ---------------------------------

bool wire_has_opt(crypto::BytesView wire) {
  auto parsed = dns::Message::parse(wire);
  return parsed.ok() && parsed.value().find_opt() != nullptr;
}

/// Silently drop any query that carries an OPT record — the classic
/// EDNS-hostile firewall. The sender sees a timeout; a plain-DNS retry
/// sails through untouched.
Applied mutate_edns_drop(crypto::BytesView query) {
  if (!wire_has_opt(query)) return not_applicable();
  return swallowed();
}

/// FORMERR with the OPT stripped: the pre-EDNS-era server reply. RFC 6891
/// §7 names this as the signal a requestor may take to retry without OPT.
Applied mutate_edns_formerr(crypto::BytesView query,
                            const crypto::Bytes& response) {
  if (!wire_has_opt(query)) return not_applicable();
  auto parsed = dns::Message::parse(response);
  if (!parsed) return not_applicable();
  dns::Message m = std::move(parsed).value();
  m.header.rcode = dns::RCode::FORMERR;
  m.header.aa = false;
  m.header.tc = false;
  m.answer.clear();
  m.authority.clear();
  m.additional.clear();  // a server this old has never heard of OPT
  return rewritten(m.serialize());
}

/// Answer normally but never echo the OPT back — EDNS-oblivious rather
/// than EDNS-hostile (and indistinguishable from a middlebox that strips
/// the OPT from responses in flight).
Applied mutate_edns_strip_opt(const crypto::Bytes& response) {
  auto parsed = dns::Message::parse(response);
  if (!parsed) return not_applicable();
  dns::Message m = std::move(parsed).value();
  const std::size_t before = m.additional.size();
  std::erase_if(m.additional, [](const dns::ResourceRecord& rr) {
    return rr.type == dns::RRType::OPT;
  });
  if (m.additional.size() == before) return not_applicable();
  return rewritten(m.serialize());
}

/// Echo an option from the local/experimental range (RFC 6891 §9) back at
/// the client. Compliant requestors must ignore options they never sent;
/// the round-trip must also preserve the echoed bytes verbatim.
Applied mutate_edns_echo_extra(const crypto::Bytes& response,
                               crypto::Xoshiro256& rng) {
  auto parsed = dns::Message::parse(response);
  if (!parsed) return not_applicable();
  dns::Message m = std::move(parsed).value();
  auto* opt = m.find_opt();
  if (opt == nullptr) return not_applicable();
  auto* rdata = std::get_if<dns::OptRdata>(&opt->rdata);
  if (rdata == nullptr) return not_applicable();
  dns::EdnsOption echoed;
  echoed.code = static_cast<std::uint16_t>(0xfde9 + rng.below(16));
  echoed.data = {0x7a, 0x6f, 0x6f};  // "zoo"
  rdata->options.push_back(std::move(echoed));
  return rewritten(m.serialize());
}

/// BADVERS even to EDNS version 0 — a server that objects to versions it
/// in fact supports. BADVERS is an extended RCODE, so the reply must keep
/// (or grow) an OPT record for the high bits to ride in.
Applied mutate_edns_badvers(crypto::BytesView query,
                            const crypto::Bytes& response) {
  if (!wire_has_opt(query)) return not_applicable();
  auto parsed = dns::Message::parse(response);
  if (!parsed) return not_applicable();
  dns::Message m = std::move(parsed).value();
  m.header.rcode = dns::RCode::BADVERS;
  m.header.aa = false;
  m.header.tc = false;
  m.answer.clear();
  m.authority.clear();
  std::erase_if(m.additional, [](const dns::ResourceRecord& rr) {
    return rr.type != dns::RRType::OPT;
  });
  if (m.find_opt() == nullptr) {
    m.additional.push_back({dns::Name{}, dns::RRType::OPT,
                            static_cast<dns::RRClass>(512), 0,
                            dns::OptRdata{}});
  }
  return rewritten(m.serialize());
}

/// Ignore the advertised buffer entirely: truncate as if the client had
/// offered a 512-byte buffer, whole sections shed, OPT kept — spurious
/// TC that sends the client to TCP for an answer that fit all along.
Applied mutate_edns_buffer_lie(const crypto::Bytes& response) {
  auto parsed = dns::Message::parse(response);
  if (!parsed) return not_applicable();
  dns::Message m = std::move(parsed).value();
  if (m.answer.empty() && m.authority.empty()) return not_applicable();
  m.header.tc = true;
  m.answer.clear();
  m.authority.clear();
  std::erase_if(m.additional, [](const dns::ResourceRecord& rr) {
    return rr.type != dns::RRType::OPT;
  });
  return rewritten(m.serialize());
}

/// Garble the OPT RDATA: append an option header that declares more
/// payload than the record carries. The hardened OPT decoder must keep
/// the message parseable and classify the EDNS state as garbled.
Applied mutate_edns_garble(const crypto::Bytes& response,
                           crypto::Xoshiro256& rng) {
  auto parsed = dns::Message::parse(response);
  if (!parsed) return not_applicable();
  dns::Message m = std::move(parsed).value();
  auto* opt = m.find_opt();
  if (opt == nullptr) return not_applicable();
  auto* rdata = std::get_if<dns::OptRdata>(&opt->rdata);
  if (rdata == nullptr) return not_applicable();
  rdata->trailing = {0x00, 0x0a,
                     static_cast<std::uint8_t>(0x40 + rng.below(0x40)),
                     static_cast<std::uint8_t>(rng.below(256))};
  return rewritten(m.serialize());
}

/// Attach a second copy of the response's OPT record (RFC 6891 §6.1.1
/// allows exactly one). The resolver must read the duplicate as a garbled
/// EDNS signal, whichever copy a naive reader would have picked.
Applied mutate_edns_duplicate_opt(const crypto::Bytes& response) {
  auto parsed = dns::Message::parse(response);
  if (!parsed) return not_applicable();
  dns::Message m = std::move(parsed).value();
  const auto* opt = m.find_opt();
  if (opt == nullptr) return not_applicable();
  m.additional.push_back(dns::ResourceRecord{*opt});
  return rewritten(m.serialize());
}

/// The TC-then-different-answer bait-and-switch: a plausible, in-bailiwick,
/// *unsigned* answer to the question actually asked (TXT for a TXT query,
/// A otherwise), plus a poison-marker additional record. The unsigned
/// answer is the calibration point — a validating resolver must reject it
/// (RRSIGs missing), and the poison record must never survive the
/// scrubber; both are chaos-campaign invariants.
Applied mutate_different_answer(crypto::BytesView query) {
  auto parsed_query = dns::Message::parse(query);
  if (!parsed_query || parsed_query.value().question.empty()) {
    return not_applicable();
  }
  const dns::Message& q = parsed_query.value();
  const auto& question = q.question.front();
  dns::Message forged;
  forged.header.id = q.header.id;
  forged.header.qr = true;
  forged.header.aa = true;
  forged.question = q.question;
  if (question.qtype == dns::RRType::TXT) {
    dns::TxtRdata txt;
    txt.strings.push_back("forged-over-tcp");
    forged.answer.push_back({question.qname, dns::RRType::TXT,
                             dns::RRClass::IN, 86'400, txt});
  } else {
    forged.answer.push_back({question.qname, dns::RRType::A, dns::RRClass::IN,
                             86'400, dns::ARdata{kPoisonAddress}});
  }
  forged.additional.push_back(poison_a_record());
  return rewritten(forged.serialize());
}

Applied apply(const ByzantineBehavior& behavior, crypto::BytesView query,
              const crypto::Bytes& response, crypto::Xoshiro256& rng,
              MutateContext& ctx) {
  switch (behavior.kind) {
    case ByzantineKind::WrongQid:
      return mutate_wrong_qid(response, rng);
    case ByzantineKind::WrongQuestion:
      return mutate_wrong_question(response);
    case ByzantineKind::Spoof:
      return mutate_spoof(query, behavior.qid_known, rng);
    case ByzantineKind::BailiwickStuff:
      return mutate_bailiwick_stuff(response);
    case ByzantineKind::PointerLoop:
      return mutate_pointer_loop(response, rng);
    case ByzantineKind::TruncationGarbage:
      return mutate_truncation_garbage(response, rng);
    case ByzantineKind::Oversize:
      return mutate_oversize(response, behavior.param, rng);
    case ByzantineKind::Fuzz:
      return mutate_fuzz(response, behavior.param, rng);
    case ByzantineKind::SlowDrip:
      return mutate_slow_drip(response, behavior.param, ctx);
    case ByzantineKind::EdnsDrop:
      return mutate_edns_drop(query);
    case ByzantineKind::EdnsFormerr:
      return mutate_edns_formerr(query, response);
    case ByzantineKind::EdnsStripOpt:
      return mutate_edns_strip_opt(response);
    case ByzantineKind::EdnsEchoExtra:
      return mutate_edns_echo_extra(response, rng);
    case ByzantineKind::EdnsBadvers:
      return mutate_edns_badvers(query, response);
    case ByzantineKind::EdnsBufferLie:
      return mutate_edns_buffer_lie(response);
    case ByzantineKind::EdnsGarble:
      return mutate_edns_garble(response, rng);
    case ByzantineKind::EdnsDuplicateOpt:
      return mutate_edns_duplicate_opt(response);
    case ByzantineKind::DifferentAnswer:
      return mutate_different_answer(query);
    case ByzantineKind::None:
      break;
  }
  return not_applicable();
}

}  // namespace

const char* to_string(ByzantineKind kind) {
  switch (kind) {
    case ByzantineKind::None: return "none";
    case ByzantineKind::WrongQid: return "wrong_qid";
    case ByzantineKind::WrongQuestion: return "wrong_question";
    case ByzantineKind::Spoof: return "spoof";
    case ByzantineKind::BailiwickStuff: return "bailiwick_stuff";
    case ByzantineKind::PointerLoop: return "pointer_loop";
    case ByzantineKind::TruncationGarbage: return "truncation_garbage";
    case ByzantineKind::Oversize: return "oversize";
    case ByzantineKind::Fuzz: return "fuzz";
    case ByzantineKind::SlowDrip: return "slow_drip";
    case ByzantineKind::EdnsDrop: return "edns_drop";
    case ByzantineKind::EdnsFormerr: return "edns_formerr";
    case ByzantineKind::EdnsStripOpt: return "edns_strip_opt";
    case ByzantineKind::EdnsEchoExtra: return "edns_echo_extra";
    case ByzantineKind::EdnsBadvers: return "edns_badvers";
    case ByzantineKind::EdnsBufferLie: return "edns_buffer_lie";
    case ByzantineKind::EdnsGarble: return "edns_garble";
    case ByzantineKind::EdnsDuplicateOpt: return "edns_duplicate_opt";
    case ByzantineKind::DifferentAnswer: return "different_answer";
  }
  return "unknown";
}

const dns::Name& poison_marker() {
  // ".invalid" (RFC 2606) is reserved and never delegated by the testbed
  // or scan worlds, so this owner is out of bailiwick for every zone any
  // simulated server is authoritative for.
  static const dns::Name marker =
      dns::Name::of("poisoned-by-byzantine-authority.invalid");
  return marker;
}

bool contains_poison(crypto::BytesView wire) {
  auto parsed = dns::Message::parse(wire);
  if (!parsed) return false;
  const dns::Message& m = parsed.value();
  const auto owned_by_marker = [](const std::vector<dns::ResourceRecord>& rrs) {
    for (const auto& rr : rrs) {
      if (rr.name == poison_marker()) return true;
    }
    return false;
  };
  return owned_by_marker(m.answer) || owned_by_marker(m.authority) ||
         owned_by_marker(m.additional);
}

ResponseMutator make_byzantine_mutator(
    std::vector<ByzantineBehavior> behaviors, std::uint64_t seed,
    std::shared_ptr<ByzantineStats> stats) {
  auto rng = std::make_shared<crypto::Xoshiro256>(seed);
  return [behaviors = std::move(behaviors), rng = std::move(rng),
          stats = std::move(stats)](
             crypto::BytesView query, crypto::Bytes response,
             MutateContext& ctx) -> std::optional<crypto::Bytes> {
    if (stats) ++stats->exchanges_seen;
    for (const auto& behavior : behaviors) {
      if (!behavior.active(ctx.now)) continue;
      if (behavior.probability < 1.0 &&
          rng->uniform() >= behavior.probability) {
        continue;
      }
      Applied result = apply(behavior, query, response, *rng, ctx);
      if (!result.fired) continue;
      ctx.mutated = true;
      if (stats) stats->count(behavior.kind);
      return std::move(result.wire);
    }
    return response;
  };
}

}  // namespace ede::sim
