#include "resolver/resolver.hpp"

#include <algorithm>
#include <queue>

#include "crypto/encoding.hpp"
#include "dnssec/nsec3.hpp"
#include "edns/ede.hpp"
#include "edns/edns.hpp"
#include "edns/report_channel.hpp"
#include "resolver/infra_cache.hpp"
#include "resolver/retry.hpp"
#include "resolver/scrub.hpp"
#include "simnet/stream.hpp"

namespace ede::resolver {

using dnssec::Defect;
using dnssec::Finding;
using dnssec::Security;
using dnssec::Stage;

namespace {

constexpr std::uint32_t kDefaultNegativeTtl = 300;

void add_finding(std::vector<Finding>& findings, Stage stage, Defect defect,
                 std::string detail = {}) {
  Finding f{stage, defect, std::move(detail)};
  if (std::find(findings.begin(), findings.end(), f) == findings.end())
    findings.push_back(std::move(f));
}

/// The NS owner in the authority section when the response is a referral
/// below `zone` towards `qname`.
std::optional<dns::Name> referral_child(const dns::Message& response,
                                        const dns::Name& zone,
                                        const dns::Name& qname) {
  if (response.header.rcode != dns::RCode::NOERROR) return std::nullopt;
  if (!response.answer.empty()) return std::nullopt;
  if (response.header.aa) return std::nullopt;
  for (const auto& rr : response.authority) {
    if (rr.type != dns::RRType::NS) continue;
    if (!rr.name.is_subdomain_of(zone)) continue;
    if (rr.name == zone) continue;
    if (!qname.is_subdomain_of(rr.name)) continue;
    return rr.name;
  }
  return std::nullopt;
}

std::vector<dns::Name> ns_targets(const dns::Message& response,
                                  const dns::Name& child) {
  std::vector<dns::Name> out;
  for (const auto& rr : response.authority) {
    if (rr.type != dns::RRType::NS || !(rr.name == child)) continue;
    if (const auto* ns = std::get_if<dns::NsRdata>(&rr.rdata))
      out.push_back(ns->nsdname);
  }
  return out;
}

std::vector<sim::NodeAddress> glue_addresses(
    const dns::Message& response, const std::vector<dns::Name>& targets) {
  std::vector<sim::NodeAddress> out;
  for (const auto& target : targets) {
    for (const auto& rr : response.additional) {
      if (!(rr.name == target)) continue;
      if (const auto* a = std::get_if<dns::ARdata>(&rr.rdata)) {
        out.emplace_back(a->address);
      } else if (const auto* aaaa = std::get_if<dns::AaaaRdata>(&rr.rdata)) {
        out.emplace_back(aaaa->address);
      }
    }
  }
  return out;
}

std::vector<dns::RrsigRdata> collect_sigs(
    const std::vector<dns::ResourceRecord>& section) {
  std::vector<dns::RrsigRdata> out;
  for (const auto& rr : section) {
    if (const auto* sig = std::get_if<dns::RrsigRdata>(&rr.rdata))
      out.push_back(*sig);
  }
  return out;
}

std::vector<dns::DnskeyRdata> collect_keys(const dns::RRset* rrset) {
  std::vector<dns::DnskeyRdata> out;
  if (rrset == nullptr) return out;
  for (const auto& rd : rrset->rdatas) {
    if (const auto* key = std::get_if<dns::DnskeyRdata>(&rd))
      out.push_back(*key);
  }
  return out;
}

/// The acceptance gate's transaction check, on both transports: a reply
/// (QR set) carrying our query's ID.
bool answers_transaction(const dns::Message& reply, std::uint16_t id) {
  return reply.header.qr && reply.header.id == id;
}

/// The acceptance gate's question check, on both transports: the reply
/// echoes exactly the one question we asked.
bool echoes_question(const dns::Message& reply, const dns::Name& qname,
                     dns::RRType qtype) {
  return reply.question.size() == 1 &&
         reply.question.front().qname == qname &&
         reply.question.front().qtype == qtype;
}

/// Negative-caching TTL from the SOA minimum (RFC 2308).
std::uint32_t negative_ttl(const dns::Message& response) {
  for (const auto& rr : response.authority) {
    if (const auto* soa = std::get_if<dns::SoaRdata>(&rr.rdata))
      return std::min(soa->minimum, rr.ttl);
  }
  return kDefaultNegativeTtl;
}

}  // namespace

RecursiveResolver::RecursiveResolver(std::shared_ptr<sim::Network> network,
                                     ResolverProfile profile,
                                     std::vector<sim::NodeAddress> root_servers,
                                     dns::DnskeyRdata trust_anchor,
                                     ResolverOptions options)
    : network_(std::move(network)),
      profile_(std::move(profile)),
      root_servers_(std::move(root_servers)),
      trust_anchor_(std::move(trust_anchor)),
      options_(options),
      cache_(options.cache),
      infra_(options.infra) {}

void RecursiveResolver::flush() {
  cache_.clear();
  zone_cache_.clear();
  denial_cache_.clear();
  reports_sent_.clear();
  infra_.clear();
  root_keys_.reset();
  root_trust_ok_ = false;
}

std::uint64_t RecursiveResolver::fingerprint_servers(
    const std::vector<sim::NodeAddress>& servers) {
  // Order-sensitive FNV-1a over each address's family tag and raw bytes.
  // Order matters deliberately: the memo key must distinguish "same
  // servers, different configured order" as conservatively as possible —
  // a collision here replays findings against a server never probed.
  constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t hash = kOffset;
  const auto mix = [&hash](std::uint8_t byte) {
    hash ^= byte;
    hash *= kPrime;
  };
  for (const auto& server : servers) {
    if (const auto* v4 = server.v4()) {
      mix(1);
      const std::uint32_t value = v4->value();
      for (int shift = 24; shift >= 0; shift -= 8)
        mix(static_cast<std::uint8_t>(value >> shift));
    } else if (const auto* v6 = server.v6()) {
      mix(2);
      for (const auto byte : v6->octets()) mix(byte);
    }
  }
  return hash;
}

dns::Message RecursiveResolver::make_upstream_query(const dns::Name& qname,
                                                   dns::RRType qtype,
                                                   bool use_edns) {
  dns::Message query = dns::make_query(next_id_++, qname, qtype,
                                       /*recursion_desired=*/false);
  if (use_edns) {
    edns::Edns edns;
    edns.dnssec_ok = true;
    edns.udp_payload_size = options_.edns_udp_payload;
    edns::set_edns(query, edns);
  }
  return query;
}

bool RecursiveResolver::plain_dns_only(const ResolutionContext& ctx,
                                       const sim::NodeAddress& server) const {
  // A verdict this resolution earned itself (ctx.edns_self_plain) is
  // always visible; the InfraCache shows what earlier batches learned.
  return ctx.edns_self_plain.contains(server) ||
         infra_.edns_capability(server, network_->clock().now_ms(), ctx.id) ==
             InfraCache::EdnsCapability::PlainOnly;
}

void RecursiveResolver::note_plain_dns(ResolutionContext& ctx,
                                       const sim::NodeAddress& server) {
  ctx.edns_self_plain.insert(server);
  infra_.report_edns_broken(server, network_->clock().now_ms(),
                            profile_.edns_dance.capability_ttl_ms, ctx.id);
}

sim::Task<RecursiveResolver::QueryResult> RecursiveResolver::query_servers(
    ResolutionContext& ctx, dns::Name zone,
    std::vector<sim::NodeAddress> servers, dns::Name qname,
    dns::RRType qtype) {
  // In-flight coalescing: within one top-level resolution, replay a probe
  // that already failed instead of burning another round of retransmits
  // against the same dying servers (what BIND's recursive-clients dedup
  // and Unbound's query mesh do for concurrent clients). Only failures are
  // memoized — successful responses are already deduplicated by the record
  // and zone caches, and replaying them here would mask CNAME loops.
  // The key carries a fingerprint of the candidate server set: a failure
  // recorded against yesterday's NS list must not answer for a probe that
  // would have tried servers the original never reached. The key (two
  // name copies) is built only to probe a non-empty memo or to record a
  // failure.
  const bool coalesce = options_.coalesce_queries;
  const std::uint64_t fingerprint = coalesce ? fingerprint_servers(servers) : 0;
  if (coalesce && !ctx.coalesced.empty()) {
    const auto it =
        ctx.coalesced.find(CoalesceKey{zone, qname, qtype, fingerprint});
    if (it != ctx.coalesced.end()) {
      ++hardening_.coalesced_queries;
      QueryResult replay = it->second;
      replay.queries = 0;
      co_return replay;
    }
  }

  QueryResult result;
  const std::string query_desc =
      qname.to_string() + " " + dns::to_string(qtype);

  // Servers are probed in configured NS order. Sorting by SRTT would
  // demote dead servers with a backed-off SRTT and skip the probes whose
  // ServerTimeout findings the diagnosis (and the paper's Table 4)
  // depends on.
  std::optional<dns::Message> first_response;
  bool out_of_budget = false;
  for (const auto& server : servers) {
    if (infra_.held_down(server, network_->clock().now_ms())) {
      infra_.note_skip();
      const auto* entry = infra_.find(server);
      if (entry != nullptr &&
          entry->last_failure == InfraCache::FailureKind::Timeout) {
        // Skipping must not change the diagnosis: a held-down lame server
        // still surfaces byte-for-byte the ServerTimeout finding a probe
        // would have produced — only the retransmissions are saved. (The
        // text must match the probe's exactly: findings feed EDE
        // EXTRA-TEXT, and the inflight-equivalence suite compares those.)
        add_finding(result.findings, Stage::Transport, Defect::ServerTimeout,
                    server.to_string() + ":53 timed out for " + query_desc);
      }
      continue;
    }

    std::optional<dns::Message> received;
    std::uint32_t timeout_ms = profile_.retry.initial_timeout_ms;
    bool sent_once = false;

    // ---- EDNS probe-and-fallback state (RFC 6891 §6.2.2) -------------
    // Queries carry OPT until this server proves it cannot cope: an
    // explicit rejection (FORMERR/BADVERS), a garbled or duplicated OPT,
    // or the vendor's quota of silent timeouts flips the one-way
    // `use_edns` latch and the remaining attempts go out as plain DNS.
    // The InfraCache remembers the verdict so later resolutions skip the
    // dance until the vendor's re-probe TTL expires.
    bool use_edns = true;
    bool plain_probe_counted = false;
    int edns_timeouts = 0;
    if (plain_dns_only(ctx, server)) {
      use_edns = false;
      plain_probe_counted = true;  // a memory hit is a skip, not a probe
      ++hardening_.edns_capability_skips;
    }
    // Policy-driven attempts per server: each timed-out attempt waits out
    // the current retransmission timer, then backs the timer off
    // exponentially (capped). A TC-triggered DoTCP fallback does not
    // consume a UDP attempt (it runs on its own tcp_* budget), mirroring
    // the old three-attempt loop's special case.
    for (int attempt = 0; attempt < profile_.retry.attempts_per_server &&
                          !received.has_value();) {
      if (ctx.budget.attempts_left <= 0 ||
          network_->clock().now_ms() >= ctx.budget.deadline_ms) {
        // Watchdog: the per-resolution budget is exhausted, so stop
        // probing entirely and let the caller degrade into a clean
        // serve-stale / SERVFAIL (+ EDE 22/23) on what we have. The trace
        // and findings collected so far are preserved by the caller, and
        // the cut-short probe is memoized like any other failure.
        ++hardening_.watchdog_trips;
        out_of_budget = true;
        break;
      }
      const dns::Message query = make_upstream_query(qname, qtype, use_edns);
      // A plain-DNS query implies the pre-EDNS 512-byte ceiling (RFC 1035
      // §4.2.1) — both on the wire and for the oversize acceptance gate.
      const std::uint16_t payload_size =
          use_edns ? options_.edns_udp_payload : std::uint16_t{512};
      if (!use_edns && !plain_probe_counted) {
        ++hardening_.edns_fallback_probes;
        plain_probe_counted = true;
      }

      ++result.queries;
      --ctx.budget.attempts_left;
      // The exchange is decided at the send instant (fault windows,
      // mutators, jitter draw); the round trip is charged by parking this
      // coroutine — other in-flight resolutions run while this one waits
      // out its RTT.
      const auto sent = network_->send(profile_.source, server,
                                       arena_.serialize(query),
                                       /*retransmission=*/sent_once);
      sent_once = true;
      if (sent.status != sim::SendStatus::Timeout) {
        co_await park(ctx, sent.rtt_ms);
      }
      if (sent.status == sim::SendStatus::Unreachable) {
        // Special-purpose or otherwise unroutable address: nothing was
        // ever going to arrive. No per-server finding — the aggregate
        // AllServersUnreachable is added by the caller on total failure.
        infra_.report_failure(server, InfraCache::FailureKind::Unreachable,
                              network_->clock().now_ms());
        break;
      }
      if (sent.status == sim::SendStatus::Timeout) {
        co_await park(ctx, timeout_ms);  // retransmission timer runs out
        infra_.report_failure(server, InfraCache::FailureKind::Timeout,
                              network_->clock().now_ms());
        add_finding(result.findings, Stage::Transport, Defect::ServerTimeout,
                    server.to_string() + ":53 timed out for " + query_desc);
        if (use_edns &&
            ++edns_timeouts >= profile_.edns_dance.timeouts_before_downgrade) {
          // Unbound-style timeout-driven downgrade: repeated silence to
          // OPT queries smells like an EDNS-eating middlebox, so the
          // remaining attempts against this server go out as plain DNS.
          // Attempts are never added — a dead server costs exactly what
          // it cost before the dance existed — so a vendor whose quota
          // equals its attempt budget learns the verdict for *later*
          // resolutions instead of probing plain in this one.
          use_edns = false;
          note_plain_dns(ctx, server);
        }
        timeout_ms = profile_.retry.next_timeout(timeout_ms);
        ++attempt;
        continue;
      }

      // A reply of any kind refreshes the server's SRTT and clears its
      // failure streak.
      infra_.report_success(server, sent.rtt_ms);

      // ---- response-acceptance gate ---------------------------------
      // Everything below up to `received = ...` decides whether this
      // datagram is the answer to the question we have in flight. The
      // source address already matches structurally (the simulated
      // transport only delivers the destination endpoint's reply on this
      // exchange); QID, QR and question-section matching — BIND and
      // Unbound's first line of defense against off-path spoofing — are
      // enforced here, and mismatches are counted, discarded and retried
      // on the normal backoff schedule, never crashed on. Each discard
      // waits out the retransmission timer and backs it off (inlined at
      // every rejection site: a lambda cannot co_await on behalf of the
      // enclosing coroutine).
      if (sent.response.size() > payload_size) {
        // Larger than we advertised: a real UDP stack would have dropped
        // or fragmented this datagram away; treat it as never delivered.
        ++hardening_.rejected_oversize;
        add_finding(result.findings, Stage::Transport, Defect::ServerTimeout,
                    server.to_string() +
                        ":53 sent an oversized response for " + query_desc);
        co_await park(ctx, timeout_ms);
        timeout_ms = profile_.retry.next_timeout(timeout_ms);
        ++attempt;
        continue;
      }
      auto parsed = dns::Message::parse(sent.response);
      if (!parsed) {
        // A mangled datagram is indistinguishable from silence to a real
        // resolver: the reply is discarded and the retransmission timer
        // expires, so it is retried on the same backoff schedule.
        add_finding(result.findings, Stage::Transport, Defect::ServerTimeout,
                    server.to_string() +
                        ":53 sent an unparsable response for " + query_desc);
        co_await park(ctx, timeout_ms);
        timeout_ms = profile_.retry.next_timeout(timeout_ms);
        ++attempt;
        continue;
      }
      if (!answers_transaction(parsed.value(), query.header.id)) {
        // Not a response to our transaction (spoofed/corrupted ID or a
        // reflected query): discard and retry, like a dropped reply.
        ++hardening_.rejected_qid_mismatch;
        co_await park(ctx, timeout_ms);
        timeout_ms = profile_.retry.next_timeout(timeout_ms);
        ++attempt;
        continue;
      }
      // ---- EDNS probe-and-fallback (RFC 6891 §6.2.2) -----------------
      // An explicit rejection of the OPT record — FORMERR from a server
      // that predates EDNS, BADVERS to version 0 — or an OPT that comes
      // back garbled or duplicated triggers the dance every profile
      // performs: drop EDNS and retry the same server immediately with
      // plain DNS. The retry does not consume a UDP attempt (it is the
      // probe half of probe-and-fallback, bounded to one by the latch),
      // and the verdict is remembered per address so later resolutions
      // skip the dance until the re-probe TTL expires.
      if (use_edns) {
        std::string why;
        auto defect = Defect::EdnsFormerr;
        if (parsed.value().header.rcode == dns::RCode::FORMERR) {
          why = ":53 rcode=FORMERR to an EDNS query for ";
          defect = Defect::EdnsFormerr;
          ++hardening_.edns_formerr_seen;
        } else if (parsed.value().header.rcode == dns::RCode::BADVERS) {
          why = ":53 rcode=BADVERS for ";
          defect = Defect::EdnsBadvers;
          ++hardening_.edns_badvers_seen;
        } else if (edns::opt_count(parsed.value()) > 1) {
          why = ":53 sent duplicate OPT records for ";
          defect = Defect::EdnsGarbled;
          ++hardening_.edns_garbled_opt;
        } else if (const auto got = edns::get_edns(parsed.value());
                   got.has_value() && got->garbled()) {
          why = ":53 sent a garbled OPT for ";
          defect = Defect::EdnsGarbled;
          ++hardening_.edns_garbled_opt;
        }
        if (!why.empty()) {
          add_finding(result.findings, Stage::Transport, defect,
                      server.to_string() + why + query_desc);
          use_edns = false;
          note_plain_dns(ctx, server);
          continue;
        }
      }
      if (parsed.value().header.tc) {
        // Truncated: genuine RFC 7766 DoTCP fallback. The same question
        // goes out over the stream transport under the policy's tcp_*
        // budget; a dead stream path (refused, stalled, closed mid-answer,
        // garbage framing) abandons this server, and on total failure the
        // caller degrades to SERVFAIL with the AllServersUnreachable /
        // TcpConnectFailed / TcpStreamFailed findings the vendor profile
        // maps to EDE 22/23.
        ++hardening_.tc_seen;
        if (auto streamed = co_await query_over_stream(ctx, server, qname,
                                                       qtype, result);
            streamed.has_value()) {
          received = std::move(streamed);
          continue;  // accepted: the loop condition exits
        }
        break;  // stream path dead: move on to the next server
      }
      if (!echoes_question(parsed.value(), qname, qtype)) {
        // Right transaction ID, wrong question: either a lucky off-path
        // forgery or a server echoing garbage. Refuse it and retry — the
        // finding survives so the diagnosis still shows the mismatch.
        ++hardening_.rejected_question_mismatch;
        add_finding(result.findings, Stage::Transport,
                    Defect::MismatchedQuestion,
                    "Mismatched question from the authoritative server " +
                        server.to_string());
        co_await park(ctx, timeout_ms);
        timeout_ms = profile_.retry.next_timeout(timeout_ms);
        ++attempt;
        continue;
      }
      received = std::move(parsed).take();
    }
    if (out_of_budget) break;
    if (!received.has_value()) continue;
    dns::Message response = std::move(*received);

    // Bailiwick scrubbing: drop records this zone's servers have no
    // authority to assert, before anything downstream can interpret or
    // cache them. On the clean path every record is in bailiwick and this
    // is a no-op (asserted by the scan-throughput perf gate).
    hardening_.scrubbed_records += scrub_out_of_bailiwick(response, zone);

    switch (response.header.rcode) {
      case dns::RCode::REFUSED:
        add_finding(result.findings, Stage::Transport, Defect::ServerRefused,
                    server.to_string() + ":53 rcode=REFUSED for " +
                        query_desc);
        continue;
      case dns::RCode::SERVFAIL:
        add_finding(result.findings, Stage::Transport, Defect::ServerServfail,
                    server.to_string() + ":53 rcode=SERVFAIL for " +
                        query_desc);
        continue;
      case dns::RCode::NOTAUTH:
        add_finding(result.findings, Stage::Transport, Defect::ServerNotAuth,
                    server.to_string() + ":53 rcode=NOTAUTH for " +
                        query_desc);
        continue;
      // Every other rcode flows on: NOERROR/NXDOMAIN carry the answer or
      // denial, and the oddball codes are diagnosed by later stages with
      // the full message in hand rather than bounced at the transport.
      case dns::RCode::NOERROR:
      case dns::RCode::FORMERR:
      case dns::RCode::NXDOMAIN:
      case dns::RCode::NOTIMP:
      case dns::RCode::YXDOMAIN:
      case dns::RCode::YXRRSET:
      case dns::RCode::NXRRSET:
      case dns::RCode::NOTZONE:
      case dns::RCode::BADVERS:
      case dns::RCode::BADCOOKIE:
      default:
        break;
    }

    // EDNS-unaware authority: we sent an OPT, none came back (the paper's
    // §4.2.6 notes such servers behind its Invalid Data category). The
    // response is still usable — but without EDNS there are no RRSIGs, so
    // signed zones will fail validation downstream, as in reality. The
    // server is remembered as plain-DNS-only (BIND's ADB does the same),
    // so follow-up queries stop wasting an OPT on it.
    if (use_edns && response.find_opt() == nullptr) {
      add_finding(result.findings, Stage::Transport, Defect::NoOptInResponse,
                  server.to_string() + ":53 ignored EDNS for " + query_desc);
      note_plain_dns(ctx, server);
    } else if (use_edns) {
      infra_.report_edns_ok(server, ctx.id);
    } else {
      // Degraded success: the dance (or the capability memory) got an
      // answer out of an EDNS-broken server over plain DNS. No OPT means
      // no DO bit and no signatures — signed zones degrade to the same
      // validation findings a stripped answer produces — and the client
      // response cannot carry an EDE about it, so the scan layer counts
      // it instead. Refreshing the verdict extends the hold-down the way
      // Unbound refreshes an infra-cache entry it keeps using.
      add_finding(result.findings, Stage::Transport, Defect::EdnsDegraded,
                  server.to_string() + ":53 answered plain DNS for " +
                      query_desc);
      ++hardening_.edns_degraded_success;
      note_plain_dns(ctx, server);
    }

    // Remember an advertised RFC 9567 reporting agent.
    if (auto agent = edns::get_report_channel(response)) {
      result.report_agent = std::move(agent);
    }

    if (!options_.exhaustive_ns_probing) {
      result.response = std::move(response);
      co_return result;
    }
    if (!first_response) first_response = std::move(response);
  }
  result.response = std::move(first_response);
  if (coalesce && !result.response.has_value()) {
    ctx.coalesced.emplace(
        CoalesceKey{std::move(zone), std::move(qname), qtype, fingerprint},
        result);
  }
  co_return result;
}

sim::Task<std::optional<dns::Message>> RecursiveResolver::query_over_stream(
    ResolutionContext& ctx, sim::NodeAddress server, dns::Name qname,
    dns::RRType qtype, QueryResult& result) {
  ++hardening_.tcp_fallbacks;
  const std::string query_desc =
      qname.to_string() + " " + dns::to_string(qtype);
  using Status = sim::StreamTransport::Status;

  for (int attempt = 0; attempt < profile_.retry.tcp_attempts; ++attempt) {
    if (ctx.budget.attempts_left <= 0 ||
        network_->clock().now_ms() >= ctx.budget.deadline_ms) {
      ++hardening_.watchdog_trips;
      co_return std::nullopt;
    }

    // A fresh connection and a fresh transaction per attempt: reusing the
    // UDP QID across transports would hand an on-path observer of the
    // datagram leg a free forgery key for the stream leg. The per-server
    // EDNS verdict is transport-independent: a server (or middlebox) that
    // chokes on OPT over UDP chokes on it over the stream too, so a
    // plain-DNS downgrade carries into the DoTCP fallback the way BIND's
    // ADB "noedns" flag does. A signed zone behind such a server is
    // unvalidatable by design — no DO bit, no RRSIGs.
    const dns::Message query =
        make_upstream_query(qname, qtype, !plain_dns_only(ctx, server));

    ++result.queries;
    --ctx.budget.attempts_left;

    // One call is the whole connection: the stream transport charges its
    // handshake and exchange round trips to the clock inline (one
    // interleave point per attempt — DESIGN.md §6 documents the coarser
    // granularity); only the timers waited out on a dead path park the
    // coroutine.
    const auto reply = network_->stream().exchange(profile_.source, server,
                                                   arena_.serialize(query));
    const bool refused = reply.status == Status::Refused;
    if (refused || reply.status == Status::SynTimeout ||
        reply.status == Status::Unreachable) {
      ++hardening_.tcp_connect_failures;
      // An RST arrives promptly; a swallowed SYN burns the whole
      // handshake timer first.
      if (!refused) co_await park(ctx, profile_.retry.tcp_connect_timeout_ms);
      infra_.report_failure(server,
                            refused ? InfraCache::FailureKind::Unreachable
                                    : InfraCache::FailureKind::Timeout,
                            network_->clock().now_ms());
      add_finding(result.findings, Stage::Transport, Defect::TcpConnectFailed,
                  server.to_string() + ":53/tcp " +
                      (refused ? "refused the connection"
                               : "connect timed out") +
                      " for " + query_desc);
      continue;
    }

    const auto stream_failed = [&](const std::string& what) {
      ++hardening_.tcp_stream_failures;
      infra_.report_failure(server, InfraCache::FailureKind::Timeout,
                            network_->clock().now_ms());
      add_finding(result.findings, Stage::Transport, Defect::TcpStreamFailed,
                  server.to_string() + ":53/tcp " + what + " for " +
                      query_desc);
    };

    if (reply.status == Status::Stalled) {
      // Accept-then-stall: the read timer runs out with zero bytes.
      co_await park(ctx, profile_.retry.tcp_read_timeout_ms);
      stream_failed("stalled after accepting the query");
      continue;
    }

    sim::FrameAssembler assembler;
    assembler.feed(reply.bytes);
    auto popped = assembler.pop();
    if (popped.status != sim::FrameAssembler::Status::Frame) {
      if (popped.status == sim::FrameAssembler::Status::BadFrame) {
        stream_failed("sent a malformed frame");
      } else if (reply.status == Status::Closed) {
        stream_failed("closed the stream mid-answer");
      } else {
        // An over-declared length prefix: the frame never completes, so
        // the read timer runs out with a partial buffer.
        co_await park(ctx, profile_.retry.tcp_read_timeout_ms);
        stream_failed("never completed the response frame");
      }
      continue;
    }

    auto parsed = dns::Message::parse(popped.frame);
    if (!parsed) {
      stream_failed("sent an unparsable response");
      continue;
    }
    if (!answers_transaction(parsed.value(), query.header.id)) {
      ++hardening_.rejected_qid_mismatch;
      stream_failed("answered a different transaction");
      continue;
    }
    if (parsed.value().header.tc) {
      // TC over a stream is nonsense (RFC 7766 §8): there is no larger
      // transport left to fall back to.
      stream_failed("set TC over the stream");
      continue;
    }
    if (!echoes_question(parsed.value(), qname, qtype)) {
      ++hardening_.rejected_question_mismatch;
      add_finding(result.findings, Stage::Transport,
                  Defect::MismatchedQuestion,
                  "Mismatched question from the authoritative server " +
                      server.to_string() + " (over TCP)");
      continue;
    }

    infra_.report_success(server, reply.rtt_ms);
    ++hardening_.tcp_success;
    co_return std::move(parsed).take();
  }
  co_return std::nullopt;
}

sim::Task<bool> RecursiveResolver::ensure_root_trust(
    ResolutionContext& ctx, std::vector<Finding>& findings) {
  if (root_keys_.has_value()) co_return root_trust_ok_;

  auto qr = co_await query_servers(ctx, dns::Name{}, root_servers_,
                                   dns::Name{}, dns::RRType::DNSKEY);
  for (auto& f : qr.findings) findings.push_back(std::move(f));
  if (!qr.response) {
    add_finding(findings, Stage::Transport, Defect::AllServersUnreachable,
                "no root server reachable");
    root_keys_.emplace();
    root_trust_ok_ = false;
    co_return false;
  }

  const auto rrsets = dns::group_rrsets(qr.response->answer);
  const dns::RRset* dnskey_rrset = nullptr;
  for (const auto& set : rrsets) {
    if (set.type == dns::RRType::DNSKEY) dnskey_rrset = &set;
  }
  const auto sigs = collect_sigs(qr.response->answer);
  const auto trust = dnssec::validate_zone_keys_with_anchor(
      dns::Name{}, trust_anchor_, dnskey_rrset, sigs,
      network_->clock().now(), profile_.validator);
  for (const auto& f : trust.findings) findings.push_back(f);
  root_keys_ = collect_keys(dnskey_rrset);
  root_trust_ok_ = trust.security == Security::Secure;
  co_return root_trust_ok_;
}

sim::Task<std::vector<sim::NodeAddress>> RecursiveResolver::resolve_ns_addresses(
    ResolutionContext& ctx, std::vector<dns::Name> ns_names, int depth,
    std::vector<Finding>& findings, int& upstream_queries) {
  std::vector<sim::NodeAddress> out;
  if (depth >= kMaxNsResolutionDepth) co_return out;
  for (const auto& ns : ns_names) {
    auto sub = co_await resolve_internal(ctx, ns, dns::RRType::A, depth + 1);
    upstream_queries += sub.upstream_queries;
    // Only transport problems of the nameserver resolution are relevant to
    // the original query's diagnosis (the paper's "unreachable DNS
    // provider" cases).
    for (const auto& f : sub.findings) {
      if (f.stage == Stage::Transport) {
        if (std::find(findings.begin(), findings.end(), f) == findings.end())
          findings.push_back(f);
      }
    }
    for (const auto& rr : sub.response.answer) {
      if (const auto* a = std::get_if<dns::ARdata>(&rr.rdata))
        out.emplace_back(a->address);
    }
  }
  co_return out;
}

sim::Task<Outcome> RecursiveResolver::resolve_flow(ResolutionContext& ctx,
                                                   dns::Name qname,
                                                   dns::RRType qtype) {
  // Arm the per-resolution retry/time budget. The wall deadline only bites
  // when the latency model advances the clock; otherwise waits are free
  // and the attempt counter is the effective bound. The coalescing memo
  // lives in ctx, so it is born empty and dies with this resolution (a
  // server dead now may be back later).
  ctx.budget.attempts_left = RetryPolicy::max_total_attempts;
  ctx.budget.deadline_ms =
      network_->clock().now_ms() + RetryPolicy::total_budget_ms;
  Outcome outcome = co_await resolve_internal(ctx, qname, qtype, 0);
  annotate(outcome);

  // RFC 9567 DNS Error Reporting: fire-and-forget a report query for the
  // first emitted error when the failing zone's authority offered an
  // agent. The report travels as a plain resolution (so it benefits from
  // and is rate-limited by the cache); report resolutions themselves never
  // generate further reports.
  if (options_.enable_error_reporting && outcome.report_agent.has_value() &&
      !outcome.errors.empty()) {
    const auto report_qname =
        edns::make_report_qname(qname, qtype, outcome.errors.front().code,
                                *outcome.report_agent);
    if (report_qname.has_value()) {
      const std::string key = report_qname->to_string();
      if (reports_sent_.insert(key).second) {
        auto report =
            co_await resolve_internal(ctx, *report_qname, dns::RRType::TXT, 1);
        outcome.upstream_queries += report.upstream_queries;
        outcome.report_sent = *report_qname;
      }
    }
  }
  co_return outcome;
}

Outcome RecursiveResolver::resolve(const dns::Name& qname, dns::RRType qtype) {
  Outcome result;
  (void)resolve_many({{qname, qtype}}, 1,
                     [&result](std::size_t, Outcome&& outcome) {
                       result = std::move(outcome);
                     });
  return result;
}

sim::Task<void> RecursiveResolver::run_job(
    sim::EventScheduler& sched, ResolveJob job, ResolutionId id,
    std::function<void(sim::SimTimeMs, Outcome&&)> record) {
  // The context lives in this wrapper's own frame: child coroutines hold
  // a reference to it across suspensions, so it needs a stable address
  // for the resolution's whole lifetime (a container slot would move).
  // This owner-frame discipline is what the C1 allowlist entries in
  // tools/ede_lint.conf rely on — children are always co_awaited, and
  // these top-level frames are held in resolve_many's slots until join.
  ResolutionContext ctx;
  ctx.sched = &sched;
  ctx.id = id;
  ctx.refresh = job.refresh;
  const sim::SimTimeMs started_ms = network_->clock().now_ms();
  Outcome outcome = co_await resolve_flow(ctx, std::move(job.qname), job.qtype);
  record(network_->clock().now_ms() - started_ms, std::move(outcome));
}

EngineReport RecursiveResolver::resolve_many(
    const std::vector<ResolveJob>& jobs, std::size_t inflight,
    const std::function<void(std::size_t, Outcome&&)>& on_done) {
  EngineReport report;
  if (jobs.empty()) return report;
  report.job_duration_ms.assign(jobs.size(), 0);
  const std::size_t window = std::min(std::max<std::size_t>(inflight, 1),
                                      jobs.size());

  sim::EventScheduler sched(network_->clock());
  const sim::SimTimeMs epoch = network_->clock().now_ms();
  const std::uint64_t batch_first = next_resolution_id_;

  // Admission-slot model: `window` slots, each chaining resolutions
  // back-to-back on its own virtual timeline starting at the batch epoch.
  // Every admitted job has its timeline rebased to the epoch, so TTL and
  // hold-down arithmetic matches a serial run of the same batch; the
  // wall-clock win is that one worker interleaves all slots' waits.
  struct Completion {
    std::size_t slot = 0;
    std::size_t index = 0;
    sim::SimTimeMs duration_ms = 0;
    Outcome outcome;
  };
  std::vector<Completion> completions;
  std::vector<sim::Task<void>> slots(window);
  std::vector<std::size_t> free_slots(window);
  for (std::size_t s = 0; s < window; ++s) free_slots[s] = window - 1 - s;
  // Virtual-time accounting lanes, deliberately decoupled from the
  // coroutine slots above. Epoch rebasing makes a freshly admitted job's
  // events fire before every parked job's, so in the steady state one
  // physical slot frees and churns through most of the batch — which slot
  // hosted a job says nothing about the batch's virtual schedule. Each
  // completed resolution's duration is instead charged to the currently
  // least-loaded of `window` lanes (list scheduling in completion order):
  // that is literally the documented model — `inflight` lanes chaining
  // resolutions back-to-back, the batch taking as long as its busiest
  // lane. Heap ties break on lane index, so the schedule is deterministic.
  using Lane = std::pair<sim::SimTimeMs, std::size_t>;
  std::priority_queue<Lane, std::vector<Lane>, std::greater<>> lanes;
  for (std::size_t lane = 0; lane < window; ++lane) lanes.push({0, lane});
  std::size_t next = 0;
  std::size_t active = 0;

  const auto admit = [&](std::size_t slot, std::size_t index) {
    network_->clock().set_ms(epoch);  // rebase this resolution's timeline
    slots[slot] = run_job(
        sched, jobs[index], {next_resolution_id_++, batch_first},
        [&completions, slot, index](sim::SimTimeMs duration_ms,
                                    Outcome&& outcome) {
          completions.push_back(
              {slot, index, duration_ms, std::move(outcome)});
        });
    slots[slot].start();
    ++active;
  };
  const auto drain = [&]() {
    // Completion order is delivery order; the freed slot chains its next
    // admission after the finished resolution's duration.
    for (auto& done : completions) {
      auto [load, lane] = lanes.top();
      lanes.pop();
      lanes.push({load + done.duration_ms, lane});
      report.longest_job_ms = std::max(report.longest_job_ms,
                                       done.duration_ms);
      report.total_virtual_ms += done.duration_ms;
      report.job_duration_ms[done.index] = done.duration_ms;
      slots[done.slot] = sim::Task<void>{};
      free_slots.push_back(done.slot);
      --active;
      if (on_done) on_done(done.index, std::move(done.outcome));
    }
    completions.clear();
  };

  while (true) {
    while (next < jobs.size() && !free_slots.empty()) {
      const std::size_t slot = free_slots.back();
      free_slots.pop_back();
      admit(slot, next++);
      // Measure the high-water mark after draining: a resolution that
      // completed synchronously inside start() (pure cache hit) was never
      // really in flight alongside the next admission.
      drain();
      report.max_in_flight = std::max(report.max_in_flight, active);
    }
    if (active == 0 && next >= jobs.size()) break;
    if (!sched.run_one()) break;  // defensive: active jobs always park
    drain();
  }

  // The makespan is the busiest lane's accumulated load — with the heap
  // holding window entries, the maximum is whatever ends up deepest.
  while (!lanes.empty()) {
    report.makespan_ms = std::max(report.makespan_ms, lanes.top().first);
    lanes.pop();
  }
  // Leave the shared clock where a serial back-to-back run of the busiest
  // slot would have left it.
  network_->clock().set_ms(epoch + report.makespan_ms);
  return report;
}

bool RecursiveResolver::answer_stale(Outcome& outcome, const dns::Name& qname,
                                     dns::RRType qtype, sim::SimTime now) {
  if (!options_.serve_stale) return false;
  if (const auto* stale = cache_.get_stale_positive(qname, qtype, now)) {
    add_finding(outcome.findings, Stage::Cache, Defect::StaleAnswerServed,
                "answer served from cache past TTL expiry");
    for (auto& rr : stale->rrset.to_records())
      outcome.response.answer.push_back(std::move(rr));
    outcome.rcode = dns::RCode::NOERROR;
    outcome.security = stale->security;
    return true;
  }
  const auto* stale = cache_.get_stale_negative(qname, qtype, now);
  if (stale == nullptr || !stale->nxdomain) return false;
  add_finding(outcome.findings, Stage::Cache, Defect::StaleNxdomainServed,
              "NXDOMAIN served from cache past TTL expiry");
  outcome.rcode = dns::RCode::NXDOMAIN;
  outcome.security = stale->security;
  return true;
}

sim::Task<Outcome> RecursiveResolver::resolve_internal(ResolutionContext& ctx,
                                                       dns::Name qname,
                                                       dns::RRType qtype,
                                                       int depth) {
  Outcome outcome;
  outcome.response = dns::make_query(next_id_++, qname, qtype);
  outcome.response.header.qr = true;
  outcome.response.header.ra = true;
  const sim::SimTime now = network_->clock().now();

  const auto finish = [&](dns::RCode rcode, Security security) -> Outcome {
    outcome.rcode = rcode;
    outcome.security = security;
    outcome.response.header.rcode = rcode;
    outcome.response.header.ad = (security == Security::Secure);
    return std::move(outcome);
  };

  // --- local response policy (RPZ-style, EDE 15/16/17) -----------------
  for (const auto& rule : options_.policy) {
    if (!qname.is_subdomain_of(rule.suffix)) continue;
    const Defect defect = rule.action == PolicyAction::Block
                              ? Defect::QueryBlocked
                          : rule.action == PolicyAction::Censor
                              ? Defect::QueryCensored
                              : Defect::QueryFiltered;
    add_finding(outcome.findings, Stage::Policy, defect,
                rule.reason.empty() ? "blocked by local policy"
                                    : rule.reason);
    co_return finish(dns::RCode::NXDOMAIN, Security::Indeterminate);
  }

  // --- cache lookups ---------------------------------------------------
  if (const auto* sf = cache_.get_servfail(qname, qtype, now)) {
    ++hardening_.servfail_cache_hits;
    // A live cached SERVFAIL is a hold-down, not a verdict: with
    // serve-stale on, an expired-but-usable answer still beats repeating
    // the cached failure (RFC 8767 §5 — stale data is preferable to an
    // error), so the client sees EDE 3/19 with the original outage
    // diagnosis attached rather than EDE 13.
    outcome.findings = sf->findings;
    if (answer_stale(outcome, qname, qtype, now))
      co_return finish(outcome.rcode, outcome.security);
    add_finding(outcome.findings, Stage::Cache, Defect::CachedServfail,
                "SERVFAIL served from cache for " + qname.to_string());
    co_return finish(dns::RCode::SERVFAIL, Security::Indeterminate);
  }
  // Prefetch refresh jobs bypass the fresh read at the top level: the
  // whole point is to re-fetch an expiring answer early and re-cache it
  // with a new TTL. Sub-resolutions (depth > 0) keep the full cache path.
  const bool bypass_fresh = ctx.refresh && depth == 0;
  if (!bypass_fresh) {
    if (const auto* pos = cache_.get_positive(qname, qtype, now)) {
      for (auto& rr : pos->rrset.to_records())
        outcome.response.answer.push_back(std::move(rr));
      for (const auto& sig : pos->signatures) {
        outcome.response.answer.push_back({qname, dns::RRType::RRSIG,
                                           dns::RRClass::IN, pos->rrset.ttl,
                                           dns::Rdata{sig}});
      }
      co_return finish(dns::RCode::NOERROR, pos->security);
    }
    if (const auto* neg = cache_.get_negative(qname, qtype, now)) {
      co_return finish(neg->nxdomain ? dns::RCode::NXDOMAIN
                                     : dns::RCode::NOERROR,
                       neg->security);
    }
    if (options_.aggressive_nsec_caching && !denial_cache_.empty()) {
      // Walk qname's cached ancestor zones root first (by label count)
      // and use the live proofs this resolution may see.
      for (std::size_t labels = 0; labels <= qname.label_count(); ++labels) {
        const auto cached = denial_cache_.find(qname.suffix(labels));
        if (cached == denial_cache_.end()) continue;
        const auto& [zone, ranges] = *cached;
        for (const auto& range : ranges) {
          if (range.expires < now || !ctx.id.sees(range.writer)) continue;
          bool nxdomain = false;
          bool nodata = false;
          if (range.nsec3) {
            const auto hash = dnssec::nsec3_hash(
                qname, crypto::BytesView{range.salt}, range.iterations);
            if (hash == range.owner_hash) {
              nodata = !range.types.contains(qtype) &&
                       !range.types.contains(dns::RRType::CNAME);
            } else {
              nxdomain = dnssec::nsec3_covers(range.owner_hash,
                                              range.next_hash, hash);
            }
          } else {
            if (range.owner == qname) {
              nodata = !range.types.contains(qtype) &&
                       !range.types.contains(dns::RRType::CNAME);
            } else {
              nxdomain = dnssec::nsec_covers(range.owner, range.next, qname);
            }
          }
          if (!nxdomain && !nodata) continue;
          // The synthesized negative inherits the proof's SOA-bounded
          // lifetime — never a fresh negative-TTL window of its own.
          cache_.put_negative(qname, qtype,
                              {nxdomain, Security::Secure, range.expires},
                              now);
          add_finding(outcome.findings, Stage::Cache,
                      Defect::AnswerSynthesized,
                      std::string{nxdomain ? "NXDOMAIN" : "NODATA"} +
                          " synthesized from a cached " +
                          (range.nsec3 ? "NSEC3" : "NSEC") + " range in " +
                          zone.to_string());
          co_return finish(nxdomain ? dns::RCode::NXDOMAIN
                                    : dns::RCode::NOERROR,
                           Security::Secure);
        }
      }
    }
  }

  // --- total-failure path (shared by several exits) ---------------------
  const auto fail_with_stale = [&]() -> Outcome {
    add_finding(outcome.findings, Stage::Transport,
                Defect::AllServersUnreachable,
                "no authoritative server produced an answer for " +
                    qname.to_string());
    if (answer_stale(outcome, qname, qtype, now))
      return finish(outcome.rcode, outcome.security);
    cache_.put_servfail(qname, qtype, {outcome.findings, now + kServfailTtl},
                        now);
    return finish(dns::RCode::SERVFAIL, Security::Indeterminate);
  };

  const auto fail_bogus = [&]() -> Outcome {
    cache_.put_servfail(qname, qtype, {outcome.findings, now + kServfailTtl},
                        now);
    return finish(dns::RCode::SERVFAIL, Security::Bogus);
  };

  // --- establish the root context ---------------------------------------
  const bool root_secure = co_await ensure_root_trust(ctx, outcome.findings);
  if (!root_secure) {
    // With a configured trust anchor, an unvalidatable root is fatal:
    // either the root servers were unreachable or their keys were bogus.
    if (root_keys_->empty()) co_return fail_with_stale();
    co_return fail_bogus();
  }

  dns::Name current_zone;
  std::vector<sim::NodeAddress> servers;
  std::vector<dns::DnskeyRdata> zone_keys;
  bool secure = root_secure;
  // QNAME minimization state: how many labels of `target` the next query
  // may reveal (RFC 9156: one more than the zone we are asking).
  std::size_t min_labels = 1;

  // Start a descent towards `name` from the deepest cached zone context
  // (infrastructure caching: the healthy upper levels are only walked once
  // per TTL), or from the root.
  const auto seed_context = [&](const dns::Name& name) {
    const ZoneContext* cached = nullptr;
    dns::Name probe = name;
    while (cache_.options().enabled) {
      const auto it = zone_cache_.find(probe);
      if (it != zone_cache_.end() && it->second.expires >= now) {
        cached = &it->second;
        break;
      }
      if (probe.is_root()) break;
      probe = probe.parent();
    }
    if (cached != nullptr) {
      current_zone = std::move(probe);
      servers = cached->servers;
      zone_keys = cached->keys;
      secure = cached->secure;
    } else {
      current_zone = dns::Name{};
      servers = root_servers_;
      zone_keys = *root_keys_;
      secure = root_secure;
    }
    min_labels = current_zone.label_count() + 1;
  };

  dns::Name target = qname;
  seed_context(target);
  int cname_hops = 0;

  for (int hop = 0; hop < kMaxReferrals; ++hop) {
    dns::Name query_name = target;
    dns::RRType query_type = qtype;
    if (options_.qname_minimization) {
      query_name = target.suffix(min_labels);
      if (!(query_name == target)) query_type = dns::RRType::NS;
    }

    auto qr = co_await query_servers(ctx, current_zone, servers, query_name,
                                     query_type);
    outcome.upstream_queries += qr.queries;
    outcome.trace.push_back({current_zone, query_name, query_type, ""});
    auto& step = outcome.trace.back();
    if (qr.report_agent.has_value()) outcome.report_agent = qr.report_agent;
    for (auto& f : qr.findings) {
      if (std::find(outcome.findings.begin(), outcome.findings.end(), f) ==
          outcome.findings.end())
        outcome.findings.push_back(std::move(f));
    }
    if (!qr.response) {
      step.note = "no usable response from any server";
      co_return fail_with_stale();
    }
    dns::Message response = std::move(*qr.response);

    // ----- minimized intermediate answers --------------------------------
    if (options_.qname_minimization && !(query_name == target) &&
        referral_child(response, current_zone, query_name) == std::nullopt) {
      if (response.header.rcode == dns::RCode::NXDOMAIN) {
        // An ancestor of the target does not exist, so the target cannot
        // either (RFC 8020); validate the proof against the ancestor name.
        Security security = Security::Insecure;
        if (secure) {
          const auto denial = dnssec::validate_negative_response(
              query_name, query_type, current_zone,
              dns::group_rrsets(response.authority), zone_keys, now,
              profile_.validator);
          for (const auto& f : denial.findings)
            outcome.findings.push_back(f);
          if (denial.security == Security::Bogus) co_return fail_bogus();
          security = denial.security;
        }
        cache_.put_negative(query_name, query_type,
                            {true, security, now + negative_ttl(response)},
                            now);
        outcome.response.authority = response.authority;
        co_return finish(dns::RCode::NXDOMAIN, security);
      }
      // NOERROR (empty non-terminal or an in-zone node): reveal one more
      // label and continue against the same zone.
      ++min_labels;
      continue;
    }

    // ----- referral ----------------------------------------------------
    if (const auto child =
            referral_child(response, current_zone, query_name)) {
      const auto authority_sets = dns::group_rrsets(response.authority);
      const auto authority_sigs = collect_sigs(response.authority);

      const dns::RRset* ds_rrset = nullptr;
      for (const auto& set : authority_sets) {
        if (set.type == dns::RRType::DS && set.name == *child)
          ds_rrset = &set;
      }

      bool child_secure = false;
      std::vector<dns::DsRdata> ds_set;
      if (secure) {
        if (ds_rrset != nullptr) {
          const auto ds_check = dnssec::validate_answer_rrset(
              *ds_rrset, authority_sigs, current_zone, zone_keys, now,
              profile_.validator);
          if (ds_check.security != Security::Secure) {
            for (const auto& f : ds_check.findings)
              outcome.findings.push_back(f);
            co_return fail_bogus();
          }
          for (const auto& rd : ds_rrset->rdatas) {
            if (const auto* ds = std::get_if<dns::DsRdata>(&rd))
              ds_set.push_back(*ds);
          }
          child_secure = true;  // provisional, pending DNSKEY validation
        } else {
          const auto absence = dnssec::validate_ds_absence(
              *child, current_zone, authority_sets, zone_keys, now,
              profile_.validator);
          if (absence.security == Security::Bogus) {
            for (const auto& f : absence.findings)
              outcome.findings.push_back(f);
            co_return fail_bogus();
          }
          child_secure = false;  // proven insecure delegation
        }
      }

      // Server addresses: glue first, full resolution as fallback.
      const auto targets = ns_targets(response, *child);
      auto child_servers = glue_addresses(response, targets);
      if (child_servers.empty()) {
        child_servers = co_await resolve_ns_addresses(
            ctx, targets, depth, outcome.findings, outcome.upstream_queries);
      }
      if (child_servers.empty()) co_return fail_with_stale();

      std::vector<dns::DnskeyRdata> child_keys;
      if (child_secure) {
        auto key_qr = co_await query_servers(ctx, *child, child_servers,
                                             *child, dns::RRType::DNSKEY);
        outcome.upstream_queries += key_qr.queries;
        if (key_qr.report_agent.has_value())
          outcome.report_agent = key_qr.report_agent;
        for (auto& f : key_qr.findings) {
          if (std::find(outcome.findings.begin(), outcome.findings.end(),
                        f) == outcome.findings.end())
            outcome.findings.push_back(std::move(f));
        }
        if (!key_qr.response) {
          add_finding(outcome.findings, Stage::DnskeyTrust,
                      Defect::DnskeyFetchFailed,
                      "could not obtain the DNSKEY RRset for " +
                          child->to_string());
          co_return fail_with_stale();
        }
        const auto key_sets = dns::group_rrsets(key_qr.response->answer);
        const dns::RRset* dnskey_rrset = nullptr;
        for (const auto& set : key_sets) {
          if (set.type == dns::RRType::DNSKEY && set.name == *child)
            dnskey_rrset = &set;
        }
        const auto key_sigs = collect_sigs(key_qr.response->answer);
        const auto trust = dnssec::validate_zone_keys(
            *child, ds_set, dnskey_rrset, key_sigs, now, profile_.validator);
        for (const auto& f : trust.findings) outcome.findings.push_back(f);
        if (trust.security == Security::Bogus) co_return fail_bogus();
        child_secure = trust.security == Security::Secure;
        child_keys = collect_keys(dnskey_rrset);
      }

      step.note = "referral to " + child->to_string();
      current_zone = *child;
      min_labels = current_zone.label_count() + 1;
      servers = std::move(child_servers);
      zone_keys = std::move(child_keys);
      secure = child_secure;
      if (cache_.options().enabled) {
        zone_cache_[current_zone] =
            ZoneContext{servers, zone_keys, secure, now + 3600};
      }
      continue;
    }

    // ----- negative answer ----------------------------------------------
    const bool nodata = response.header.rcode == dns::RCode::NOERROR &&
                        response.answer.empty();
    if (response.header.rcode == dns::RCode::NXDOMAIN || nodata) {
      step.note = nodata ? "NODATA" : "NXDOMAIN";
      Security security = Security::Insecure;
      if (secure) {
        const auto denial = dnssec::validate_negative_response(
            target, qtype, current_zone,
            dns::group_rrsets(response.authority), zone_keys, now,
            profile_.validator);
        for (const auto& f : denial.findings) outcome.findings.push_back(f);
        if (denial.security == Security::Bogus) co_return fail_bogus();
        security = denial.security;
      }
      const bool nxdomain = response.header.rcode == dns::RCode::NXDOMAIN;
      cache_.put_negative(target, qtype,
                          {nxdomain, security, now + negative_ttl(response)},
                          now);
      if (options_.aggressive_nsec_caching &&
          security == Security::Secure && cache_.options().enabled) {
        // Capture the validated proof spans for RFC 8198 synthesis. The
        // lifetime is SOA-bounded exactly like the negative entry above.
        const auto is_wildcard = [](const dns::Name& name) {
          return !name.is_root() && name.label(0) == "*";
        };
        auto& ranges = denial_cache_[current_zone];
        const sim::SimTime proof_expires = now + negative_ttl(response);
        for (const auto& rr : response.authority) {
          if (ranges.size() > 10'000) ranges.clear();  // bound memory
          if (const auto* n3 = std::get_if<dns::Nsec3Rdata>(&rr.rdata)) {
            if (rr.name.is_root()) continue;
            // Opt-out spans may hide unsigned delegations (RFC 5155 §6):
            // they prove nothing about plain nonexistence, so they are
            // useless for synthesis.
            if ((n3->flags & 0x01) != 0) continue;
            const auto owner_hash =
                crypto::from_base32hex(rr.name.labels().front());
            if (!owner_hash) continue;
            DenialRange range;
            range.nsec3 = true;
            range.owner_hash = *owner_hash;
            range.next_hash = n3->next_hashed_owner;
            range.salt = n3->salt;
            range.iterations = n3->iterations;
            range.types = n3->types;
            range.writer = ctx.id.self;
            range.expires = proof_expires;
            ranges.push_back(std::move(range));
          } else if (const auto* ns = std::get_if<dns::NsecRdata>(&rr.rdata)) {
            // A span whose endpoint is a wildcard owner proves facts about
            // wildcard expansion, not nonexistence — synthesizing NXDOMAIN
            // across it would deny names the wildcard answers.
            if (is_wildcard(rr.name) || is_wildcard(ns->next_domain))
              continue;
            DenialRange range;
            range.nsec3 = false;
            range.owner = rr.name;
            range.next = ns->next_domain;
            range.types = ns->types;
            range.writer = ctx.id.self;
            range.expires = proof_expires;
            ranges.push_back(std::move(range));
          }
        }
      }
      outcome.response.authority = response.authority;
      co_return finish(response.header.rcode, security);
    }

    // ----- answer ---------------------------------------------------------
    const auto answer_sets = dns::group_rrsets(response.answer);
    const auto answer_sigs = collect_sigs(response.answer);

    const dns::RRset* rrset = nullptr;
    const dns::RRset* cname = nullptr;
    for (const auto& set : answer_sets) {
      if (!(set.name == target)) continue;
      if (set.type == qtype) rrset = &set;
      if (set.type == dns::RRType::CNAME) cname = &set;
    }

    if (rrset == nullptr && cname != nullptr && qtype != dns::RRType::CNAME) {
      step.note = "CNAME";
      if (++cname_hops > kMaxCnameChain) break;  // the iteration-limit exit
      if (secure) {
        const auto check = dnssec::validate_answer_rrset(
            *cname, answer_sigs, current_zone, zone_keys, now,
            profile_.validator);
        for (const auto& f : check.findings) outcome.findings.push_back(f);
        if (check.security == Security::Bogus) co_return fail_bogus();
      }
      for (auto& rr : cname->to_records())
        outcome.response.answer.push_back(std::move(rr));
      // Restart from the root (or the deepest cached context) for the
      // canonical name.
      target = std::get<dns::CnameRdata>(cname->rdatas.front()).target;
      seed_context(target);
      continue;
    }

    if (rrset == nullptr) {
      // The server answered something unrelated: treat as lame.
      add_finding(outcome.findings, Stage::Transport, Defect::ServerNotAuth,
                  "authority returned an unusable answer for " +
                      target.to_string());
      co_return fail_with_stale();
    }

    step.note = "answer";
    Security security = Security::Insecure;
    if (secure) {
      const auto check = dnssec::validate_answer_rrset(
          *rrset, answer_sigs, current_zone, zone_keys, now,
          profile_.validator);
      for (const auto& f : check.findings) outcome.findings.push_back(f);
      if (check.security == Security::Bogus) co_return fail_bogus();
      security = check.security;
    }

    std::vector<dns::RrsigRdata> rrset_sigs;
    for (const auto& sig : answer_sigs) {
      if (sig.type_covered == qtype) rrset_sigs.push_back(sig);
    }
    cache_.put_positive({*rrset, rrset_sigs, security, now + rrset->ttl},
                        now);

    for (auto& rr : rrset->to_records())
      outcome.response.answer.push_back(std::move(rr));
    for (const auto& sig : rrset_sigs) {
      outcome.response.answer.push_back({rrset->name, dns::RRType::RRSIG,
                                         dns::RRClass::IN, rrset->ttl,
                                         dns::Rdata{sig}});
    }
    co_return finish(dns::RCode::NOERROR, security);
  }

  add_finding(outcome.findings, Stage::Transport,
              Defect::IterationLimitExceeded, "iteration limit exceeded");
  cache_.put_servfail(qname, qtype, {outcome.findings, now + kServfailTtl},
                      now);
  co_return finish(dns::RCode::SERVFAIL, Security::Indeterminate);
}

void RecursiveResolver::annotate(Outcome& outcome) const {
  for (const auto& finding : outcome.findings) {
    const auto error = profile_.ede_for(finding);
    if (!error) continue;
    const bool duplicate = std::any_of(
        outcome.errors.begin(), outcome.errors.end(),
        [&](const edns::ExtendedError& e) { return e.code == error->code; });
    if (duplicate) continue;
    outcome.errors.push_back(*error);
    edns::add_extended_error(outcome.response, *error);
  }
}

}  // namespace ede::resolver
