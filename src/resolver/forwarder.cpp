#include "resolver/forwarder.hpp"

#include "dnscore/arena.hpp"
#include "edns/ede.hpp"
#include "edns/edns.hpp"
#include "resolver/resolver.hpp"

namespace ede::resolver {

Forwarder::Forwarder(std::shared_ptr<sim::Network> network,
                     sim::NodeAddress source,
                     std::vector<sim::NodeAddress> upstreams,
                     ForwarderOptions options)
    : network_(std::move(network)),
      source_(source),
      upstreams_(std::move(upstreams)),
      options_(options),
      cache_(options.cache) {}

dns::Message Forwarder::handle(const dns::Message& query) {
  dns::Message response;
  response.header.id = query.header.id;
  response.header.qr = true;
  response.header.ra = true;
  response.header.rd = query.header.rd;
  response.question = query.question;

  if (query.question.empty()) {
    response.header.rcode = dns::RCode::FORMERR;
    return response;
  }
  if (!query.header.rd) {
    response.header.rcode = dns::RCode::REFUSED;
    return response;
  }

  const auto& q = query.question.front();
  const auto now = network_->clock().now();

  // Local cache first.
  if (const auto* hit = cache_.get_positive(q.qname, q.qtype, now)) {
    for (auto& rr : hit->rrset.to_records())
      response.answer.push_back(std::move(rr));
    for (const auto& sig : hit->signatures) {
      response.answer.push_back({q.qname, dns::RRType::RRSIG,
                                 dns::RRClass::IN, hit->rrset.ttl,
                                 dns::Rdata{sig}});
    }
    response.header.ad = hit->security == dnssec::Security::Secure;
    return response;
  }
  if (cache_.get_servfail(q.qname, q.qtype, now) != nullptr) {
    response.header.rcode = dns::RCode::SERVFAIL;
    edns::add_extended_error(
        response, {edns::EdeCode::CachedError,
                   "SERVFAIL served from the forwarder cache"});
    return response;
  }

  // Ask the upstreams, retransmitting on the policy's backoff schedule —
  // this is what rides out probabilistic loss on the upstream path.
  std::optional<dns::Message> upstream_answer;
  for (const auto& upstream : upstreams_) {
    std::uint32_t timeout_ms = options_.retry.initial_timeout_ms;
    for (int attempt = 0;
         attempt < options_.retry.attempts_per_server &&
         !upstream_answer.has_value();
         ++attempt) {
      dns::Message upstream_query =
          dns::make_query(next_id_++, q.qname, q.qtype,
                          /*recursion_desired=*/true);
      edns::Edns e;
      e.dnssec_ok = true;
      edns::set_edns(upstream_query, e);

      // send() charges no time; the forwarder is not multiplexed, so it
      // waits out the round trip inline.
      const auto sent = network_->send(source_, upstream,
                                       arena_.serialize(upstream_query),
                                       /*retransmission=*/attempt > 0);
      if (sent.status != sim::SendStatus::Timeout) {
        network_->wait_ms(sent.rtt_ms);
      }
      if (sent.status == sim::SendStatus::Unreachable) break;
      if (sent.status == sim::SendStatus::Timeout) {
        network_->wait_ms(timeout_ms);
        timeout_ms = options_.retry.next_timeout(timeout_ms);
        continue;
      }
      auto parsed = dns::Message::parse(sent.response);
      if (!parsed.ok()) {
        network_->wait_ms(timeout_ms);
        timeout_ms = options_.retry.next_timeout(timeout_ms);
        continue;
      }
      upstream_answer = std::move(parsed).take();
    }
    if (upstream_answer.has_value()) break;
  }
  if (upstream_answer.has_value()) {
    const dns::Message upstream_response = std::move(*upstream_answer);

    response.header.rcode = upstream_response.header.rcode;
    response.header.ad = upstream_response.header.ad;
    response.answer = upstream_response.answer;
    response.authority = upstream_response.authority;

    // RFC 8914 §3: a forwarder forwards the extended errors it received.
    if (options_.forward_extended_errors) {
      for (const auto& error :
           edns::get_extended_errors(upstream_response)) {
        edns::add_extended_error(response, error);
      }
    }

    // Cache what we can.
    if (response.header.rcode == dns::RCode::NOERROR &&
        !response.answer.empty()) {
      PositiveEntry entry;
      const auto rrsets = dns::group_rrsets(response.answer);
      for (const auto& set : rrsets) {
        if (set.type == q.qtype && set.name == q.qname) {
          entry.rrset = set;
        } else if (set.type == dns::RRType::RRSIG) {
          for (const auto& rd : set.rdatas) {
            if (const auto* sig = std::get_if<dns::RrsigRdata>(&rd))
              entry.signatures.push_back(*sig);
          }
        }
      }
      if (!entry.rrset.rdatas.empty()) {
        entry.security = upstream_response.header.ad
                             ? dnssec::Security::Secure
                             : dnssec::Security::Insecure;
        entry.expires = now + entry.rrset.ttl;
        cache_.put_positive(std::move(entry), now);
      }
    } else if (response.header.rcode == dns::RCode::SERVFAIL) {
      cache_.put_servfail(q.qname, q.qtype, {{}, now + kServfailTtl}, now);
    }
    return response;
  }

  // No upstream reachable: stale service or an honest failure report.
  if (options_.serve_stale) {
    if (const auto* stale = cache_.get_stale_positive(q.qname, q.qtype, now)) {
      for (auto& rr : stale->rrset.to_records())
        response.answer.push_back(std::move(rr));
      edns::add_extended_error(
          response, {edns::EdeCode::StaleAnswer,
                     "upstream unreachable; answer served past TTL"});
      return response;
    }
  }
  response.header.rcode = dns::RCode::SERVFAIL;
  edns::add_extended_error(response,
                           {edns::EdeCode::NoReachableAuthority,
                            "no upstream resolver reachable"});
  return response;
}

sim::Endpoint Forwarder::endpoint() {
  return [this](crypto::BytesView wire,
                const sim::PacketContext&) -> std::optional<crypto::Bytes> {
    if (!arena_.parse(wire)) return std::nullopt;
    return arena_.serialize_copy(handle(arena_.message()));
  };
}

sim::Endpoint make_resolver_endpoint(
    std::shared_ptr<RecursiveResolver> resolver) {
  // The arena rides in the closure: the resolver serializes its own
  // upstream queries through a separate arena, so the scratch query here
  // stays intact across resolve().
  return [resolver, arena = std::make_shared<dns::MessageArena>()](
             crypto::BytesView wire,
             const sim::PacketContext&) -> std::optional<crypto::Bytes> {
    if (!arena->parse(wire)) return std::nullopt;
    const dns::Message& query = arena->message();

    if (query.question.empty()) {
      dns::Message formerr;
      formerr.header.id = query.header.id;
      formerr.header.qr = true;
      formerr.header.rcode = dns::RCode::FORMERR;
      return arena->serialize_copy(formerr);
    }
    if (!query.header.rd) {
      dns::Message refused;
      refused.header.id = query.header.id;
      refused.header.qr = true;
      refused.question = query.question;
      refused.header.rcode = dns::RCode::REFUSED;
      return arena->serialize_copy(refused);
    }

    const auto& q = query.question.front();
    auto outcome = resolver->resolve(q.qname, q.qtype);
    outcome.response.header.id = query.header.id;
    outcome.response.header.rd = true;
    outcome.response.question = query.question;
    return arena->serialize_copy(outcome.response);
  };
}

}  // namespace ede::resolver
