#include "server/auth_server.hpp"

#include <algorithm>

#include "crypto/encoding.hpp"
#include "dnssec/nsec3.hpp"
#include "edns/edns.hpp"
#include "edns/report_channel.hpp"

namespace ede::server {

namespace {

void append_rrset(std::vector<dns::ResourceRecord>& section,
                  const dns::RRset& set) {
  for (auto& rr : set.to_records()) section.push_back(std::move(rr));
}

void append_signatures(std::vector<dns::ResourceRecord>& section,
                       const zone::Zone& zone, const dns::Name& name,
                       dns::RRType covered) {
  for (const auto& sig : zone.signatures(name, covered)) {
    section.push_back({name, dns::RRType::RRSIG, dns::RRClass::IN,
                       zone.default_ttl(), dns::Rdata{sig}});
  }
}

struct Nsec3Entry {
  dns::Name owner;
  crypto::Bytes hash;
};

/// All NSEC3 records in the zone, sorted by their owner-name hash.
std::vector<Nsec3Entry> nsec3_chain(const zone::Zone& zone) {
  std::vector<Nsec3Entry> chain;
  for (const auto& name : zone.names()) {
    if (zone.find(name, dns::RRType::NSEC3) == nullptr) continue;
    if (name.is_root()) continue;
    const auto hash = crypto::from_base32hex(name.labels().front());
    if (!hash) continue;
    chain.push_back({name, *hash});
  }
  std::sort(chain.begin(), chain.end(),
            [](const Nsec3Entry& a, const Nsec3Entry& b) {
              return a.hash < b.hash;
            });
  return chain;
}

const dns::Nsec3ParamRdata* find_param(const zone::Zone& zone) {
  const auto* set = zone.find(zone.origin(), dns::RRType::NSEC3PARAM);
  if (set == nullptr) return nullptr;
  for (const auto& rd : set->rdatas) {
    if (const auto* p = std::get_if<dns::Nsec3ParamRdata>(&rd)) return p;
  }
  return nullptr;
}

/// Owner names of the zone's flat NSEC chain, in canonical order.
std::vector<dns::Name> nsec_chain(const zone::Zone& zone) {
  std::vector<dns::Name> chain;
  for (const auto& name : zone.names()) {
    if (zone.find(name, dns::RRType::NSEC) != nullptr) chain.push_back(name);
  }
  return chain;  // zone.names() is already canonical order
}

/// Exact match or canonical-order predecessor (wrapping), mirroring
/// select_nsec3 for the flat chain.
const dns::Name* select_nsec(const std::vector<dns::Name>& chain,
                             const dns::Name& target) {
  if (chain.empty()) return nullptr;
  const dns::Name* predecessor = &chain.back();
  for (const auto& owner : chain) {
    const auto order = owner.canonical_compare(target);
    if (order == std::strong_ordering::equal) return &owner;
    if (order == std::strong_ordering::less) predecessor = &owner;
  }
  return predecessor;
}

/// Select the NSEC3 record proving something about `target`: the exact
/// match if the chain has one, otherwise the positional predecessor —
/// which is how real servers select covering records, and which keeps
/// returning *some* record even when a zone's chain has been corrupted
/// (the resolver is the one that must notice).
const Nsec3Entry* select_nsec3(const std::vector<Nsec3Entry>& chain,
                               const crypto::Bytes& target_hash) {
  if (chain.empty()) return nullptr;
  const Nsec3Entry* predecessor = &chain.back();  // wrap-around default
  for (const auto& entry : chain) {
    if (entry.hash == target_hash) return &entry;
    if (entry.hash < target_hash) predecessor = &entry;
  }
  return predecessor;
}

}  // namespace

void AuthServer::add_zone(std::shared_ptr<const zone::Zone> zone) {
  zones_.push_back(std::move(zone));
}

const zone::Zone* AuthServer::zone_for(const dns::Name& qname) const {
  const zone::Zone* best = nullptr;
  for (const auto& z : zones_) {
    if (!qname.is_subdomain_of(z->origin())) continue;
    if (best == nullptr ||
        z->origin().label_count() > best->origin().label_count()) {
      best = z.get();
    }
  }
  return best;
}

dns::Message AuthServer::handle(const dns::Message& query,
                                const sim::PacketContext& ctx) const {
  dns::Message response;
  response.header.id = query.header.id;
  response.header.qr = true;
  response.header.opcode = query.header.opcode;
  response.header.rd = query.header.rd;
  response.question = query.question;

  const auto edns = edns::get_edns(query);
  const bool dnssec_ok = edns.has_value() && edns->dnssec_ok;

  const auto finish = [&]() {
    if (edns.has_value()) {
      edns::Edns out;
      out.udp_payload_size = config_.udp_payload_size;
      out.dnssec_ok = dnssec_ok;
      if (config_.report_agent.has_value()) {
        out.options.push_back(
            edns::make_report_channel_option(*config_.report_agent));
      }
      edns::set_edns(response, out);
    }
    // UDP truncation (RFC 1035 §4.1.1 TC bit): if the response exceeds
    // the smaller of the client's advertised EDNS payload size (512
    // without EDNS, and never less — RFC 6891 §6.2.3) and this server's
    // own limit, set TC and shed records until what remains fits. Records
    // go in referral-priority order — additional data first, then
    // authority, then the answer itself — and section counts always agree
    // with the records actually present, so a truncated response is a
    // well-formed (if useless) DNS message the client can parse before
    // retrying over TCP. A stream has no size limit (RFC 7766 §8): the
    // two-byte length prefix frames anything the codec can serialize.
    if (ctx.over_stream) return response;
    const std::uint16_t advertised =
        !edns.has_value()
            ? std::uint16_t{512}
            : std::max<std::uint16_t>(edns->udp_payload_size, 512);
    const std::uint16_t limit = std::min(advertised, config_.udp_payload_size);
    if (arena_.serialized_size(response) > limit) {
      response.header.tc = true;
      const auto drop_one = [](std::vector<dns::ResourceRecord>& section) {
        // Shed from the back, preserving the OPT pseudo-record (it must
        // ride every EDNS response so the client knows EDNS worked).
        for (auto it = section.rbegin(); it != section.rend(); ++it) {
          if (it->type == dns::RRType::OPT) continue;
          section.erase(std::next(it).base());
          return true;
        }
        return false;
      };
      while (arena_.serialized_size(response) > limit) {
        if (drop_one(response.additional)) continue;
        if (drop_one(response.authority)) continue;
        if (drop_one(response.answer)) continue;
        break;  // only the header, question and OPT remain
      }
    }
    return response;
  };

  if (query.question.empty() || query.header.opcode != dns::Opcode::QUERY) {
    response.header.rcode = dns::RCode::FORMERR;
    return finish();
  }

  // Query ACL.
  if (config_.acl == QueryAcl::DenyAll ||
      (config_.acl == QueryAcl::LocalhostOnly && !ctx.source.is_loopback())) {
    response.header.rcode = dns::RCode::REFUSED;
    return finish();
  }

  if (config_.fixed_rcode.has_value()) {
    response.header.rcode = *config_.fixed_rcode;
    return finish();
  }

  const auto& q = query.question.front();
  const zone::Zone* zone = zone_for(q.qname);
  if (zone == nullptr) {
    response.header.rcode = dns::RCode::REFUSED;
    return finish();
  }

  answer_from_zone(*zone, q.qname, q.qtype, dnssec_ok, response);
  return finish();
}

void AuthServer::answer_from_zone(const zone::Zone& zone,
                                  const dns::Name& qname, dns::RRType qtype,
                                  bool dnssec_ok,
                                  dns::Message& response) const {
  // Delegation handling: anything at or below a cut is referred, except a
  // DS query for the cut itself, which the parent answers authoritatively.
  const auto cut = zone.delegation_for(qname);
  if (cut.has_value() &&
      !(qname == *cut && qtype == dns::RRType::DS)) {
    add_referral(zone, *cut, dnssec_ok, response);
    return;
  }

  const auto* rrset = zone.find(qname, qtype);
  if (rrset != nullptr) {
    response.header.aa = true;
    append_rrset(response.answer, *rrset);
    if (dnssec_ok) append_signatures(response.answer, zone, qname, qtype);
    return;
  }

  // CNAME at the name answers any type.
  const auto* cname = zone.find(qname, dns::RRType::CNAME);
  if (cname != nullptr && qtype != dns::RRType::CNAME) {
    response.header.aa = true;
    append_rrset(response.answer, *cname);
    if (dnssec_ok)
      append_signatures(response.answer, zone, qname, dns::RRType::CNAME);
    return;
  }

  // Wildcard synthesis (RFC 1034 §4.3.3): when the name does not exist,
  // the closest encloser's "*" child answers in its stead. The RRSIGs are
  // copied verbatim from the wildcard owner — their labels field is what
  // tells validators an expansion happened.
  if (!zone.name_exists(qname)) {
    dns::Name encloser = qname.parent();
    while (encloser.label_count() >= zone.origin().label_count()) {
      const auto wildcard = encloser.prefixed("*").take();
      if (const auto* wc = zone.find(wildcard, qtype)) {
        response.header.aa = true;
        for (const auto& rd : wc->rdatas) {
          response.answer.push_back(
              {qname, qtype, dns::RRClass::IN, wc->ttl, rd});
        }
        if (dnssec_ok) {
          for (const auto& sig : zone.signatures(wildcard, qtype)) {
            response.answer.push_back({qname, dns::RRType::RRSIG,
                                       dns::RRClass::IN, wc->ttl,
                                       dns::Rdata{sig}});
          }
        }
        return;
      }
      if (encloser.label_count() == zone.origin().label_count()) break;
      encloser = encloser.parent();
    }
  }

  const bool exists = zone.name_exists(qname);
  add_negative(zone, qname, /*nxdomain=*/!exists, dnssec_ok, response);
}

void AuthServer::add_referral(const zone::Zone& zone, const dns::Name& cut,
                              bool dnssec_ok, dns::Message& response) const {
  const auto* ns = zone.find(cut, dns::RRType::NS);
  if (ns == nullptr) {
    response.header.rcode = dns::RCode::SERVFAIL;
    return;
  }
  append_rrset(response.authority, *ns);

  if (dnssec_ok) {
    const auto* ds = zone.find(cut, dns::RRType::DS);
    if (ds != nullptr) {
      append_rrset(response.authority, *ds);
      append_signatures(response.authority, zone, cut, dns::RRType::DS);
    } else if (const auto* param = find_param(zone); param != nullptr) {
      // Signed zone, unsigned delegation: prove the DS absence.
      const auto chain = nsec3_chain(zone);
      const auto hash = dnssec::nsec3_hash(cut, crypto::BytesView{param->salt},
                                           param->iterations);
      const auto* entry = select_nsec3(chain, hash);
      if (entry != nullptr) {
        if (const auto* set = zone.find(entry->owner, dns::RRType::NSEC3)) {
          append_rrset(response.authority, *set);
          append_signatures(response.authority, zone, entry->owner,
                            dns::RRType::NSEC3);
        }
      }
    } else if (const auto* nsec = zone.find(cut, dns::RRType::NSEC)) {
      // Flat-NSEC zone: the NSEC at the cut proves the DS absence.
      append_rrset(response.authority, *nsec);
      append_signatures(response.authority, zone, cut, dns::RRType::NSEC);
    }
  }

  // Glue for in-zone (or below-cut) nameserver targets.
  for (const auto& rd : ns->rdatas) {
    const auto* nsr = std::get_if<dns::NsRdata>(&rd);
    if (nsr == nullptr) continue;
    if (!nsr->nsdname.is_subdomain_of(zone.origin())) continue;
    for (const auto type : {dns::RRType::A, dns::RRType::AAAA}) {
      if (const auto* glue = zone.find(nsr->nsdname, type)) {
        append_rrset(response.additional, *glue);
      }
    }
  }
}

void AuthServer::add_negative(const zone::Zone& zone, const dns::Name& qname,
                              bool nxdomain, bool dnssec_ok,
                              dns::Message& response) const {
  response.header.aa = true;
  response.header.rcode =
      nxdomain ? dns::RCode::NXDOMAIN : dns::RCode::NOERROR;

  const auto* soa = zone.find(zone.origin(), dns::RRType::SOA);
  const auto* param = find_param(zone);
  const bool zone_signed =
      zone.find(zone.origin(), dns::RRType::DNSKEY) != nullptr;

  if (soa != nullptr) append_rrset(response.authority, *soa);
  if (!dnssec_ok) return;

  // Flat-NSEC zones take their own proof path.
  const auto flat_chain = nsec_chain(zone);
  if (zone_signed && param == nullptr && !flat_chain.empty()) {
    if (soa != nullptr) {
      append_signatures(response.authority, zone, zone.origin(),
                        dns::RRType::SOA);
    }
    std::vector<const dns::Name*> selected;
    const auto push = [&](const dns::Name& target) {
      const auto* owner = select_nsec(flat_chain, target);
      if (owner != nullptr &&
          std::find(selected.begin(), selected.end(), owner) ==
              selected.end())
        selected.push_back(owner);
    };
    if (nxdomain) {
      dns::Name closest = qname;
      while (!(closest == zone.origin()) && !zone.name_exists(closest)) {
        closest = closest.parent();
      }
      push(qname);                           // covering record
      push(closest.prefixed("*").take());    // wildcard cover
    } else {
      push(qname);                           // NODATA: matching record
    }
    for (const auto* owner : selected) {
      if (const auto* set = zone.find(*owner, dns::RRType::NSEC)) {
        append_rrset(response.authority, *set);
        append_signatures(response.authority, zone, *owner,
                          dns::RRType::NSEC);
      }
    }
    return;
  }

  if (zone_signed && param == nullptr) {
    // The signed zone lost its NSEC3PARAM: this server cannot assemble an
    // authenticated denial. Modelled (and documented in DESIGN.md) as an
    // entirely unsigned negative response, with one orphan NSEC3 attached
    // when the chain still exists in the zone data.
    const auto chain = nsec3_chain(zone);
    if (!chain.empty()) {
      if (const auto* set =
              zone.find(chain.front().owner, dns::RRType::NSEC3)) {
        append_rrset(response.authority, *set);
      }
    }
    return;
  }

  if (soa != nullptr) {
    append_signatures(response.authority, zone, zone.origin(),
                      dns::RRType::SOA);
  }
  if (!zone_signed || param == nullptr) return;

  // Attach the apex NSEC3PARAM (+ signature) so validators can check salt
  // consistency — a documented simulator behaviour.
  if (const auto* pset = zone.find(zone.origin(), dns::RRType::NSEC3PARAM)) {
    append_rrset(response.authority, *pset);
    append_signatures(response.authority, zone, zone.origin(),
                      dns::RRType::NSEC3PARAM);
  }

  const auto chain = nsec3_chain(zone);
  if (chain.empty()) return;  // NSEC3 records were stripped from the zone

  // Closest encloser: deepest existing ancestor of qname.
  dns::Name closest = qname;
  dns::Name next_closer = qname;
  while (!(closest == zone.origin()) && !zone.name_exists(closest)) {
    next_closer = closest;
    closest = closest.parent();
  }

  std::vector<const Nsec3Entry*> selected;
  const auto push = [&](const dns::Name& target) {
    const auto hash = dnssec::nsec3_hash(target, crypto::BytesView{param->salt},
                                         param->iterations);
    const auto* entry = select_nsec3(chain, hash);
    if (entry != nullptr &&
        std::find(selected.begin(), selected.end(), entry) == selected.end())
      selected.push_back(entry);
  };

  if (nxdomain) {
    push(closest);                                   // match the encloser
    push(next_closer);                               // cover the next closer
    push(closest.prefixed("*").take());              // cover the wildcard
  } else {
    push(qname);                                     // NODATA: match qname
  }

  for (const auto* entry : selected) {
    if (const auto* set = zone.find(entry->owner, dns::RRType::NSEC3)) {
      append_rrset(response.authority, *set);
      append_signatures(response.authority, zone, entry->owner,
                        dns::RRType::NSEC3);
    }
  }
}

sim::Endpoint AuthServer::endpoint() const {
  return [this](crypto::BytesView wire,
                const sim::PacketContext& ctx) -> std::optional<crypto::Bytes> {
    if (!arena_.parse(wire)) return std::nullopt;  // unparsable packets vanish
    return arena_.serialize_copy(handle(arena_.message(), ctx));
  };
}

}  // namespace ede::server
