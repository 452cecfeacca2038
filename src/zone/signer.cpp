#include "zone/signer.hpp"

#include <algorithm>

#include "crypto/encoding.hpp"
#include "dnssec/nsec3.hpp"

namespace ede::zone {

ZoneKeys make_zone_keys(const dns::Name& origin, std::uint8_t algorithm) {
  return {dnssec::make_ksk(origin, algorithm),
          dnssec::make_zsk(origin, algorithm)};
}

crypto::Bytes default_nsec3_salt() { return {0xab, 0xcd}; }

namespace {

void add_nsec3_chain(Zone& zone, const SigningPolicy& policy) {
  const dns::Name& origin = zone.origin();

  // NSEC3PARAM at the apex.
  dns::Nsec3ParamRdata param;
  param.hash_algorithm = 1;
  param.flags = 0;
  param.iterations = policy.nsec3_iterations;
  param.salt = policy.nsec3_salt;
  zone.add(origin, dns::RRType::NSEC3PARAM, dns::Rdata{param});

  // Hash every authoritative name.
  struct Entry {
    crypto::Bytes hash;
    dns::Name name;
  };
  std::vector<Entry> entries;
  for (const auto& name : zone.authoritative_names()) {
    entries.push_back({dnssec::nsec3_hash(name, policy.nsec3_salt,
                                          policy.nsec3_iterations),
                       name});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.hash < b.hash; });

  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& entry = entries[i];
    const auto& next = entries[(i + 1) % entries.size()];

    dns::Nsec3Rdata n3;
    n3.hash_algorithm = 1;
    n3.flags = policy.nsec3_opt_out ? 1 : 0;
    n3.iterations = policy.nsec3_iterations;
    n3.salt = policy.nsec3_salt;
    n3.next_hashed_owner = next.hash;
    for (const auto* set : zone.at(entry.name)) {
      if (set->type == dns::RRType::RRSIG) continue;
      n3.types.add(set->type);
    }
    // Authoritative data at this name will be signed.
    if (!(zone.delegation_for(entry.name).has_value() &&
          zone.find(entry.name, dns::RRType::DS) == nullptr)) {
      n3.types.add(dns::RRType::RRSIG);
    }

    const dns::Name owner =
        origin.prefixed(crypto::to_base32hex(entry.hash)).take();
    zone.add(owner, dns::RRType::NSEC3, dns::Rdata{n3});
  }
}

void add_nsec_chain(Zone& zone) {
  // Flat NSEC chain: authoritative names in canonical order, each linking
  // to the next, the last wrapping back to the apex.
  const auto names = zone.authoritative_names();  // already canonical order
  for (std::size_t i = 0; i < names.size(); ++i) {
    dns::NsecRdata nsec;
    nsec.next_domain = names[(i + 1) % names.size()];
    for (const auto* set : zone.at(names[i])) {
      if (set->type == dns::RRType::RRSIG) continue;
      nsec.types.add(set->type);
    }
    nsec.types.add(dns::RRType::NSEC);
    if (!(zone.delegation_for(names[i]).has_value() &&
          zone.find(names[i], dns::RRType::DS) == nullptr)) {
      nsec.types.add(dns::RRType::RRSIG);
    }
    zone.add(names[i], dns::RRType::NSEC, dns::Rdata{nsec});
  }
}

}  // namespace

void sign_zone(Zone& zone, const ZoneKeys& keys, const SigningPolicy& policy) {
  const dns::Name& origin = zone.origin();

  // Install the DNSKEY RRset.
  zone.add(origin, dns::RRType::DNSKEY, dns::Rdata{keys.ksk.dnskey});
  zone.add(origin, dns::RRType::DNSKEY, dns::Rdata{keys.zsk.dnskey});

  switch (policy.denial) {
    case DenialMode::Nsec3: add_nsec3_chain(zone, policy); break;
    case DenialMode::Nsec: add_nsec_chain(zone); break;
    case DenialMode::None: break;
  }

  // Record the RRsets to sign; Zone::signatures() signs each the first
  // time it is asked for, and any access that could see or change
  // signature data materializes them all in this order.
  PendingSignatures pending{keys.ksk, keys.zsk, policy.window,
                            policy.sign_dnskey_with_zsk, {}};
  for (const auto& name : zone.names()) {
    const auto cut = zone.delegation_for(name);
    if (cut && !(name == *cut)) continue;  // occluded glue
    for (const auto* set : zone.at(name)) {
      if (set->type == dns::RRType::RRSIG) continue;
      if (cut && name == *cut && set->type != dns::RRType::DS &&
          set->type != dns::RRType::NSEC) {
        continue;  // parent-side NS + glue at a cut are not signed,
                   // but DS and NSEC at the cut are (RFC 4035 §2.2/§2.3)
      }
      pending.targets.push_back({name, set->type, {}});
    }
  }
  zone.defer_signatures(std::move(pending));
}

std::vector<dns::DsRdata> ds_records(const dns::Name& origin,
                                     const ZoneKeys& keys,
                                     std::uint8_t digest_type) {
  return {dnssec::make_ds(origin, keys.ksk.dnskey, digest_type)};
}

}  // namespace ede::zone
