#include "dnssec/validate.hpp"

#include <algorithm>

#include "crypto/encoding.hpp"
#include "dnssec/sign.hpp"

namespace ede::dnssec {

namespace {

bool is_unassigned(std::uint8_t algorithm) {
  return algorithm_info(algorithm).status == AlgorithmStatus::Unassigned;
}

bool is_reserved(std::uint8_t algorithm) {
  return algorithm_info(algorithm).status == AlgorithmStatus::Reserved;
}

/// RRSIGs in `sigs` covering `type` with the given signer.
std::vector<dns::RrsigRdata> sigs_covering(
    const std::vector<dns::RrsigRdata>& sigs, dns::RRType type,
    const dns::Name& signer) {
  std::vector<dns::RrsigRdata> out;
  for (const auto& s : sigs) {
    if (s.type_covered == type && s.signer_name == signer) out.push_back(s);
  }
  return out;
}

void add_finding(std::vector<Finding>& findings, Stage stage, Defect defect,
                 std::string detail = {}) {
  Finding f{stage, defect, std::move(detail)};
  if (std::find(findings.begin(), findings.end(), f) == findings.end())
    findings.push_back(std::move(f));
}

}  // namespace

SigTemporal classify_temporal(const dns::RrsigRdata& sig, std::uint32_t now) {
  if (sig.expiration < sig.inception) return SigTemporal::ExpiredBeforeValid;
  if (now > sig.expiration) return SigTemporal::Expired;
  if (now < sig.inception) return SigTemporal::NotYetValid;
  return SigTemporal::Valid;
}

namespace {

KeyTrustResult validate_keys_against_entry_points(
    const dns::Name& zone,
    const std::vector<std::pair<std::uint16_t, std::uint8_t>>& entry_points,
    const std::vector<const dns::DsRdata*>& ds_for_digest_check,
    const dns::RRset* dnskey_rrset,
    const std::vector<dns::RrsigRdata>& dnskey_sigs, std::uint32_t now,
    [[maybe_unused]] const ValidatorConfig& config) {
  KeyTrustResult result;

  if (dnskey_rrset == nullptr || dnskey_rrset->rdatas.empty()) {
    result.security = Security::Bogus;
    add_finding(result.findings, Stage::DnskeyTrust, Defect::DnskeyFetchFailed,
                "no DNSKEY RRset obtained for " + zone.to_string());
    return result;
  }

  std::vector<dns::DnskeyRdata> keys;
  for (const auto& rd : dnskey_rrset->rdatas) {
    if (const auto* k = std::get_if<dns::DnskeyRdata>(&rd)) keys.push_back(*k);
  }

  // A DNSKEY RRset where nothing has the zone-key bit cannot anchor
  // anything (no-dnskey-256-257 testbed case).
  const bool any_zone_key = std::any_of(
      keys.begin(), keys.end(), [](const auto& k) { return k.is_zone_key(); });
  if (!any_zone_key) {
    result.security = Security::Bogus;
    add_finding(result.findings, Stage::DsLookup, Defect::NoZoneKeysAtAll,
                "no DNSKEY with the Zone Key bit at " + zone.to_string());
    return result;
  }

  // Match secure entry points (DS records / trust anchors) to keys.
  std::vector<const dns::DnskeyRdata*> sep_keys;
  for (std::size_t i = 0; i < entry_points.size(); ++i) {
    const auto [tag, algorithm] = entry_points[i];
    const dns::DnskeyRdata* matched = nullptr;
    bool zone_bit_problem = false;
    for (const auto& key : keys) {
      if (key_tag(key) != tag || key.algorithm != algorithm) continue;
      if (!key.is_zone_key()) {
        zone_bit_problem = true;
        continue;
      }
      matched = &key;
      break;
    }
    if (matched == nullptr) {
      if (zone_bit_problem) {
        add_finding(result.findings, Stage::DsLookup, Defect::KskNoZoneKeyBit,
                    "DS " + std::to_string(tag) +
                        " designates a key without the Zone Key bit");
      } else {
        add_finding(result.findings, Stage::DsLookup,
                    Defect::NoMatchingDnskeyForDs,
                    "no DNSKEY matches DS tag " + std::to_string(tag) +
                        " algorithm " + algorithm_name(algorithm) + " at " +
                        zone.to_string());
      }
      continue;
    }
    // Digest check (only applicable to real DS records, not anchors).
    const dns::DsRdata* ds =
        i < ds_for_digest_check.size() ? ds_for_digest_check[i] : nullptr;
    if (ds != nullptr && !ds_matches(zone, *ds, *matched)) {
      add_finding(result.findings, Stage::DsLookup, Defect::DsDigestMismatch,
                  "DS digest does not verify DNSKEY " + std::to_string(tag) +
                      " at " + zone.to_string());
      continue;
    }
    sep_keys.push_back(matched);
  }

  if (sep_keys.empty()) {
    result.security = Security::Bogus;
    return result;
  }

  // Validate the DNSKEY RRset signature by a secure entry point.
  const auto relevant = sigs_covering(dnskey_sigs, dns::RRType::DNSKEY, zone);
  if (relevant.empty()) {
    result.security = Security::Bogus;
    add_finding(result.findings, Stage::DnskeyTrust,
                Defect::DnskeyRrsigMissing,
                "no RRSIG over the DNSKEY RRset at " + zone.to_string());
    return result;
  }

  bool saw_sep_sig = false;
  std::vector<Finding> sep_problems;
  bool trusted = false;

  for (const auto& sig : relevant) {
    // Does this signature's tag correspond to one of the validated SEPs?
    const dns::DnskeyRdata* sep = nullptr;
    for (const auto* key : sep_keys) {
      if (key_tag(*key) == sig.key_tag && key->algorithm == sig.algorithm)
        sep = key;
    }
    if (sep == nullptr) continue;
    saw_sep_sig = true;

    switch (classify_temporal(sig, now)) {
      case SigTemporal::ExpiredBeforeValid:
        add_finding(sep_problems, Stage::DnskeyTrust,
                    Defect::DnskeyRrsigExpiredBeforeValid,
                    "DNSKEY RRSIG expires before inception at " +
                        zone.to_string());
        continue;
      case SigTemporal::Expired:
        add_finding(sep_problems, Stage::DnskeyTrust,
                    Defect::DnskeyRrsigExpired,
                    "DNSKEY RRSIG expired at " + zone.to_string());
        continue;
      case SigTemporal::NotYetValid:
        add_finding(sep_problems, Stage::DnskeyTrust,
                    Defect::DnskeyRrsigNotYetValid,
                    "DNSKEY RRSIG not yet valid at " + zone.to_string());
        continue;
      case SigTemporal::Valid:
        break;
    }
    if (!verify_rrset(*dnskey_rrset, sig, *sep)) {
      add_finding(sep_problems, Stage::DnskeyTrust,
                  Defect::DnskeyKskSigInvalid,
                  "KSK signature over DNSKEY RRset does not verify at " +
                      zone.to_string());
      continue;
    }
    trusted = true;
    break;
  }

  if (!trusted) {
    result.security = Security::Bogus;
    // Does *some* key verify some signature? Distinguishes "only the KSK's
    // signature is corrupt" from "all are corrupt".
    const auto any_sig_verifies = [&] {
      return std::any_of(
          relevant.begin(), relevant.end(), [&](const dns::RrsigRdata& sig) {
            return std::any_of(
                keys.begin(), keys.end(), [&](const dns::DnskeyRdata& key) {
                  return key_tag(key) == sig.key_tag &&
                         key.algorithm == sig.algorithm &&
                         verify_rrset(*dnskey_rrset, sig, key);
                });
          });
    };
    if (!saw_sep_sig) {
      add_finding(result.findings, Stage::DnskeyTrust,
                  Defect::DnskeyNotSignedByKsk,
                  "DNSKEY RRset signed, but not by the DS-designated KSK at " +
                      zone.to_string());
    } else if (std::any_of(sep_problems.begin(), sep_problems.end(),
                           [](const Finding& f) {
                             return f.defect == Defect::DnskeyKskSigInvalid;
                           }) &&
               !any_sig_verifies()) {
      // Every signature over the DNSKEY RRset is cryptographically wrong.
      add_finding(result.findings, Stage::DnskeyTrust,
                  Defect::DnskeyRrsigInvalid,
                  "no signature over the DNSKEY RRset verifies at " +
                      zone.to_string());
    } else {
      for (auto& f : sep_problems) result.findings.push_back(std::move(f));
    }
    return result;
  }

  // Trust established: expose the zone keys. Stand-by SEP keys that lack a
  // covering signature are flagged informationally (§4.2 category 3).
  result.security = Security::Secure;
  for (const auto& key : keys) {
    if (key.is_zone_key()) result.zone_keys.push_back(key);
    if (key.is_sep() && key.is_zone_key()) {
      const bool covered = std::any_of(
          relevant.begin(), relevant.end(), [&](const dns::RrsigRdata& s) {
            return s.key_tag == key_tag(key) && s.algorithm == key.algorithm;
          });
      if (!covered) {
        add_finding(result.findings, Stage::DnskeyTrust,
                    Defect::StandbyKeyNotSigned,
                    "stand-by KSK " + std::to_string(key_tag(key)) +
                        " has no covering RRSIG at " + zone.to_string());
      }
    }
  }
  return result;
}

}  // namespace

KeyTrustResult validate_zone_keys(const dns::Name& zone,
                                  const std::vector<dns::DsRdata>& ds_set,
                                  const dns::RRset* dnskey_rrset,
                                  const std::vector<dns::RrsigRdata>& dnskey_sigs,
                                  std::uint32_t now,
                                  const ValidatorConfig& config) {
  KeyTrustResult result;

  if (ds_set.empty()) {
    result.security = Security::Insecure;
    return result;
  }

  // Classify the DS set first: a delegation whose every DS is unusable is
  // treated as unsigned (RFC 4035 §5.2), with findings explaining why.
  std::vector<std::pair<std::uint16_t, std::uint8_t>> entry_points;
  std::vector<const dns::DsRdata*> entry_ds;
  for (const auto& ds : ds_set) {
    if (is_unassigned(ds.algorithm)) {
      add_finding(result.findings, Stage::DsLookup,
                  Defect::DsUnassignedKeyAlgorithm,
                  "DS algorithm " + std::to_string(ds.algorithm) +
                      " is unassigned");
      continue;
    }
    if (is_reserved(ds.algorithm)) {
      add_finding(result.findings, Stage::DsLookup,
                  Defect::DsReservedKeyAlgorithm,
                  "DS algorithm " + std::to_string(ds.algorithm) +
                      " is reserved");
      continue;
    }
    if (!is_known_digest_type(ds.digest_type)) {
      add_finding(result.findings, Stage::DsLookup,
                  Defect::DsUnknownDigestType,
                  "DS digest type " + std::to_string(ds.digest_type) +
                      " is unassigned");
      continue;
    }
    if (default_supported_digest_types().count(ds.digest_type) == 0) {
      add_finding(result.findings, Stage::DsLookup,
                  Defect::DsUnsupportedDigestType,
                  "DS digest type " + digest_type_name(ds.digest_type) +
                      " not supported by this validator");
      continue;
    }
    if (config.supported_algorithms.count(ds.algorithm) == 0) {
      add_finding(result.findings, Stage::DsLookup,
                  Defect::ZoneAlgorithmUnsupported,
                  "algorithm " + algorithm_name(ds.algorithm) +
                      " not supported by this validator");
      continue;
    }
    entry_points.emplace_back(ds.key_tag, ds.algorithm);
    entry_ds.push_back(&ds);
  }

  if (entry_points.empty()) {
    // Nothing usable: the delegation is treated as insecure.
    result.security = Security::Insecure;
    return result;
  }

  auto inner = validate_keys_against_entry_points(
      zone, entry_points, entry_ds, dnskey_rrset, dnskey_sigs, now, config);
  for (auto& f : result.findings) inner.findings.push_back(std::move(f));
  result = std::move(inner);
  return result;
}

KeyTrustResult validate_zone_keys_with_anchor(
    const dns::Name& zone, const dns::DnskeyRdata& trust_anchor,
    const dns::RRset* dnskey_rrset,
    const std::vector<dns::RrsigRdata>& dnskey_sigs, std::uint32_t now,
    const ValidatorConfig& config) {
  const std::vector<std::pair<std::uint16_t, std::uint8_t>> entry_points = {
      {key_tag(trust_anchor), trust_anchor.algorithm}};
  return validate_keys_against_entry_points(zone, entry_points, {},
                                            dnskey_rrset, dnskey_sigs, now,
                                            config);
}

RRsetValidation validate_answer_rrset(
    const dns::RRset& rrset, const std::vector<dns::RrsigRdata>& sigs,
    const dns::Name& zone, const std::vector<dns::DnskeyRdata>& all_keys,
    std::uint32_t now, const ValidatorConfig& config) {
  RRsetValidation result;
  const auto relevant = sigs_covering(sigs, rrset.type, zone);
  if (relevant.empty()) {
    result.security = Security::Bogus;
    add_finding(result.findings, Stage::Answer, Defect::AnswerRrsigMissing,
                "no RRSIG over " + rrset.name.to_string() + " " +
                    dns::to_string(rrset.type));
    return result;
  }

  for (const auto& sig : relevant) {
    if (is_unassigned(sig.algorithm)) {
      add_finding(result.findings, Stage::Answer,
                  Defect::ZskUnassignedAlgorithm,
                  "RRSIG uses unassigned algorithm " +
                      std::to_string(sig.algorithm));
      continue;
    }
    if (is_reserved(sig.algorithm)) {
      add_finding(result.findings, Stage::Answer, Defect::ZskReservedAlgorithm,
                  "RRSIG uses reserved algorithm " +
                      std::to_string(sig.algorithm));
      continue;
    }
    if (config.supported_algorithms.count(sig.algorithm) == 0) {
      add_finding(result.findings, Stage::Answer,
                  Defect::ZoneAlgorithmUnsupported,
                  "RRSIG algorithm " + algorithm_name(sig.algorithm) +
                      " not supported by this validator");
      continue;
    }

    // Locate the signing key.
    const dns::DnskeyRdata* key = nullptr;
    bool tag_matched = false;
    for (const auto& k : all_keys) {
      if (key_tag(k) != sig.key_tag) continue;
      tag_matched = true;
      if (k.algorithm != sig.algorithm) continue;
      key = &k;
      break;
    }
    if (key == nullptr) {
      if (tag_matched) {
        add_finding(result.findings, Stage::Answer,
                    Defect::ZskAlgorithmMismatch,
                    "RRSIG algorithm disagrees with DNSKEY " +
                        std::to_string(sig.key_tag));
      } else {
        add_finding(result.findings, Stage::Answer,
                    Defect::AnswerSigKeyMissing,
                    "RRSIG references DNSKEY tag " +
                        std::to_string(sig.key_tag) +
                        " absent from the DNSKEY RRset");
      }
      continue;
    }
    if (!key->is_zone_key()) {
      add_finding(result.findings, Stage::Answer, Defect::ZskNoZoneKeyBit,
                  "signing DNSKEY " + std::to_string(sig.key_tag) +
                      " lacks the Zone Key bit");
      continue;
    }

    switch (classify_temporal(sig, now)) {
      case SigTemporal::ExpiredBeforeValid:
        add_finding(result.findings, Stage::Answer,
                    Defect::AnswerRrsigExpiredBeforeValid,
                    "RRSIG over " + dns::to_string(rrset.type) +
                        " expires before inception");
        continue;
      case SigTemporal::Expired:
        add_finding(result.findings, Stage::Answer,
                    Defect::AnswerRrsigExpired,
                    "RRSIG over " + dns::to_string(rrset.type) + " expired");
        continue;
      case SigTemporal::NotYetValid:
        add_finding(result.findings, Stage::Answer,
                    Defect::AnswerRrsigNotYetValid,
                    "RRSIG over " + dns::to_string(rrset.type) +
                        " not yet valid");
        continue;
      case SigTemporal::Valid:
        break;
    }

    if (!verify_rrset(rrset, sig, *key)) {
      add_finding(result.findings, Stage::Answer, Defect::AnswerRrsigInvalid,
                  "RRSIG over " + rrset.name.to_string() + " " +
                      dns::to_string(rrset.type) + " does not verify");
      continue;
    }

    // One fully valid signature authenticates the RRset.
    result.security = Security::Secure;
    result.findings.clear();
    return result;
  }

  result.security = Security::Bogus;
  return result;
}

namespace {

struct DenialMaterial {
  const dns::RRset* soa = nullptr;
  std::vector<const dns::RRset*> nsec3;
  std::vector<const dns::RRset*> nsec;
  const dns::RRset* nsec3param = nullptr;
  std::vector<dns::RrsigRdata> sigs;
};

DenialMaterial collect_denial(const std::vector<dns::RRset>& authority) {
  DenialMaterial m;
  for (const auto& set : authority) {
    switch (set.type) {
      case dns::RRType::SOA: m.soa = &set; break;
      case dns::RRType::NSEC3: m.nsec3.push_back(&set); break;
      case dns::RRType::NSEC: m.nsec.push_back(&set); break;
      case dns::RRType::NSEC3PARAM: m.nsec3param = &set; break;
      case dns::RRType::RRSIG:
        for (const auto& rd : set.rdatas) {
          if (const auto* sig = std::get_if<dns::RrsigRdata>(&rd))
            m.sigs.push_back(*sig);
        }
        break;
      // Everything else in the authority section is not denial material.
      case dns::RRType::A:
      case dns::RRType::NS:
      case dns::RRType::CNAME:
      case dns::RRType::PTR:
      case dns::RRType::MX:
      case dns::RRType::TXT:
      case dns::RRType::AAAA:
      case dns::RRType::SRV:
      case dns::RRType::OPT:
      case dns::RRType::DS:
      case dns::RRType::DNSKEY:
      case dns::RRType::CAA:
      case dns::RRType::ANY:
      default: break;
    }
  }
  return m;
}

/// Validate signatures over each NSEC3 RRset, translating the generic
/// answer-stage defects into denial-stage ones.
bool check_denial_signatures(const std::vector<const dns::RRset*>& sets,
                             dns::RRType denial_type,
                             const std::vector<dns::RrsigRdata>& all_sigs,
                             const dns::Name& zone,
                             const std::vector<dns::DnskeyRdata>& keys,
                             std::uint32_t now, const ValidatorConfig& config,
                             std::vector<Finding>& findings) {
  bool all_ok = true;
  for (const auto* set : sets) {
    // Match sigs by owner name as well as type.
    std::vector<dns::RrsigRdata> sigs;
    for (const auto& s : all_sigs) {
      if (s.type_covered == denial_type) sigs.push_back(s);
    }
    // Owner-specific filtering happens inside validate via canonical rrset;
    // an RRSIG for a different owner simply fails to verify.
    const auto check =
        validate_answer_rrset(*set, sigs, zone, keys, now, config);
    if (check.security == Security::Secure) continue;
    all_ok = false;
    const std::string kind = dns::to_string(denial_type);
    for (const auto& f : check.findings) {
      if (f.defect == Defect::AnswerRrsigMissing) {
        add_finding(findings, Stage::Denial, Defect::DenialNsec3SigMissing,
                    "no RRSIG over " + kind + " " + set->name.to_string());
      } else {
        add_finding(findings, Stage::Denial, Defect::DenialNsec3SigInvalid,
                    "RRSIG over " + kind + " " + set->name.to_string() +
                        " does not verify");
      }
    }
    if (check.findings.empty()) {
      add_finding(findings, Stage::Denial, Defect::DenialNsec3SigInvalid,
                  kind + " " + set->name.to_string() + " not authenticated");
    }
  }
  return all_ok;
}

bool check_nsec3_signatures(const DenialMaterial& m, const dns::Name& zone,
                            const std::vector<dns::DnskeyRdata>& keys,
                            std::uint32_t now, const ValidatorConfig& config,
                            std::vector<Finding>& findings) {
  return check_denial_signatures(m.nsec3, dns::RRType::NSEC3, m.sigs, zone,
                                 keys, now, config, findings);
}

const dns::NsecRdata* first_nsec(const dns::RRset& set) {
  for (const auto& rd : set.rdatas) {
    if (const auto* nsec = std::get_if<dns::NsecRdata>(&rd)) return nsec;
  }
  return nullptr;
}

const dns::Nsec3Rdata* first_nsec3(const dns::RRset& set) {
  for (const auto& rd : set.rdatas) {
    if (const auto* n3 = std::get_if<dns::Nsec3Rdata>(&rd)) return n3;
  }
  return nullptr;
}

/// The hash encoded in an NSEC3 owner name (first label, base32hex).
crypto::Bytes owner_hash(const dns::Name& owner) {
  if (owner.is_root()) return {};
  const auto decoded = crypto::from_base32hex(owner.labels().front());
  return decoded.value_or(crypto::Bytes{});
}

}  // namespace

RRsetValidation validate_negative_response(
    const dns::Name& qname, dns::RRType qtype, const dns::Name& zone,
    const std::vector<dns::RRset>& authority,
    const std::vector<dns::DnskeyRdata>& all_keys, std::uint32_t now,
    const ValidatorConfig& config) {
  RRsetValidation result;
  const DenialMaterial m = collect_denial(authority);

  // --- flat NSEC proof (RFC 4034 §4) ------------------------------------
  if (m.nsec3.empty() && !m.nsec.empty()) {
    if (!check_denial_signatures(m.nsec, dns::RRType::NSEC, m.sigs, zone,
                                 all_keys, now, config, result.findings)) {
      result.security = Security::Bogus;
      return result;
    }
    for (const auto* set : m.nsec) {
      const auto* nsec = first_nsec(*set);
      if (nsec == nullptr) continue;
      if (set->name == qname) {
        // NODATA proof: the name exists, the type must not.
        if (nsec->types.contains(qtype)) {
          result.security = Security::Bogus;
          add_finding(result.findings, Stage::Denial,
                      Defect::DenialNsec3NoMatchingHash,
                      "NSEC at " + qname.to_string() +
                          " claims the queried type exists");
          return result;
        }
        result.security = Security::Secure;
        return result;
      }
      if (nsec_covers(set->name, nsec->next_domain, qname)) {
        result.security = Security::Secure;
        return result;
      }
    }
    result.security = Security::Bogus;
    add_finding(result.findings, Stage::Denial,
                Defect::DenialNsec3NoMatchingHash,
                "no NSEC matches or covers " + qname.to_string());
    return result;
  }

  if (m.nsec3.empty()) {
    if (m.sigs.empty()) {
      result.security = Security::Bogus;
      add_finding(result.findings, Stage::Denial, Defect::DenialAllMissing,
                  "negative response carries no denial records and no "
                  "signatures for " +
                      qname.to_string());
      return result;
    }
    result.security = Security::Bogus;
    add_finding(result.findings, Stage::Denial,
                Defect::DenialNsec3RecordsMissing,
                "no NSEC3 records prove the non-existence of " +
                    qname.to_string());
    return result;
  }

  // NSEC3 records are present.
  if (m.sigs.empty()) {
    // A signed zone answering negatively with zero signatures — typically a
    // server unable to assemble denial because NSEC3PARAM is gone.
    result.security = Security::Bogus;
    add_finding(result.findings, Stage::Denial, Defect::DenialParamMissing,
                "negative response from signed zone is entirely unsigned "
                "(orphan NSEC3 present) for " +
                    qname.to_string());
    return result;
  }

  if (!check_nsec3_signatures(m, zone, all_keys, now, config,
                              result.findings)) {
    result.security = Security::Bogus;
    return result;
  }

  // Iteration-count policy (RFC 9276).
  for (const auto* set : m.nsec3) {
    if (const auto* n3 = first_nsec3(*set)) {
      if (n3->iterations > config.nsec3_iteration_limit) {
        result.security = Security::Insecure;
        add_finding(result.findings, Stage::Denial,
                    Defect::Nsec3IterationsTooHigh,
                    "NSEC3 iterations " + std::to_string(n3->iterations) +
                        " exceed the local limit");
        return result;
      }
    }
  }

  // Salt consistency against the apex NSEC3PARAM when the server included
  // it (our authoritative implementation attaches it to negative answers).
  if (m.nsec3param != nullptr) {
    const dns::Nsec3ParamRdata* param = nullptr;
    for (const auto& rd : m.nsec3param->rdatas) {
      if (const auto* p = std::get_if<dns::Nsec3ParamRdata>(&rd)) param = p;
    }
    if (param != nullptr) {
      for (const auto* set : m.nsec3) {
        const auto* n3 = first_nsec3(*set);
        if (n3 != nullptr && n3->salt != param->salt) {
          result.security = Security::Bogus;
          add_finding(result.findings, Stage::Denial,
                      Defect::DenialSaltMismatch,
                      "NSEC3 salt disagrees with the zone's NSEC3PARAM");
          return result;
        }
      }
    }
  }

  // Closest-encloser computation (RFC 5155 §8.3, abbreviated: we look for a
  // matching NSEC3 for an ancestor and a covering NSEC3 for the next-closer
  // name).
  const auto* sample = first_nsec3(*m.nsec3.front());
  const crypto::BytesView salt{sample->salt};
  const std::uint16_t iterations = sample->iterations;

  const auto find_match = [&](const dns::Name& name) -> bool {
    const auto hash = nsec3_hash(name, salt, iterations);
    for (const auto* set : m.nsec3) {
      if (owner_hash(set->name) == hash) return true;
    }
    return false;
  };
  const auto find_cover = [&](const dns::Name& name) -> bool {
    const auto hash = nsec3_hash(name, salt, iterations);
    for (const auto* set : m.nsec3) {
      const auto* n3 = first_nsec3(*set);
      if (n3 == nullptr) continue;
      const auto oh = owner_hash(set->name);
      if (oh == hash) return true;  // matching also suffices
      if (nsec3_covers(oh, n3->next_hashed_owner, hash)) return true;
    }
    return false;
  };

  // Walk up from qname to the zone apex looking for the closest encloser.
  dns::Name closest = qname;
  bool found_encloser = false;
  dns::Name next_closer = qname;
  while (closest.label_count() >= zone.label_count()) {
    if (find_match(closest)) {
      found_encloser = true;
      break;
    }
    if (closest.label_count() == zone.label_count()) break;
    next_closer = closest;
    closest = closest.parent();
  }

  if (!found_encloser) {
    result.security = Security::Bogus;
    add_finding(result.findings, Stage::Denial,
                Defect::DenialNsec3NoMatchingHash,
                "no NSEC3 matches any ancestor of " + qname.to_string());
    return result;
  }

  if (!find_cover(next_closer)) {
    result.security = Security::Bogus;
    add_finding(result.findings, Stage::Denial,
                Defect::DenialNsec3BadNextOwner,
                "no NSEC3 covers the next-closer name " +
                    next_closer.to_string());
    return result;
  }

  result.security = Security::Secure;
  return result;
}

RRsetValidation validate_ds_absence(
    const dns::Name& child_zone, const dns::Name& parent_zone,
    const std::vector<dns::RRset>& authority,
    const std::vector<dns::DnskeyRdata>& parent_keys, std::uint32_t now,
    const ValidatorConfig& config) {
  RRsetValidation result;
  const DenialMaterial m = collect_denial(authority);

  // Flat NSEC: the record at the delegation name proves the DS absence.
  if (m.nsec3.empty() && !m.nsec.empty()) {
    if (!check_denial_signatures(m.nsec, dns::RRType::NSEC, m.sigs,
                                 parent_zone, parent_keys, now, config,
                                 result.findings)) {
      result.security = Security::Bogus;
      return result;
    }
    for (const auto* set : m.nsec) {
      const auto* nsec = first_nsec(*set);
      if (nsec == nullptr || !(set->name == child_zone)) continue;
      if (!nsec->types.contains(dns::RRType::DS)) {
        result.security = Security::Insecure;
        return result;
      }
    }
    result.security = Security::Bogus;
    add_finding(result.findings, Stage::Denial,
                Defect::InsecureReferralProofFailed,
                "failed to verify an insecure referral proof for " +
                    child_zone.to_string());
    return result;
  }

  if (m.nsec3.empty()) {
    result.security = Security::Bogus;
    add_finding(result.findings, Stage::Denial,
                Defect::InsecureReferralProofFailed,
                "failed to verify an insecure referral proof for " +
                    child_zone.to_string());
    return result;
  }
  if (!check_nsec3_signatures(m, parent_zone, parent_keys, now, config,
                              result.findings)) {
    result.security = Security::Bogus;
    return result;
  }

  const auto* sample = first_nsec3(*m.nsec3.front());
  const auto hash =
      nsec3_hash(child_zone, crypto::BytesView{sample->salt},
                 sample->iterations);
  for (const auto* set : m.nsec3) {
    const auto* n3 = first_nsec3(*set);
    if (n3 == nullptr) continue;
    if (owner_hash(set->name) == hash) {
      if (!n3->types.contains(dns::RRType::DS)) {
        result.security = Security::Insecure;  // proven unsigned delegation
        return result;
      }
      result.security = Security::Bogus;
      add_finding(result.findings, Stage::Denial,
                  Defect::DenialNsec3NoMatchingHash,
                  "NSEC3 claims a DS exists for " + child_zone.to_string() +
                      " but none was served");
      return result;
    }
    // Opt-out covering record also proves an insecure delegation.
    if ((n3->flags & 0x01) != 0 &&
        nsec3_covers(owner_hash(set->name), n3->next_hashed_owner,
                     crypto::BytesView{hash})) {
      result.security = Security::Insecure;
      return result;
    }
  }

  result.security = Security::Bogus;
  add_finding(result.findings, Stage::Denial,
              Defect::InsecureReferralProofFailed,
              "failed to verify an insecure referral proof for " +
                  child_zone.to_string());
  return result;
}

}  // namespace ede::dnssec
