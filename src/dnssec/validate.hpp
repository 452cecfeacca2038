// The validating engine (RFC 4035 + RFC 5155 denial of existence).
//
// All seven emulated resolver profiles share this engine; they differ only
// in configuration (supported algorithms, iteration limits) and in how the
// produced findings are mapped to RFC 8914 codes. The engine therefore
// reports defects at the finest granularity the wire data supports — the
// profile decides how much of that specificity to surface, which is the
// effect the paper measures.
#pragma once

#include <set>

#include "dnscore/rr.hpp"
#include "dnssec/findings.hpp"
#include "dnssec/keys.hpp"
#include "dnssec/nsec3.hpp"

namespace ede::dnssec {

struct ValidatorConfig {
  std::set<std::uint8_t> supported_algorithms = default_supported_algorithms();
  /// Above this, the zone is treated as insecure (RFC 9276 §3.2).
  std::uint16_t nsec3_iteration_limit = kHardMaxIterations;
};

struct KeyTrustResult {
  Security security = Security::Indeterminate;
  std::vector<Finding> findings;
  /// Usable zone keys once trust is established (empty otherwise).
  std::vector<dns::DnskeyRdata> zone_keys;
};

/// Establish trust in a zone's DNSKEY RRset from its delegation DS set.
/// `dnskey_rrset` may be null when the fetch produced nothing.
[[nodiscard]] KeyTrustResult validate_zone_keys(
    const dns::Name& zone, const std::vector<dns::DsRdata>& ds_set,
    const dns::RRset* dnskey_rrset,
    const std::vector<dns::RrsigRdata>& dnskey_sigs, std::uint32_t now,
    const ValidatorConfig& config);

/// Trust-anchor variant: the anchor plays the role of the DS set.
[[nodiscard]] KeyTrustResult validate_zone_keys_with_anchor(
    const dns::Name& zone, const dns::DnskeyRdata& trust_anchor,
    const dns::RRset* dnskey_rrset,
    const std::vector<dns::RrsigRdata>& dnskey_sigs, std::uint32_t now,
    const ValidatorConfig& config);

struct RRsetValidation {
  Security security = Security::Indeterminate;
  std::vector<Finding> findings;
};

/// Validate one answer RRset against the zone's DNSKEY RRset.
/// `all_keys` is the complete DNSKEY RRset (including keys that are not
/// usable — the engine distinguishes "key absent" from "key unusable").
[[nodiscard]] RRsetValidation validate_answer_rrset(
    const dns::RRset& rrset, const std::vector<dns::RrsigRdata>& sigs,
    const dns::Name& zone, const std::vector<dns::DnskeyRdata>& all_keys,
    std::uint32_t now, const ValidatorConfig& config);

/// Validate an NXDOMAIN/NODATA response's authority section. Handles both
/// NSEC3 (RFC 5155) and flat NSEC (RFC 4034 §4) proofs; `qtype` is needed
/// for NODATA bitmap checks.
[[nodiscard]] RRsetValidation validate_negative_response(
    const dns::Name& qname, dns::RRType qtype, const dns::Name& zone,
    const std::vector<dns::RRset>& authority,
    const std::vector<dns::DnskeyRdata>& all_keys, std::uint32_t now,
    const ValidatorConfig& config);

/// Validate the parent-side proof that a delegation has no DS record
/// (the "insecure delegation" proof, RFC 5155 §8.9). `authority` is the
/// referral's authority section.
[[nodiscard]] RRsetValidation validate_ds_absence(
    const dns::Name& child_zone, const dns::Name& parent_zone,
    const std::vector<dns::RRset>& authority,
    const std::vector<dns::DnskeyRdata>& parent_keys, std::uint32_t now,
    const ValidatorConfig& config);

/// Temporal classification shared by all signature checks.
enum class SigTemporal { Valid, Expired, NotYetValid, ExpiredBeforeValid };
[[nodiscard]] SigTemporal classify_temporal(const dns::RrsigRdata& sig,
                                            std::uint32_t now);

}  // namespace ede::dnssec
