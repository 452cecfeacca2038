// Offline DNSSEC zone signing: key placement, NSEC3 chain construction and
// RRSIG generation — the simulated equivalent of dnssec-signzone.
#pragma once

#include "dnssec/keys.hpp"
#include "dnssec/sign.hpp"
#include "simnet/clock.hpp"
#include "zone/zone.hpp"

namespace ede::zone {

struct ZoneKeys {
  dnssec::SigningKey ksk;
  dnssec::SigningKey zsk;
};

[[nodiscard]] ZoneKeys make_zone_keys(const dns::Name& origin,
                                      std::uint8_t algorithm = 8);

/// Which authenticated-denial mechanism the signer installs.
enum class DenialMode {
  Nsec3,  // hashed denial (RFC 5155) — the testbed's configuration
  Nsec,   // flat denial (RFC 4034 §4)
  None,   // no denial records (for surgically built test zones)
};

/// The salt every policy starts with. Out of line: gcc 12's
/// -Wmaybe-uninitialized misfires on the initializer-list vector copy
/// when the default constructor gets inlined into a large frame.
[[nodiscard]] crypto::Bytes default_nsec3_salt();

struct SigningPolicy {
  DenialMode denial = DenialMode::Nsec3;
  std::uint16_t nsec3_iterations = 0;  // RFC 9276 recommends 0
  crypto::Bytes nsec3_salt = default_nsec3_salt();
  /// Set the NSEC3 opt-out flag (RFC 5155 §6) on every chain record. An
  /// opt-out span proves nothing about plain nonexistence, so RFC 8198
  /// resolvers must not synthesize NXDOMAIN from it (the aggressive-
  /// caching edge-case tests sign zones this way to pin that refusal).
  bool nsec3_opt_out = false;
  dnssec::SignatureWindow window = {sim::kDefaultNow - 86'400,
                                    sim::kDefaultNow + 30 * 86'400};
  /// Sign the DNSKEY RRset with the ZSK in addition to the KSK (the
  /// testbed's no-rrsig-ksk case needs the ZSK signature to survive).
  bool sign_dnskey_with_zsk = true;
};

/// Sign `zone` in place: installs the DNSKEY RRset, the NSEC3PARAM/NSEC3
/// chain and RRSIGs over every authoritative RRset. Glue and parent-side
/// NS records at delegation cuts stay unsigned, DS RRsets are signed
/// (RFC 4035 §2.2). Each RRSIG is computed over the content as it is now,
/// but only when first served or when the zone is next changed or read
/// whole (see Zone).
void sign_zone(Zone& zone, const ZoneKeys& keys, const SigningPolicy& policy);

/// The DS RRset the parent should publish for this zone.
[[nodiscard]] std::vector<dns::DsRdata> ds_records(
    const dns::Name& origin, const ZoneKeys& keys,
    std::uint8_t digest_type = 2);

}  // namespace ede::zone
