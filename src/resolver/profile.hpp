// Vendor behaviour profiles.
//
// The paper tests seven systems (BIND 9.19.9, Unbound 1.16.2, PowerDNS
// Recursor 4.8.2, Knot Resolver 5.6.0, Cloudflare DNS, Quad9, OpenDNS) and
// finds they disagree on 94 % of the testbed because each maps the same
// root causes to RFC 8914 codes with different specificity. A profile here
// is exactly that observable surface:
//
//   - which finding (dnssec/findings.hpp) surfaces as which EDE code,
//   - which DNSSEC algorithms the validator accepts (Cloudflare rejects
//     Ed448 and GOST; everyone rejects RSAMD5/DSA),
//   - EXTRA-TEXT phrasing quirks.
//
// Mappings are calibrated against the paper's Table 4 and documented
// per-vendor in the .cpp. The engine they annotate is shared.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "dnssec/findings.hpp"
#include "dnssec/validate.hpp"
#include "edns/ede.hpp"
#include "resolver/retry.hpp"
#include "simnet/address.hpp"

namespace ede::resolver {

enum class Vendor {
  Bind,
  Unbound,
  PowerDns,
  Knot,
  Cloudflare,
  Quad9,
  OpenDns,
};

/// The EDNS probe-and-fallback "dance" (RFC 6891 §6.2.2): how a vendor
/// reacts to an authority that mishandles the OPT pseudo-record. Every
/// profile retries the same server without EDNS the moment it sees an
/// explicit rejection — FORMERR (the pre-EDNS-server reply, RFC 6891 §7),
/// BADVERS to version 0, or a garbled or duplicated OPT (RFC 6891 §6.1.1
/// allows exactly one). Vendors differ on silence: Unbound-style
/// profiles also downgrade after repeated timeouts. All then remember the
/// verdict per server address (BIND's ADB EDNS flags, Unbound's
/// infra-cache edns_state) for a bounded time. Calibrated per vendor in
/// the .cpp; see DESIGN.md §5i.
struct EdnsDancePolicy {
  /// Consecutive EDNS timeouts against one server before the downgrade
  /// latch flips — the Unbound-style timeout-driven downgrade. Equal to
  /// the retry policy's attempts_per_server it fires exactly at server
  /// abandonment, so the verdict only shapes *later* contacts (via the
  /// InfraCache memory) and a merely lossy path never silently loses
  /// DNSSEC mid-resolution. Larger values disable timeout-driven
  /// downgrade altogether — the post-DNS-flag-day (2019) stance, where
  /// vendors ripped the timeout workarounds out and only an explicit
  /// FORMERR/BADVERS still triggers the dance.
  int timeouts_before_downgrade = 2;
  /// How long a learned plain-DNS-only verdict holds before the server is
  /// probed with EDNS again (the InfraCache re-probe TTL).
  std::uint32_t capability_ttl_ms = 900'000;
};

struct ResolverProfile {
  Vendor vendor = Vendor::Unbound;
  std::string name;              // display string, e.g. "BIND 9.19.9"
  sim::NodeAddress source;       // the resolver's own network address
  dnssec::ValidatorConfig validator;
  /// finding defect -> INFO-CODE; absent entry means no EDE is emitted.
  std::map<dnssec::Defect, edns::EdeCode> mapping;
  /// Attach EXTRA-TEXT from finding details.
  bool emit_extra_text = false;
  /// Knot's "LSLC: unsupported digest/key" style fixed texts per defect.
  std::map<dnssec::Defect, std::string> fixed_extra_text;
  /// Calibrated transport retry/backoff defaults (see retry.hpp).
  RetryPolicy retry;
  /// How this vendor handles EDNS-hostile authorities (DESIGN.md §5i).
  EdnsDancePolicy edns_dance;

  /// The EDE (if any) this profile emits for a finding.
  [[nodiscard]] std::optional<edns::ExtendedError> ede_for(
      const dnssec::Finding& finding) const;
};

[[nodiscard]] ResolverProfile profile_bind();

/// Not one of the paper's seven systems: an idealized implementation that
/// maps every finding to the most specific registered INFO-CODE, including
/// the codes the paper observed nobody had implemented yet — Signature
/// Expired before Valid (25), No Zone Key Bit Set (11) and Unsupported
/// NSEC3 Iter. Value (27). Used by the what-if experiment exploring the
/// paper's closing question: how much consistency would a common mapping
/// buy? (bench/whatif_reference)
[[nodiscard]] ResolverProfile profile_reference();
[[nodiscard]] ResolverProfile profile_unbound();
[[nodiscard]] ResolverProfile profile_powerdns();
[[nodiscard]] ResolverProfile profile_knot();
[[nodiscard]] ResolverProfile profile_cloudflare();
[[nodiscard]] ResolverProfile profile_quad9();
[[nodiscard]] ResolverProfile profile_opendns();

/// All seven, in the paper's Table 4 column order.
[[nodiscard]] std::vector<ResolverProfile> all_profiles();

}  // namespace ede::resolver
