// The 63 testbed subdomains of extended-dns-errors.com (paper Tables 2/3),
// each described by a declarative spec: how the child zone is built, what
// is mutated after signing, what the parent publishes, and what query
// exercises the defect.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "server/auth_server.hpp"
#include "simnet/byzantine.hpp"
#include "simnet/network.hpp"
#include "simnet/stream.hpp"

namespace ede::testbed {

/// Post-signing zone mutations (one per testbed misconfiguration family).
enum class Mutation {
  None,
  RrsigExpireAll,       // all RRSIGs expired
  RrsigExpireA,         // only the RRSIG over the apex A RRset expired
  RrsigNotYetAll,
  RrsigNotYetA,
  RrsigRemoveAll,
  RrsigRemoveA,
  RrsigExpBeforeAll,    // expiration precedes inception, everywhere
  RrsigExpBeforeA,
  Nsec3Remove,          // drop the NSEC3 chain
  Nsec3BadHash,         // re-own NSEC3s under wrong hashes (re-signed)
  Nsec3BadNext,         // corrupt next-hashed-owner fields (re-signed)
  Nsec3BadRrsig,        // corrupt the signatures over NSEC3 RRsets
  Nsec3RrsigRemove,     // drop the signatures over NSEC3 RRsets
  Nsec3ParamRemove,     // drop NSEC3PARAM (server can't build denial)
  Nsec3ParamBadSalt,    // NSEC3 record salts disagree with NSEC3PARAM
  Nsec3RemoveBoth,      // drop NSEC3PARAM and the NSEC3 chain
  ZskRemove,            // drop the ZSK DNSKEY (answers reference a ghost key)
  ZskCorrupt,           // tag-preserving corruption of the ZSK key material
  KskRemove,            // drop the KSK DNSKEY (DS matches nothing)
  KskRrsigRemove,       // drop only the KSK's signature over DNSKEY
  KskRrsigCorrupt,      // corrupt only the KSK's signature over DNSKEY
  KskCorrupt,           // corrupt the KSK key material (DS tag mismatch)
  DnskeyRrsigRemove,    // drop every signature over the DNSKEY RRset
  DnskeyRrsigCorrupt,   // corrupt every signature over the DNSKEY RRset
  ZskClearZoneBit,      // clear the Zone Key bit on the ZSK (tag-preserving)
  KskClearZoneBit,      // clear the Zone Key bit on the KSK (tag-preserving)
  BothClearZoneBit,
  ZskWrongAlgoField,    // DNSKEY algorithm field disagrees with its RRSIGs
  StandbyKskUnsigned,   // add a stand-by KSK with no covering RRSIG
                        // (not in the paper's testbed; used by the scan)
};

/// How the parent publishes (or mangles) the delegation's DS record.
enum class DsMode {
  Normal,
  None,               // correctly signed child, no DS at the parent
  BadTag,
  BadKeyAlgoField,    // DS algorithm field differs from the KSK's
  UnassignedKeyAlgo,  // algorithm 100
  ReservedKeyAlgo,    // algorithm 200
  UnassignedDigest,   // digest type 100
  BogusDigestValue,
};

struct CaseSpec {
  std::string label;   // the subdomain, e.g. "rrsig-exp-all"
  int group;           // Table 2 group number (1..8)
  std::string description;  // Table 3 text

  bool signed_zone = true;
  std::uint8_t algorithm = 8;       // RSASHA256 unless the case says otherwise
  std::uint16_t nsec3_iterations = 0;
  Mutation mutation = Mutation::None;
  DsMode ds_mode = DsMode::Normal;
  /// Override the nameserver glue (the group 6/7 special addresses).
  /// Empty string = allocate a healthy routable address.
  std::string glue_address;
  bool glue_is_aaaa = false;
  server::QueryAcl acl = server::QueryAcl::AllowAll;
  /// Group 4 cases are only observable on negative answers.
  bool query_nonexistent = false;
};

/// Table 2 group names, indexed 1..8.
[[nodiscard]] std::string group_name(int group);

/// All 63 specs in the paper's order.
[[nodiscard]] const std::vector<CaseSpec>& all_cases();

// --- the scenario families ---------------------------------------------
// Two families beyond the 63 Table 4 cases, each child an apex A plus a
// ~2 KB TXT RRset on its own authority. A row names that authority's
// hostility with the simulator's own factories: the Byzantine zoo
// (simnet/byzantine.hpp), the stream faults (simnet/stream.hpp) and the
// path faults (simnet/network.hpp).

/// How a scenario child's authority is served: its configuration, and
/// what is installed at its address on either transport.
struct ChildServing {
  server::ServerConfig config;
  /// Rewrites of datagram replies (Network::set_mutator).
  std::vector<sim::ByzantineBehavior> datagram_rewrites;
  /// Rewrites of stream replies (StreamTransport::set_mutator).
  std::vector<sim::ByzantineBehavior> stream_rewrites;
  /// StreamTransport::set_behaviors.
  std::vector<sim::StreamBehavior> stream_faults;
  /// Network::inject_fault.
  sim::Fault path_fault = sim::Fault::none();
};

// The truncation / DoTCP family: children whose signed TXT answer is far
// too big for a small UDP limit, served by authorities whose stream side
// misbehaves in the ways the DoTCP measurement studies catalogue. Built
// only when TestbedOptions::stream_family is set.
struct StreamCaseSpec {
  std::string label;        // the subdomain, e.g. "tcp-refused"
  std::string description;
  /// `config.udp_payload_size` is the authority's UDP cap — what forces
  /// the TC bit.
  ChildServing serving;
  /// The resolver-side EDNS advertisement (the buffer-size sweep).
  std::uint16_t resolver_payload = 1'232;
  /// Whether resolution should deliver the signed TXT answer.
  bool expect_success = true;
};

/// The stream scenario specs (fixed order, like all_cases()).
[[nodiscard]] const std::vector<StreamCaseSpec>& stream_cases();

// The EDNS-compliance zoo family (RFC 6891): children served by
// authorities that mishandle the OPT pseudo-record itself, exercising the
// resolver's probe-and-fallback dance and its per-server capability
// memory (DESIGN.md §5i). Built only when TestbedOptions::edns_family is
// set.
struct EdnsCaseSpec {
  std::string label;  // the subdomain, e.g. "edns-drop"
  std::string description;
  ChildServing serving;
  /// Signed children make the DNSSEC interaction observable — a degraded
  /// plain-DNS answer has no DO bit and loses its signatures, so a secure
  /// delegation turns the transport pathology into a validation failure.
  /// Unsigned children isolate the transport dance itself.
  bool signed_zone = false;
  /// Query the oversized TXT RRset instead of the apex A (the buffer-lie
  /// row needs an answer big enough for the spurious truncation to bite).
  bool query_txt = false;
};

/// The EDNS zoo specs (fixed order, like all_cases()).
[[nodiscard]] const std::vector<EdnsCaseSpec>& edns_cases();

}  // namespace ede::testbed
