#include "testbed/cases.hpp"

#include "simnet/byzantine.hpp"
#include "simnet/network.hpp"
#include "simnet/stream.hpp"

namespace ede::testbed {

std::string group_name(int group) {
  switch (group) {
    case 1: return "Control subdomain";
    case 2: return "DS misconfigurations";
    case 3: return "RRSIG misconfigurations";
    case 4: return "NSEC3 misconfigurations";
    case 5: return "DNSKEY misconfigurations";
    case 6: return "Invalid AAAA glue records";
    case 7: return "Invalid A glue records";
    case 8: return "Other";
  }
  return "Unknown";
}

const std::vector<CaseSpec>& all_cases() {
  static const std::vector<CaseSpec> cases = [] {
    std::vector<CaseSpec> c;
    const auto add = [&](CaseSpec spec) { c.push_back(std::move(spec)); };

    // Group 1 — control.
    add({.label = "valid",
         .group = 1,
         .description = "The correctly configured control domain"});

    // Group 2 — DS misconfigurations.
    add({.label = "no-ds",
         .group = 2,
         .description = "The subdomain is correctly signed but no DS record "
                        "was published at the parent zone",
         .ds_mode = DsMode::None});
    add({.label = "ds-bad-tag",
         .group = 2,
         .description = "The key tag field of the DS record at the parent "
                        "zone does not correspond to the KSK DNSKEY ID at "
                        "the child zone",
         .ds_mode = DsMode::BadTag});
    add({.label = "ds-bad-key-algo",
         .group = 2,
         .description = "The algorithm field of the DS record at the parent "
                        "zone does not correspond to the KSK DNSKEY "
                        "algorithm at the child zone",
         .ds_mode = DsMode::BadKeyAlgoField});
    add({.label = "ds-unassigned-key-algo",
         .group = 2,
         .description = "The algorithm value of the DS record at the parent "
                        "zone is unassigned (100)",
         .ds_mode = DsMode::UnassignedKeyAlgo});
    add({.label = "ds-reserved-key-algo",
         .group = 2,
         .description = "The algorithm value of the DS record at the parent "
                        "zone is reserved (200)",
         .ds_mode = DsMode::ReservedKeyAlgo});
    add({.label = "ds-unassigned-digest-algo",
         .group = 2,
         .description = "The digest algorithm value of the DS record at the "
                        "parent zone is unassigned (100)",
         .ds_mode = DsMode::UnassignedDigest});
    add({.label = "ds-bogus-digest-value",
         .group = 2,
         .description = "The digest value of the DS record at the parent "
                        "zone does not correspond to the KSK DNSKEY at the "
                        "child zone",
         .ds_mode = DsMode::BogusDigestValue});

    // Group 3 — RRSIG misconfigurations.
    add({.label = "rrsig-exp-all",
         .group = 3,
         .description = "All the RRSIG records are expired",
         .mutation = Mutation::RrsigExpireAll});
    add({.label = "rrsig-exp-a",
         .group = 3,
         .description = "The RRSIG over A RRset is expired",
         .mutation = Mutation::RrsigExpireA});
    add({.label = "rrsig-not-yet-all",
         .group = 3,
         .description = "All the RRSIG records are not yet valid",
         .mutation = Mutation::RrsigNotYetAll});
    add({.label = "rrsig-not-yet-a",
         .group = 3,
         .description = "The RRSIG over A RRset is not yet valid",
         .mutation = Mutation::RrsigNotYetA});
    add({.label = "rrsig-no-all",
         .group = 3,
         .description = "All the RRSIGs were removed from the zone file",
         .mutation = Mutation::RrsigRemoveAll});
    add({.label = "rrsig-no-a",
         .group = 3,
         .description = "The RRSIG over A RRset was removed from the zone "
                        "file",
         .mutation = Mutation::RrsigRemoveA});
    add({.label = "rrsig-exp-before-all",
         .group = 3,
         .description = "All the RRSIGs expired before the inception time",
         .mutation = Mutation::RrsigExpBeforeAll});
    add({.label = "rrsig-exp-before-a",
         .group = 3,
         .description = "The RRSIG over A RRset expired before the "
                        "inception time",
         .mutation = Mutation::RrsigExpBeforeA});

    // Group 4 — NSEC3 misconfigurations (observable on negative answers).
    add({.label = "nsec3-missing",
         .group = 4,
         .description = "All the NSEC3 records were removed from the zone "
                        "file",
         .mutation = Mutation::Nsec3Remove,
         .query_nonexistent = true});
    add({.label = "bad-nsec3-hash",
         .group = 4,
         .description = "Hashed owner names were modified in all the NSEC3 "
                        "records",
         .mutation = Mutation::Nsec3BadHash,
         .query_nonexistent = true});
    add({.label = "bad-nsec3-next",
         .group = 4,
         .description = "Next hashed owner names were modified in all the "
                        "NSEC3 records",
         .mutation = Mutation::Nsec3BadNext,
         .query_nonexistent = true});
    add({.label = "bad-nsec3-rrsig",
         .group = 4,
         .description = "RRSIGs over NSEC3 RRsets are bogus",
         .mutation = Mutation::Nsec3BadRrsig,
         .query_nonexistent = true});
    add({.label = "nsec3-rrsig-missing",
         .group = 4,
         .description = "RRSIGs over NSEC3 RRsets were removed from the "
                        "zone file",
         .mutation = Mutation::Nsec3RrsigRemove,
         .query_nonexistent = true});
    add({.label = "nsec3param-missing",
         .group = 4,
         .description = "NSEC3PARAM resource record was removed from the "
                        "zone file",
         .mutation = Mutation::Nsec3ParamRemove,
         .query_nonexistent = true});
    add({.label = "bad-nsec3param-salt",
         .group = 4,
         .description = "The salt value of the NSEC3PARAM resource record "
                        "is wrong",
         .mutation = Mutation::Nsec3ParamBadSalt,
         .query_nonexistent = true});
    add({.label = "no-nsec3param-nsec3",
         .group = 4,
         .description = "NSEC3 and NSEC3PARAM resource records were removed "
                        "from the zone file",
         .mutation = Mutation::Nsec3RemoveBoth,
         .query_nonexistent = true});
    add({.label = "nsec3-iter-200",
         .group = 4,
         .description = "NSEC3 iteration count is set to 200",
         .nsec3_iterations = 200,
         .query_nonexistent = true});

    // Group 5 — DNSKEY misconfigurations.
    add({.label = "no-zsk",
         .group = 5,
         .description = "The ZSK DNSKEY was removed from the zone file",
         .mutation = Mutation::ZskRemove});
    add({.label = "bad-zsk",
         .group = 5,
         .description = "The ZSK DNSKEY resource record is wrong",
         .mutation = Mutation::ZskCorrupt});
    add({.label = "no-ksk",
         .group = 5,
         .description = "The KSK DNSKEY was removed from the zone file",
         .mutation = Mutation::KskRemove});
    add({.label = "no-rrsig-ksk",
         .group = 5,
         .description = "The RRSIG over KSK DNSKEY was removed from the "
                        "zone file",
         .mutation = Mutation::KskRrsigRemove});
    add({.label = "bad-rrsig-ksk",
         .group = 5,
         .description = "The RRSIG over KSK DNSKEY is wrong",
         .mutation = Mutation::KskRrsigCorrupt});
    add({.label = "bad-ksk",
         .group = 5,
         .description = "The KSK DNSKEY is wrong",
         .mutation = Mutation::KskCorrupt});
    add({.label = "no-rrsig-dnskey",
         .group = 5,
         .description = "All the RRSIGs over DNSKEY RRsets were removed "
                        "from the zone file",
         .mutation = Mutation::DnskeyRrsigRemove});
    add({.label = "bad-rrsig-dnskey",
         .group = 5,
         .description = "All the RRSIGs over DNSKEY RRsets are wrong",
         .mutation = Mutation::DnskeyRrsigCorrupt});
    add({.label = "no-dnskey-256",
         .group = 5,
         .description = "The Zone Key Bit is set to 0 for the ZSK DNSKEY",
         .mutation = Mutation::ZskClearZoneBit});
    add({.label = "no-dnskey-257",
         .group = 5,
         .description = "The Zone Key Bit is set to 0 for the KSK DNSKEY",
         .mutation = Mutation::KskClearZoneBit});
    add({.label = "no-dnskey-256-257",
         .group = 5,
         .description = "The Zone Key Bit is set to 0 for both the KSK "
                        "DNSKEY and ZSK DNSKEY",
         .mutation = Mutation::BothClearZoneBit});
    add({.label = "bad-zsk-algo",
         .group = 5,
         .description = "The ZSK DNSKEY algorithm number is wrong",
         .mutation = Mutation::ZskWrongAlgoField});
    add({.label = "unassigned-zsk-algo",
         .group = 5,
         .description = "The ZSK DNSKEY algorithm number is unassigned "
                        "(100)",
         .algorithm = 100});  // built with an unassigned ZSK algorithm
    add({.label = "reserved-zsk-algo",
         .group = 5,
         .description = "The ZSK DNSKEY algorithm number is reserved (200)",
         .algorithm = 200});

    // Group 6 — invalid AAAA glue records (unsigned children; the defect
    // is purely the unroutable glue).
    const auto glue6 = [&](std::string label, std::string description,
                           std::string address) {
      add({.label = std::move(label),
           .group = 6,
           .description = std::move(description),
           .signed_zone = false,
           .ds_mode = DsMode::None,
           .glue_address = std::move(address),
           .glue_is_aaaa = true});
    };
    glue6("v6-mapped",
          "The AAAA glue record at the parent zone is an IPv6-mapped IPv4 "
          "address",
          "::ffff:192.0.2.1");
    glue6("v6-multicast",
          "The AAAA glue record at the parent zone is from a multicast "
          "range",
          "ff02::1");
    glue6("v6-unspecified",
          "The AAAA glue record at the parent zone is an unspecified "
          "address",
          "::");
    glue6("v4-hex",
          "The AAAA glue record at the parent zone is an IPv4 address in "
          "hex form",
          "::c633:6401");
    glue6("v6-unique-local",
          "The AAAA glue record at the parent zone is from a unique local "
          "address",
          "fd00::1");
    glue6("v6-doc",
          "The AAAA glue record at the parent zone is from the "
          "documentation range",
          "2001:db8::1");
    glue6("v6-link-local",
          "The AAAA glue record at the parent zone is a link local address",
          "fe80::1");
    glue6("v6-localhost",
          "The AAAA glue record at the parent zone is a localhost", "::1");
    glue6("v6-mapped-dep",
          "The AAAA glue record at the parent zone is a deprecated "
          "IPv6-mapped IPv4 address",
          "::192.0.2.1");
    glue6("v6-nat64",
          "The AAAA glue record at the parent zone is used for NAT64",
          "64:ff9b::c000:201");

    // Group 7 — invalid A glue records.
    const auto glue4 = [&](std::string label, std::string description,
                           std::string address) {
      add({.label = std::move(label),
           .group = 7,
           .description = std::move(description),
           .signed_zone = false,
           .ds_mode = DsMode::None,
           .glue_address = std::move(address)});
    };
    glue4("v4-private-10",
          "The A glue record at the parent zone is a private address",
          "10.0.0.1");
    glue4("v4-doc",
          "The A glue record at the parent zone is a documentation address",
          "192.0.2.1");
    glue4("v4-private-172",
          "The A glue record at the parent zone is a private address",
          "172.16.0.1");
    glue4("v4-loopback",
          "The A glue record at the parent zone is a loopback address",
          "127.0.0.1");
    glue4("v4-private-192",
          "The A glue record at the parent zone is a private address",
          "192.168.0.1");
    glue4("v4-reserved",
          "The A glue record at the parent zone is a reserved address",
          "240.0.0.1");
    glue4("v4-this-host", "The A glue record at the parent zone is 0.0.0.0",
          "0.0.0.0");
    glue4("v4-link-local",
          "The A glue record at the parent zone is a link-local address",
          "169.254.0.1");

    // Group 8 — other corner cases.
    add({.label = "unsigned",
         .group = 8,
         .description = "The domain name is not signed with DNSSEC",
         .signed_zone = false,
         .ds_mode = DsMode::None});
    add({.label = "ed448",
         .group = 8,
         .description = "The zone is signed with ED448 algorithm",
         .algorithm = 16});
    add({.label = "rsamd5",
         .group = 8,
         .description = "The zone is signed with RSAMD5 algorithm",
         .algorithm = 1});
    add({.label = "dsa",
         .group = 8,
         .description = "The zone is signed with DSA algorithm",
         .algorithm = 3});
    add({.label = "allow-query-none",
         .group = 8,
         .description = "Nameserver does not accept queries for the "
                        "subdomain",
         .acl = server::QueryAcl::DenyAll});
    add({.label = "allow-query-localhost",
         .group = 8,
         .description = "Nameserver only accepts queries from the localhost",
         .acl = server::QueryAcl::LocalhostOnly});

    return c;
  }();
  return cases;
}

const std::vector<StreamCaseSpec>& stream_cases() {
  static const std::vector<StreamCaseSpec> cases = [] {
    std::vector<StreamCaseSpec> c;
    const auto add = [&c](StreamCaseSpec spec) { c.push_back(std::move(spec)); };
    // The stingy UDP limit that TC-baits the big TXT answer, and one that
    // lets it through.
    const server::ServerConfig stingy{.udp_payload_size = 512};
    const server::ServerConfig roomy{.udp_payload_size = 4'096};

    // Clean fallback: the baseline the failure cases contrast against.
    add({.label = "tc-clean-fallback",
         .description = "A 512-byte authority truncates the big TXT answer; "
                        "the DoTCP retry delivers it intact",
         .serving = {.config = stingy}});

    // Hostile stream behaviors, every one TC-baited from the same stingy
    // UDP limit. All must degrade to SERVFAIL (EDE 22/23 where the vendor
    // can express them), never a silent NOERROR.
    add({.label = "tcp-refused",
         .description = "TC over UDP, but every TCP connection is refused",
         .serving = {.config = stingy,
                     .stream_faults = {sim::StreamBehavior::refuse()}},
         .expect_success = false});
    add({.label = "tcp-stall",
         .description = "TC over UDP; TCP accepts the query then never "
                        "sends a byte",
         .serving = {.config = stingy,
                     .stream_faults = {sim::StreamBehavior::stall()}},
         .expect_success = false});
    add({.label = "tcp-midstream-close",
         .description = "TC over UDP; TCP closes after the first bytes of "
                        "the response frame",
         .serving = {.config = stingy,
                     .stream_faults = {sim::StreamBehavior::mid_close()}},
         .expect_success = false});
    add({.label = "tc-then-garbage",
         .description = "TC over UDP; the TCP response frame is garbage "
                        "(zero-length or over-declared length prefix)",
         .serving = {.config = stingy,
                     .stream_faults = {sim::StreamBehavior::garbage_frame()}},
         .expect_success = false});
    // At 1232 only the big TXT answer truncates.
    add({.label = "tc-different-answer",
         .description = "TC over UDP; TCP serves a different, unsigned "
                        "answer (validation must reject it)",
         .serving = {.config = {.udp_payload_size = 1'232},
                     .stream_rewrites =
                         {sim::ByzantineBehavior::different_answer()}},
         .expect_success = false});

    // Fragmentation blackhole: no TC at all — the big answer leaves the
    // server and the fragments never arrive (the failure mode the 1232
    // flag-day default exists to avoid).
    add({.label = "frag-drop-dnssec",
         .description = "A 4096-byte advertisement invites a fragmented "
                        "answer that is dropped in flight",
         .serving = {.config = roomy, .path_fault = sim::Fault::frag_drop()},
         .resolver_payload = 4'096,
         .expect_success = false});

    // EDNS buffer-size sweep (512 / 1232 / 4096) over an honest authority:
    // small advertisements force the stream, 4096 fits over UDP.
    add({.label = "edns-512",
         .description = "Resolver advertises 512: every signed answer "
                        "truncates and falls back to TCP",
         .serving = {.config = roomy},
         .resolver_payload = 512});
    add({.label = "edns-1232",
         .description = "Resolver advertises 1232: the big TXT answer "
                        "still truncates and falls back to TCP",
         .serving = {.config = roomy},
         .resolver_payload = 1'232});
    add({.label = "edns-4096",
         .description = "Resolver advertises 4096: the big TXT answer "
                        "fits over UDP, no fallback",
         .serving = {.config = roomy},
         .resolver_payload = 4'096});

    return c;
  }();
  return cases;
}

const std::vector<EdnsCaseSpec>& edns_cases() {
  static const std::vector<EdnsCaseSpec> cases = [] {
    std::vector<EdnsCaseSpec> c;
    const auto add = [&c](EdnsCaseSpec spec) { c.push_back(std::move(spec)); };
    // An authority that mishandles OPT itself does so on both transports.
    const auto everywhere = [](sim::ByzantineBehavior behavior) {
      return ChildServing{.datagram_rewrites = {behavior},
                          .stream_rewrites = {behavior}};
    };

    // Control: a clean EDNS authority behind a secure delegation.
    add({.label = "edns-clean",
         .description = "Correctly configured EDNS authority (control)",
         .signed_zone = true});

    // The OPT-eating firewall. Timeout-driven vendors learn the verdict
    // when the attempt budget runs dry and succeed plain on re-contact;
    // post-flag-day vendors never downgrade on silence. The firewall
    // filters datagrams: a stream reaches the authority untouched.
    const ChildServing opt_eating_firewall{
        .datagram_rewrites = {sim::ByzantineBehavior::edns_drop()}};
    add({.label = "edns-drop",
         .description = "Authority silently drops any query carrying OPT",
         .serving = opt_eating_firewall});
    add({.label = "edns-drop-signed",
         .description = "OPT-dropping authority behind a secure delegation "
                        "— the degraded plain answer cannot validate",
         .serving = opt_eating_firewall,
         .signed_zone = true});

    // The pre-EDNS-era server (RFC 6891 §7): explicit FORMERR triggers
    // the immediate plain-DNS retry in every vendor.
    add({.label = "edns-formerr",
         .description = "Authority answers FORMERR to any EDNS query",
         .serving = everywhere(sim::ByzantineBehavior::edns_formerr())});
    add({.label = "edns-formerr-signed",
         .description = "FORMERR-on-OPT authority behind a secure "
                        "delegation — the dance succeeds but validation "
                        "is impossible without the DO bit",
         .serving = everywhere(sim::ByzantineBehavior::edns_formerr()),
         .signed_zone = true});
    add({.label = "edns-formerr-always",
         .description = "Authority answers FORMERR to everything — the "
                        "plain-DNS retry cannot save it",
         .serving = {.config = {.fixed_rcode = dns::RCode::FORMERR}}});

    add({.label = "edns-badvers",
         .description = "Authority replies BADVERS even to EDNS version 0",
         .serving = everywhere(sim::ByzantineBehavior::edns_badvers())});

    // EDNS-oblivious rather than hostile: the answer is usable but OPT
    // (and with it every RRSIG) never comes back.
    add({.label = "edns-strip-opt",
         .description = "Authority never echoes the OPT; the signed "
                        "delegation loses its signatures",
         .serving = everywhere(sim::ByzantineBehavior::edns_strip_opt()),
         .signed_zone = true});

    // Echoing unknown options back is legal-ish rubbish the resolver must
    // tolerate (and round-trip byte-identically, RFC 6891 §6.1.2).
    add({.label = "edns-echo-options",
         .description = "Authority echoes an unregistered option back in "
                        "every response",
         .serving = everywhere(sim::ByzantineBehavior::edns_echo_extra()),
         .signed_zone = true});

    // Buffer-size lie: spurious TC on an answer that fit the advertised
    // size. Advertised sizes never go below 512, so the server truncates
    // at 512 whatever the client offered; DoTCP rescues the signed answer.
    add({.label = "edns-buffer-lie",
         .description = "Authority truncates at 512 regardless of the "
                        "advertised size; DoTCP delivers the answer",
         .serving = {.config = {.udp_payload_size = 512}},
         .signed_zone = true,
         .query_txt = true});

    // Garbled OPT material: undecodable rdata tail or a duplicated OPT.
    add({.label = "edns-garble",
         .description = "Authority garbles the OPT rdata (an option header "
                        "declaring more payload than the record carries)",
         .serving = everywhere(sim::ByzantineBehavior::edns_garble())});
    add({.label = "edns-duplicate-opt",
         .description = "Authority attaches two OPT records per response",
         .serving = everywhere(sim::ByzantineBehavior::edns_duplicate_opt())});

    return c;
  }();
  return cases;
}

}  // namespace ede::testbed
