// The complete testbed: a simulated DNS hierarchy rooted at a signed root
// zone, a signed com zone, the signed extended-dns-errors.com zone, and
// its 63 (mis)configured delegations — each hosted by its own
// authoritative server on the simulated network.
#pragma once

#include <memory>
#include <optional>

#include "resolver/resolver.hpp"
#include "server/auth_server.hpp"
#include "testbed/cases.hpp"
#include "testbed/mutations.hpp"

namespace ede::testbed {

struct TestbedOptions {
  /// Also build the truncation/DoTCP scenario family (stream_cases()).
  /// Every authoritative server listens on both transports regardless —
  /// real authorities answer TCP port 53 — this flag only adds the ten
  /// extra stream-scenario children. Off by default so the classic
  /// 63-case worlds keep exactly 63 cases.
  bool stream_family = false;
  /// Also build the EDNS-compliance zoo family (edns_cases()): children
  /// served by authorities that mishandle the OPT pseudo-record itself
  /// (RFC 6891, DESIGN.md §5i). Off by default for the same reason.
  bool edns_family = false;
};

class Testbed {
 public:
  /// Build every zone, sign, mutate, and attach all servers to `network`.
  explicit Testbed(std::shared_ptr<sim::Network> network,
                   TestbedOptions options = {});

  [[nodiscard]] const std::vector<CaseSpec>& cases() const {
    return all_cases();
  }

  /// The name a scanner should query to exercise this case (the subdomain
  /// apex, or a nonexistent child for the NSEC3 group).
  [[nodiscard]] dns::Name query_name(const CaseSpec& spec) const;

  /// Absolute origin of the child zone labelled `label` — also the name
  /// to query for a scenario-family row (the apex; the oversized record
  /// set is the TXT RRset there).
  [[nodiscard]] dns::Name child_origin(std::string_view label) const;

  [[nodiscard]] const std::vector<sim::NodeAddress>& root_servers() const {
    return root_servers_;
  }
  [[nodiscard]] const dns::DnskeyRdata& trust_anchor() const {
    return trust_anchor_;
  }
  [[nodiscard]] const dns::Name& base_domain() const { return base_domain_; }

  /// Build a resolver wired to this testbed for the given vendor profile.
  [[nodiscard]] resolver::RecursiveResolver make_resolver(
      resolver::ResolverProfile profile,
      resolver::ResolverOptions options = {}) const;

  /// Direct zone access for white-box tests.
  [[nodiscard]] std::shared_ptr<const zone::Zone> child_zone(
      std::string_view label) const;

  /// Network address of a case's authoritative server (its glue), for
  /// fault injection in chaos tests. Covers the scenario families' labels
  /// too when they were built.
  [[nodiscard]] std::optional<sim::NodeAddress> server_address(
      std::string_view label) const;

  // --- the scenario families -----------------------------------------
  /// Empty unless TestbedOptions::stream_family was set.
  [[nodiscard]] const std::vector<StreamCaseSpec>& stream_case_specs() const;
  /// Empty unless TestbedOptions::edns_family was set.
  [[nodiscard]] const std::vector<EdnsCaseSpec>& edns_case_specs() const;
  /// The query type for an EDNS case's first or second contact. The
  /// second contact flips the type so it misses the answer/SERVFAIL
  /// caches and exercises the InfraCache capability memory instead.
  [[nodiscard]] static dns::RRType edns_qtype(const EdnsCaseSpec& spec,
                                              bool second_contact);

 private:
  void build_hierarchy();
  /// A scenario-family child: an apex A and the ~2 KB TXT RRset, signed
  /// with a real DS when `signed_zone`, added through add_child.
  void add_family_child(zone::Zone& base_zone, std::string_view label,
                        std::string_view glue_addr,
                        const ChildServing& serving, bool signed_zone);
  /// Publish a child's delegation in the base zone (NS, glue, `ds`), serve
  /// it from the glue address when that is routable, and record its zone
  /// and address under `label`.
  void add_child(zone::Zone& base_zone, std::string_view label,
                 std::shared_ptr<const zone::Zone> child_zone,
                 std::string_view glue_addr, bool glue_is_aaaa,
                 const std::vector<dns::DsRdata>& ds,
                 const ChildServing& serving);
  /// Serve `zone` at `address`: one AuthServer endpoint on both
  /// transports, with `serving`'s hostility installed at the address.
  void serve(const sim::NodeAddress& address,
             std::shared_ptr<const zone::Zone> zone,
             const ChildServing& serving);

  std::shared_ptr<sim::Network> network_;
  TestbedOptions options_;
  dns::Name base_domain_;
  std::vector<sim::NodeAddress> root_servers_;
  dns::DnskeyRdata trust_anchor_;
  std::vector<std::shared_ptr<server::AuthServer>> servers_;
  std::map<std::string, std::shared_ptr<const zone::Zone>, std::less<>>
      child_zones_;
  std::map<std::string, sim::NodeAddress, std::less<>> child_addresses_;
};

}  // namespace ede::testbed
