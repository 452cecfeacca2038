// Authoritative nameserver (RFC 1034 §4.3.2 lookup) running on the
// simulated network. Serves one or more zones, produces referrals with
// glue and DS material, NSEC3-backed negative answers, and models the
// server-side configuration the paper's testbed and wild scan rely on:
// query ACLs, fixed-RCODE (REFUSED/SERVFAIL/NOTAUTH/FORMERR) responders
// and the advertised UDP payload size. A server always answers honestly
// for its configuration; hostile answers (mangled questions, the RFC 6891
// OPT pathologies) are rewritten on the wire by the Byzantine zoo in
// simnet/byzantine.hpp.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "dnscore/arena.hpp"
#include "dnscore/message.hpp"
#include "simnet/network.hpp"
#include "zone/zone.hpp"

namespace ede::server {

enum class QueryAcl {
  AllowAll,
  DenyAll,         // the testbed's allow-query-none
  LocalhostOnly,   // the testbed's allow-query-localhost
};

struct ServerConfig {
  QueryAcl acl = QueryAcl::AllowAll;
  /// When set, every query is answered with this RCODE and no records —
  /// the wild scan's REFUSED/SERVFAIL/NOTAUTH authorities and the
  /// testbed's FORMERR-to-everything server.
  std::optional<dns::RCode> fixed_rcode;
  /// Maximum UDP payload this server advertises and truncates at (512
  /// models the EDNS buffer-size lie: spurious TC for larger offers).
  std::uint16_t udp_payload_size = 1232;
  /// RFC 9567 Report-Channel: advertise this reporting-agent domain in
  /// every EDNS response so resolvers can report resolution failures.
  std::optional<dns::Name> report_agent;
};

class AuthServer {
 public:
  explicit AuthServer(ServerConfig config = {}) : config_(config) {}

  /// Zones are shared: the testbed builds one Zone object per zone and
  /// hands it to every server that hosts it.
  void add_zone(std::shared_ptr<const zone::Zone> zone);

  [[nodiscard]] const ServerConfig& config() const { return config_; }
  [[nodiscard]] ServerConfig& config() { return config_; }

  /// Handle a parsed query (exposed for direct unit testing). A query
  /// that arrived over a stream (`ctx.over_stream`) is never truncated: a
  /// stream carries any message the two-byte length prefix can frame, so
  /// the TC bit is never set there (RFC 7766 §8).
  [[nodiscard]] dns::Message handle(const dns::Message& query,
                                    const sim::PacketContext& ctx) const;

  /// Wire-level entry point for both transports: hand the same endpoint
  /// to Network::attach and StreamTransport::listen. An unparsable query
  /// gets no reply, which the datagram side reads as silence and the
  /// stream side as a closed connection.
  [[nodiscard]] sim::Endpoint endpoint() const;

 private:
  [[nodiscard]] const zone::Zone* zone_for(const dns::Name& qname) const;

  void answer_from_zone(const zone::Zone& zone, const dns::Name& qname,
                        dns::RRType qtype, bool dnssec_ok,
                        dns::Message& response) const;

  void add_referral(const zone::Zone& zone, const dns::Name& cut,
                    bool dnssec_ok, dns::Message& response) const;

  void add_negative(const zone::Zone& zone, const dns::Name& qname,
                    bool nxdomain, bool dnssec_ok,
                    dns::Message& response) const;

  ServerConfig config_;
  std::vector<std::shared_ptr<const zone::Zone>> zones_;
  /// Reused serialize/parse scratch for the wire entry point and the
  /// truncation size check. A server handles one packet at a time (the
  /// simulated network is single-threaded per world), so one arena
  /// suffices; mutable because handling is logically const.
  mutable dns::MessageArena arena_;
};

}  // namespace ede::server
