// The simulated Internet for the wild scan: a real signed root zone
// delegating to ~300 synthetic TLD authorities, which in turn delegate to
// a pool of provider nameservers hosting the scaled domain population.
//
// TLD and provider responses are synthesized on demand from the
// deterministic DomainSpec table (building 303 k pre-signed zones up front
// would cost gigabytes; the on-demand zones are bit-identical to what a
// pre-built zone would serve because all key material is derived from the
// zone name).
#pragma once

#include <memory>

#include "dnscore/name.hpp"
#include "resolver/resolver.hpp"
#include "scan/population.hpp"
#include "server/auth_server.hpp"
#include "testbed/mutations.hpp"

namespace ede::scan {

/// How each category's child zone and delegation are served.
struct ServingPlan {
  bool signed_zone = true;
  testbed::Mutation mutation = testbed::Mutation::None;
  enum class Ds { None, Normal, BadTag, GostDigest } ds = Ds::Normal;
  /// Provider pool the nameserver address comes from.
  enum class Pool { Healthy, Refused, Timeout, Unroutable, Mangle, NotAuth }
      pool = Pool::Healthy;
  bool second_healthy_ns = false;  // PartialFail: dead NS + healthy NS
  bool omit_referral_proof = false;  // NsecMissing
  bool cname_loop = false;
};

[[nodiscard]] ServingPlan plan_for(Category category);

/// Number of distinct dead *responding* nameserver addresses the
/// population references (the scaled analogue of the paper's "293 k
/// unique nameservers"); computable without building a world.
[[nodiscard]] std::size_t dead_provider_count(const Population& population);

/// World-construction knobs beyond the population itself.
struct WorldOptions {
  /// Default RR TTL of the on-demand child zones. The wild scan keeps the
  /// classic 3600 s; the serving benchmark shortens it so records expire
  /// (and the prefetcher earns its keep) within a tractable virtual-time
  /// trace. Delegation NS/glue TTLs at the TLD stay 3600 s either way.
  std::uint32_t child_zone_ttl = 3'600;
  /// Also register every attached authority as a DoTCP stream listener.
  /// The wild scan keeps this off — its calibrated EDE 22/23 counts
  /// include authorities that only speak UDP, so oversized signed answers
  /// (TC=1 -> DoTCP) fail there. A frontline serving world turns it on:
  /// production authorities speak TCP, and a signed NXDOMAIN with its
  /// NSEC3 proofs routinely overflows a 1232-byte UDP budget.
  bool stream_listeners = false;
};

class ProviderServer;

class ScanWorld {
 public:
  ScanWorld(std::shared_ptr<sim::Network> network, const Population& population,
            WorldOptions world_options = {});

  [[nodiscard]] const std::vector<sim::NodeAddress>& root_servers() const {
    return root_servers_;
  }
  [[nodiscard]] const dns::DnskeyRdata& trust_anchor() const {
    return trust_anchor_;
  }

  [[nodiscard]] resolver::RecursiveResolver make_resolver(
      resolver::ResolverProfile profile,
      resolver::ResolverOptions options = {}) const;

  /// Install the cache entries that stand in for Cloudflare's pre-scan
  /// traffic: expired answers for the stale-answer domains and cached
  /// SERVFAILs for the cached-error domains. An optional [begin, end)
  /// range restricts the warm-up to one shard's slice of the population
  /// (a shard's resolver never looks up another shard's names).
  void prewarm(resolver::RecursiveResolver& resolver, std::size_t begin = 0,
               std::size_t end = static_cast<std::size_t>(-1)) const;

  /// Address of a provider pool slot (for reporting).
  [[nodiscard]] sim::NodeAddress provider_address(ServingPlan::Pool pool,
                                                  std::uint32_t slot) const;

  /// Number of distinct dead nameserver addresses in use, by pool —
  /// the scaled analogue of the paper's "293 k unique nameservers".
  [[nodiscard]] std::size_t dead_provider_count() const;

  /// Deterministically build the child zone a provider would serve for
  /// this domain (exposed for white-box tests).
  [[nodiscard]] std::shared_ptr<zone::Zone> build_child_zone(
      const DomainSpec& domain) const;

  /// The spec registered for exactly this name, if any. Read from the
  /// name itself: no per-domain index is kept.
  [[nodiscard]] const DomainSpec* lookup(const dns::Name& name) const;

  /// Child zones the healthy provider has built so far; it keeps the 16
  /// most recently used and rebuilds any other on demand.
  [[nodiscard]] std::size_t child_zone_builds() const;

 private:
  void build();

  std::shared_ptr<sim::Network> network_;
  const Population* population_;
  WorldOptions world_options_;
  std::vector<sim::NodeAddress> root_servers_;
  dns::DnskeyRdata trust_anchor_;

  std::shared_ptr<ProviderServer> healthy_provider_;
  std::vector<std::shared_ptr<void>> keep_alive_;  // servers & zones
  std::vector<sim::NodeAddress> tld_addresses_;
  std::size_t dead_providers_ = 0;
};

}  // namespace ede::scan
