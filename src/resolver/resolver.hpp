// The validating recursive resolver.
//
// Performs full iterative resolution over the simulated network (root →
// TLD → ... → leaf), maintains the DNSSEC chain of trust, serves and
// caches answers (including RFC 8767 stale answers and cached SERVFAILs),
// collects diagnosis findings at every step, and finally annotates the
// client response with the RFC 8914 Extended DNS Errors its vendor
// profile chooses to surface.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>

#include "dnscore/arena.hpp"
#include "dnscore/counters.hpp"
#include "dnscore/message.hpp"
#include "dnscore/rdata.hpp"
#include "dnssec/validate.hpp"
#include "edns/ede.hpp"
#include "resolver/cache.hpp"
#include "resolver/infra_cache.hpp"
#include "resolver/profile.hpp"
#include "resolver/retry.hpp"
#include "simnet/network.hpp"
#include "simnet/sched.hpp"

namespace ede::resolver {

/// RPZ-style local policy actions (EDE codes 15/16/17).
enum class PolicyAction { Block, Censor, Filter };

struct PolicyRule {
  dns::Name suffix;  // applies to the suffix and everything under it
  PolicyAction action = PolicyAction::Block;
  std::string reason;  // EXTRA-TEXT material
};

/// Upstream rounds one resolution may take (each referral, CNAME restart
/// and the final answer is one) before it ends SERVFAIL with
/// IterationLimitExceeded.
inline constexpr int kMaxReferrals = 24;
/// CNAMEs one resolution may follow.
inline constexpr int kMaxCnameChain = 8;
/// Depth limit for resolving out-of-bailiwick nameserver names.
inline constexpr int kMaxNsResolutionDepth = 3;

struct ResolverOptions {
  Cache::Options cache;
  bool serve_stale = true;
  /// Ablation knob: probe every nameserver instead of stopping at the
  /// first responsive one (the paper notes its lame-delegation counts are
  /// a lower bound because resolution stops early; see bench/ablation).
  bool exhaustive_ns_probing = false;
  /// RFC 9567 DNS Error Reporting: when a resolution produced EDE options
  /// and an authority along the way advertised a Report-Channel agent,
  /// report the first error by resolving the report QNAME (deduplicated
  /// per (qname, code) for the cache lifetime).
  bool enable_error_reporting = false;
  /// QNAME minimization (RFC 7816 / RFC 9156): expose only one new label
  /// per delegation level instead of the full query name. Diagnosis
  /// findings are unaffected (tests assert the Table 4 matrix is invariant
  /// under this option); only the upstream queries' shape changes.
  bool qname_minimization = false;
  /// Response-policy rules applied before resolution (the paper's testbed
  /// deliberately excludes the policy codes 15-18 because they depend on
  /// resolver configuration — this is that configuration).
  std::vector<PolicyRule> policy;
  /// Aggressive use of DNSSEC-validated denial proofs (RFC 8198): cached
  /// NSEC3 ranges synthesize NXDOMAIN locally, flagged with the
  /// Synthesized finding (EDE 29 under the reference profile).
  bool aggressive_nsec_caching = false;
  /// EDNS UDP payload size advertised upstream (RFC 6891). 1232 is the
  /// DNS-flag-day default; the EDNS buffer-size sweep cases lower it to
  /// 512 (forcing DoTCP on any signed answer) or raise it to 4096
  /// (risking fragmentation loss instead).
  std::uint16_t edns_udp_payload = 1'232;
  /// Infrastructure cache (per-nameserver SRTT, hold-down of known-dead
  /// servers). `infra.enabled = false` restores probe-every-time.
  InfraCache::Options infra;
  /// In-flight query coalescing: within one top-level resolution, a
  /// (zone, qname, qtype) probe that already failed is answered from the
  /// memoized failure instead of stampeding the same dying servers again
  /// (duplicate successes are already absorbed by the record/zone caches).
  bool coalesce_queries = true;
};

/// Counters for the Byzantine-hardening pipeline: the response-acceptance
/// gate, the bailiwick scrubber, SERVFAIL-cache serves and in-flight
/// coalescing. All monotonically increasing over a resolver's lifetime;
/// the scan engine snapshots deltas per domain and merges them across
/// shards.
struct HardeningStats {
  /// Replies dropped because the transaction ID did not match (or the QR
  /// bit was missing) — off-path spoof attempts and corrupted IDs.
  std::uint64_t rejected_qid_mismatch = 0;
  /// Replies dropped because the question section did not echo ours.
  std::uint64_t rejected_question_mismatch = 0;
  /// Replies dropped for exceeding the advertised EDNS payload size.
  std::uint64_t rejected_oversize = 0;
  /// Records removed by the bailiwick scrubber across all sections.
  std::uint64_t scrubbed_records = 0;
  /// Probes answered from the in-flight coalescing memo.
  std::uint64_t coalesced_queries = 0;
  /// Resolutions short-circuited by a live cached SERVFAIL (RFC 2308).
  std::uint64_t servfail_cache_hits = 0;
  /// Probe batches cut short by the per-resolution watchdog budget.
  std::uint64_t watchdog_trips = 0;
  // --- DoTCP fallback (RFC 7766) -------------------------------------
  /// TC=1 responses observed (each switches the query to the stream).
  std::uint64_t tc_seen = 0;
  /// Stream fallbacks started (one per TC response acted upon).
  std::uint64_t tcp_fallbacks = 0;
  /// Stream fallbacks that produced an accepted full answer.
  std::uint64_t tcp_success = 0;
  /// Stream connections refused or timed out during the handshake.
  std::uint64_t tcp_connect_failures = 0;
  /// Streams that died after connecting: stalls, mid-stream closes,
  /// garbage framing, frames that never completed.
  std::uint64_t tcp_stream_failures = 0;
  // --- EDNS probe-and-fallback (RFC 6891, DESIGN.md §5i) --------------
  /// FORMERR replies to queries carrying OPT (the pre-EDNS-server tell).
  std::uint64_t edns_formerr_seen = 0;
  /// BADVERS replies to EDNS version 0.
  std::uint64_t edns_badvers_seen = 0;
  /// Responses whose OPT was garbled (undecodable rdata) or duplicated.
  std::uint64_t edns_garbled_opt = 0;
  /// Plain-DNS fallback probes actually sent after a downgrade latch.
  std::uint64_t edns_fallback_probes = 0;
  /// Accepted answers obtained without EDNS (degraded: no DO, no RRSIGs).
  std::uint64_t edns_degraded_success = 0;
  /// Dances skipped outright because the InfraCache already knew the
  /// server as plain-DNS-only (capability memory hit).
  std::uint64_t edns_capability_skips = 0;

  /// Fold another tally into this one (shard deltas recombine by plain
  /// sums).
  void merge(const HardeningStats& other) { obs::merge(*this, other); }

  /// Keys are the chaos_campaign report's short names (DESIGN.md §5l).
  static constexpr std::array<obs::Row<HardeningStats>, 18> kCounters{{
      {"rejected_qid", &HardeningStats::rejected_qid_mismatch},
      {"rejected_question", &HardeningStats::rejected_question_mismatch},
      {"rejected_oversize", &HardeningStats::rejected_oversize},
      {"scrubbed", &HardeningStats::scrubbed_records},
      {"coalesced", &HardeningStats::coalesced_queries},
      {"servfail_hits", &HardeningStats::servfail_cache_hits},
      {"watchdog_trips", &HardeningStats::watchdog_trips},
      {"tc_seen", &HardeningStats::tc_seen},
      {"tcp_fallbacks", &HardeningStats::tcp_fallbacks},
      {"tcp_success", &HardeningStats::tcp_success},
      {"tcp_connect_failures", &HardeningStats::tcp_connect_failures},
      {"tcp_stream_failures", &HardeningStats::tcp_stream_failures},
      {"edns_formerr", &HardeningStats::edns_formerr_seen},
      {"edns_badvers", &HardeningStats::edns_badvers_seen},
      {"edns_garbled", &HardeningStats::edns_garbled_opt},
      {"edns_probes", &HardeningStats::edns_fallback_probes},
      {"edns_degraded", &HardeningStats::edns_degraded_success},
      {"edns_skips", &HardeningStats::edns_capability_skips},
  }};
};
static_assert(obs::covers_every_member<HardeningStats>());

/// One queued resolution for RecursiveResolver::resolve_many().
struct ResolveJob {
  dns::Name qname;
  dns::RRType qtype = dns::RRType::A;
  /// Prefetch refresh: skip the fresh positive/negative cache read at the
  /// top level and re-resolve upstream, re-caching the result with a new
  /// TTL. Sub-resolutions (NS addresses, DNSKEYs) still use the caches,
  /// and the SERVFAIL hold-down still applies — a refresh must not
  /// stampede a dying authority.
  bool refresh = false;
};

/// What the batch engine observed while multiplexing a resolve_many()
/// call (see DESIGN.md §6 for the virtual-time model).
struct EngineReport {
  /// High-water mark of resolutions simultaneously admitted-but-
  /// unfinished (what "concurrently in flight" means on one worker).
  std::size_t max_in_flight = 0;
  /// Virtual makespan of the batch under the admission-slot model: each
  /// of the `inflight` slots chains its resolutions back-to-back, and the
  /// batch takes as long as its busiest slot. Zero with the latency
  /// model off (every resolution is instantaneous).
  sim::SimTimeMs makespan_ms = 0;
  /// Sum of per-resolution virtual durations — what a serial (inflight=1)
  /// run would have charged the clock for the same batch.
  sim::SimTimeMs total_virtual_ms = 0;
  /// Longest single resolution in the batch. The makespan can never beat
  /// it no matter how many slots multiplex, so it is the number to stare
  /// at when a batch's speedup stalls below total/makespan expectations.
  sim::SimTimeMs longest_job_ms = 0;
  /// Per-job virtual duration, indexed like `jobs` (what the serving
  /// front end reports as a stub query's latency). A cache hit is 0 ms.
  std::vector<sim::SimTimeMs> job_duration_ms;
};

/// One step of the iterative resolution, for dig +trace-style display.
struct TraceStep {
  dns::Name zone;        // the zone context the query ran under
  dns::Name qname;       // what was actually asked (minimization-aware)
  dns::RRType qtype = dns::RRType::A;
  std::string note;      // "referral to x.", "answer", "NXDOMAIN", ...
};

/// Everything the resolver knows about one resolution, including the
/// internal diagnosis that profiles turn into EDE options.
struct Outcome {
  dns::Message response;  // fully annotated client response
  dns::RCode rcode = dns::RCode::SERVFAIL;
  dnssec::Security security = dnssec::Security::Indeterminate;
  std::vector<dnssec::Finding> findings;
  std::vector<edns::ExtendedError> errors;  // what the profile emitted
  /// Queries sent upstream for this resolution (performance accounting).
  int upstream_queries = 0;
  /// RFC 9567: the reporting-agent domain learned during resolution, and
  /// the report query this resolver fired (if error reporting is on).
  std::optional<dns::Name> report_agent;
  std::optional<dns::Name> report_sent;
  /// The walk this resolution took (one entry per upstream round).
  std::vector<TraceStep> trace;
};

class RecursiveResolver {
 public:
  RecursiveResolver(std::shared_ptr<sim::Network> network,
                    ResolverProfile profile,
                    std::vector<sim::NodeAddress> root_servers,
                    dns::DnskeyRdata trust_anchor,
                    ResolverOptions options = {});

  /// Resolve and annotate: resolve_many() with one job. The returned
  /// response carries the EDE options this resolver's vendor profile
  /// emits for the observed findings, and the clock advances by the
  /// resolution's virtual duration.
  [[nodiscard]] Outcome resolve(const dns::Name& qname, dns::RRType qtype);

  /// Resolve a batch with up to `inflight` resolutions multiplexed over
  /// one event scheduler and the shared record/infra/SERVFAIL caches (the
  /// ZDNS shape: thousands of lightweight routines, one worker). This is
  /// the resolver's only way to resolve a name.
  ///
  /// Every resolution's virtual timeline is rebased to the batch epoch
  /// (the clock at call time): TTLs, serve-stale windows, hold-downs and
  /// signature validity see the same "now" a serial run of the same batch
  /// would show them. Learned state that changes outcomes — InfraCache
  /// EDNS verdicts and RFC 8198 denial proofs — follows the batch-snapshot
  /// rule (see ResolutionId): each resolution sees what earlier batches
  /// learned plus its own writes, never a sibling's. Together these make
  /// per-domain outcomes invariant under `inflight` (the fixed-seed
  /// equivalence suite pins this). `on_done(job_index, outcome)` fires as
  /// each resolution completes, in completion order. On return the clock
  /// sits at epoch + makespan.
  EngineReport resolve_many(
      const std::vector<ResolveJob>& jobs, std::size_t inflight,
      const std::function<void(std::size_t, Outcome&&)>& on_done);

  [[nodiscard]] Cache& cache() { return cache_; }
  [[nodiscard]] InfraCache& infra() { return infra_; }
  [[nodiscard]] const InfraCache& infra() const { return infra_; }
  [[nodiscard]] const RetryPolicy& retry_policy() const {
    return profile_.retry;
  }
  [[nodiscard]] const sim::Network& network() const { return *network_; }
  [[nodiscard]] const ResolverProfile& profile() const { return profile_; }
  [[nodiscard]] const ResolverOptions& options() const { return options_; }
  [[nodiscard]] const HardeningStats& hardening_stats() const {
    return hardening_;
  }

  /// Drop cached state (including the memoized root trust evaluation).
  void flush();

 private:
  friend struct ResolverTestAccess;  // white-box regression tests

  struct QueryResult {
    std::optional<dns::Message> response;
    std::vector<dnssec::Finding> findings;
    int queries = 0;
    std::optional<dns::Name> report_agent;  // RFC 9567 Report-Channel
  };

  /// Per-resolution retry/time budget (armed by each top-level
  /// resolution's flow).
  struct Budget {
    int attempts_left = 0;
    sim::SimTimeMs deadline_ms = 0;
  };

  /// In-flight coalescing memo key, scoped to one top-level resolution:
  /// failed (zone, qname, qtype, server-set) probes recorded so CNAME
  /// chains and nameserver sub-resolutions replay the failure (findings
  /// included, zero packets) instead of re-stampeding the same dying
  /// servers. The server-set fingerprint is part of the key because a
  /// failure memoized against an early NS set must NOT be replayed once
  /// glue discovery (or a zone-cache refresh) widens the set — that would
  /// blame servers the probe never tried.
  struct CoalesceKey {
    dns::Name zone;
    dns::Name qname;
    dns::RRType qtype = dns::RRType::A;
    std::uint64_t server_fingerprint = 0;

    bool operator==(const CoalesceKey&) const = default;
  };
  struct CoalesceKeyHash {
    std::size_t operator()(const CoalesceKey& key) const {
      return (key.zone.hash() * 31 + key.qname.hash()) ^
             (static_cast<std::size_t>(key.qtype) * 0x9e3779b97f4a7c15ULL) ^
             static_cast<std::size_t>(key.server_fingerprint);
    }
  };
  using CoalesceMemo =
      std::unordered_map<CoalesceKey, QueryResult, CoalesceKeyHash>;

  /// Order-sensitive fingerprint of a probe's candidate server list.
  [[nodiscard]] static std::uint64_t fingerprint_servers(
      const std::vector<sim::NodeAddress>& servers);

  /// Everything one in-flight top-level resolution owns. Extracted from
  /// resolver members so resolve_many can keep thousands of resolutions
  /// in flight over one resolver (the caches stay shared; this does not).
  struct ResolutionContext {
    sim::EventScheduler* sched = nullptr;
    /// Who this resolution is under the batch-snapshot rule.
    ResolutionId id;
    Budget budget;
    CoalesceMemo coalesced;
    /// ResolveJob::refresh for this resolution (prefetch re-fetch).
    bool refresh = false;
    /// Servers THIS resolution learned as plain-DNS-only: the rule's one
    /// own-write overlay. The InfraCache verdict is overwritten in place,
    /// so a sibling's later write would otherwise hide a verdict this
    /// resolution earned (say, on its DNSKEY sub-query) from its own
    /// later queries.
    std::set<sim::NodeAddress> edns_self_plain;
  };

  /// Park the calling coroutine for `delay_ms` of virtual time. Mirrors
  /// the old Network::wait_ms discipline: with the latency model off the
  /// delay is free (the coroutine re-queues at the current instant).
  [[nodiscard]] sim::EventScheduler::SleepAwaiter park(
      ResolutionContext& ctx, std::uint32_t delay_ms) const {
    return ctx.sched->sleep_ms(network_->latency().enabled ? delay_ms : 0);
  }

  /// The complete per-resolution pipeline resolve()/resolve_many() drive:
  /// resolve_internal + EDE annotation + the RFC 9567 report query.
  [[nodiscard]] sim::Task<Outcome> resolve_flow(ResolutionContext& ctx,
                                                dns::Name qname,
                                                dns::RRType qtype);

  /// resolve_many() worker: owns one resolution's context in its own
  /// coroutine frame (child coroutines keep a reference to it across
  /// suspensions, so it needs a stable address) and reports the finished
  /// outcome plus the resolution's virtual duration through `record`.
  [[nodiscard]] sim::Task<void> run_job(
      sim::EventScheduler& sched, ResolveJob job, ResolutionId id,
      std::function<void(sim::SimTimeMs, Outcome&&)> record);

  /// Probe `servers` (authoritative for `zone`) for qname/qtype, replaying
  /// a failure this resolution already memoized for the same key. `zone`
  /// is the bailiwick the scrubber enforces on whatever comes back, and
  /// part of the coalescing key. Name parameters, and the server list the
  /// probe loop walks across suspensions, ride by value: a coroutine frame
  /// must not hold references into a caller temporary.
  [[nodiscard]] sim::Task<QueryResult> query_servers(
      ResolutionContext& ctx, dns::Name zone,
      std::vector<sim::NodeAddress> servers, dns::Name qname,
      dns::RRType qtype);

  /// One upstream query with a fresh transaction ID, carrying OPT (DO bit,
  /// the advertised payload size) when `use_edns`; both transports use it.
  [[nodiscard]] dns::Message make_upstream_query(const dns::Name& qname,
                                                 dns::RRType qtype,
                                                 bool use_edns);
  /// The per-server EDNS verdict both transports read: plain DNS only,
  /// learned by this resolution or by an earlier batch. note_plain_dns()
  /// records one in both places.
  [[nodiscard]] bool plain_dns_only(const ResolutionContext& ctx,
                                    const sim::NodeAddress& server) const;
  void note_plain_dns(ResolutionContext& ctx, const sim::NodeAddress& server);

  /// RFC 8767 serve-stale: put an expired answer, or failing that an
  /// expired NXDOMAIN, with its finding into `outcome` and set its rcode
  /// and security. False when serve-stale is off or nothing is stale.
  [[nodiscard]] bool answer_stale(Outcome& outcome, const dns::Name& qname,
                                  dns::RRType qtype, sim::SimTime now);

  [[nodiscard]] sim::Task<Outcome> resolve_internal(ResolutionContext& ctx,
                                                    dns::Name qname,
                                                    dns::RRType qtype,
                                                    int depth);

  /// DoTCP fallback (RFC 7766): retry `qname`/`qtype` against `server`
  /// over the stream transport after a TC=1 UDP response, within the
  /// policy's tcp_* budget. Returns the accepted response, or nullopt
  /// when the stream path is dead (connection refused, handshake timeout,
  /// stall, mid-stream close, garbage framing) — recording
  /// TcpConnectFailed/TcpStreamFailed findings for the profile to map to
  /// EDE 22/23.
  [[nodiscard]] sim::Task<std::optional<dns::Message>> query_over_stream(
      ResolutionContext& ctx, sim::NodeAddress server, dns::Name qname,
      dns::RRType qtype, QueryResult& result);

  /// Fetch and validate the root DNSKEY RRset once per cache lifetime.
  [[nodiscard]] sim::Task<bool> ensure_root_trust(
      ResolutionContext& ctx, std::vector<dnssec::Finding>& findings);

  [[nodiscard]] sim::Task<std::vector<sim::NodeAddress>> resolve_ns_addresses(
      ResolutionContext& ctx, std::vector<dns::Name> ns_names, int depth,
      std::vector<dnssec::Finding>& findings, int& upstream_queries);

  void annotate(Outcome& outcome) const;

  std::shared_ptr<sim::Network> network_;
  ResolverProfile profile_;
  std::vector<sim::NodeAddress> root_servers_;
  dns::DnskeyRdata trust_anchor_;
  ResolverOptions options_;
  Cache cache_;
  InfraCache infra_;

  std::optional<std::vector<dns::DnskeyRdata>> root_keys_;
  bool root_trust_ok_ = false;
  std::uint16_t next_id_ = 1;
  /// Next ResolutionId::self, handed out in admission order. Starts at 1
  /// so state nobody wrote yet (writer 0) reads as an earlier batch's.
  std::uint64_t next_resolution_id_ = 1;
  HardeningStats hardening_;

  /// Reused query-serialization scratch. The view handed to
  /// Network::send is consumed synchronously, so one arena per resolver
  /// is enough; responses are still parsed into fresh Messages because
  /// they outlive the exchange (they are moved into Outcome/cache).
  dns::MessageArena arena_;

  /// Delegation/trust cache: validated zone contexts so repeated
  /// resolutions skip the healthy upper levels of the hierarchy (what real
  /// resolvers call infrastructure caching).
  struct ZoneContext {
    std::vector<sim::NodeAddress> servers;
    std::vector<dns::DnskeyRdata> keys;
    bool secure = false;
    sim::SimTime expires = 0;
  };
  std::unordered_map<dns::Name, ZoneContext, dns::NameHash> zone_cache_;

  /// RFC 9567 rate limiting: report QNAMEs already sent this cache
  /// lifetime.
  std::set<std::string> reports_sent_;

  /// RFC 8198: validated denial proofs usable for local NXDOMAIN/NODATA
  /// synthesis. One entry is either a hashed NSEC3 span or a flat NSEC
  /// span (never both). Opt-out NSEC3 spans and wildcard-adjacent NSECs
  /// are rejected at capture time: an opt-out span can hide unsigned
  /// delegations inside it, and a span touching `*.zone` proves facts
  /// about wildcard expansion, not plain nonexistence — synthesizing
  /// NXDOMAIN across either would deny names that actually resolve.
  struct DenialRange {
    bool nsec3 = true;
    crypto::Bytes owner_hash;  // NSEC3: hashed span endpoints
    crypto::Bytes next_hash;
    crypto::Bytes salt;
    std::uint16_t iterations = 0;
    dns::Name owner;  // NSEC: canonical-order span endpoints
    dns::Name next;
    /// Types present at the owner, for exact-match NODATA synthesis.
    dns::TypeBitmap types;
    /// The resolution that captured the proof (ResolutionId::sees).
    std::uint64_t writer = 0;
    /// SOA-bounded proof lifetime (min(SOA minimum, record TTL) past the
    /// capture epoch, like any RFC 2308 negative entry). Synthesized
    /// negative answers inherit this bound, never a longer one.
    sim::SimTime expires = 0;
  };
  std::unordered_map<dns::Name, std::vector<DenialRange>, dns::NameHash>
      denial_cache_;
};

}  // namespace ede::resolver
