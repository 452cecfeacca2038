#include "resolver/infra_cache.hpp"

#include <algorithm>

namespace ede::resolver {

namespace {

/// EWMA weight of the newest sample: srtt = (1-a)*srtt + a*rtt
/// (BIND smooths with ~0.3; Unbound keeps an RTT band per host).
constexpr double kSrttAlpha = 0.3;
/// Consecutive timeouts before an address is held down (Unbound
/// probes a host a few times before marking it down).
constexpr int kHolddownAfter = 3;
/// How long a held-down address is skipped without probing
/// (Unbound's infra-host TTL is 15 minutes).
constexpr std::uint32_t kHolddownMs = 900'000;
/// Ceiling for the failure backoff applied to srtt (Unbound caps its
/// RTO backoff at 120 s).
constexpr double kMaxBackoffRttMs = 120'000.0;
/// Assumed RTT of a server that just failed with no history
/// (Unbound's UNKNOWN_SERVER_NICENESS, 376 ms).
constexpr double kUnknownRttMs = 376.0;

}  // namespace

InfraCache::Entry& InfraCache::entry_for(const sim::NodeAddress& address) {
  if (entries_.size() >= options_.max_entries &&
      entries_.find(address) == entries_.end()) {
    entries_.clear();  // coarse eviction, same policy as the answer cache
  }
  return entries_[address];
}

void InfraCache::report_success(const sim::NodeAddress& address,
                                std::uint32_t rtt_ms) {
  if (!options_.enabled) return;
  ++stats_.successes;
  Entry& entry = entry_for(address);
  if (entry.successes == 0 && entry.failures == 0) {
    entry.srtt_ms = static_cast<double>(rtt_ms);
  } else {
    entry.srtt_ms = (1.0 - kSrttAlpha) * entry.srtt_ms +
                    kSrttAlpha * static_cast<double>(rtt_ms);
  }
  ++entry.successes;
  entry.consecutive_timeouts = 0;
  entry.hold_until_ms = 0;
  entry.last_failure = FailureKind::None;
}

void InfraCache::report_failure(const sim::NodeAddress& address,
                                FailureKind kind, sim::SimTimeMs now_ms) {
  if (!options_.enabled || kind == FailureKind::None) return;
  ++stats_.failures;
  Entry& entry = entry_for(address);
  ++entry.failures;
  entry.last_failure = kind;
  // Exponential RTT backoff: a flaky server's SRTT shows it even before
  // it earns a hold-down.
  entry.srtt_ms = entry.srtt_ms <= 0.0
                      ? kUnknownRttMs
                      : std::min(entry.srtt_ms * 2.0, kMaxBackoffRttMs);
  ++entry.consecutive_timeouts;
  if (entry.consecutive_timeouts >= kHolddownAfter &&
      entry.hold_until_ms <= now_ms) {
    entry.hold_until_ms = now_ms + kHolddownMs;
    ++stats_.holddowns_started;
  }
}

void InfraCache::record_edns(Entry& entry, EdnsVerdict verdict,
                             const ResolutionId& writer) {
  // The first write of a batch freezes the value its siblings keep
  // reading; later writes from the same batch only replace the latest.
  if (entry.edns_writer < writer.batch_first) {
    entry.edns_at_batch_start = entry.edns;
  }
  entry.edns = verdict;
  entry.edns_writer = writer.self;
}

void InfraCache::report_edns_broken(const sim::NodeAddress& address,
                                    sim::SimTimeMs now_ms,
                                    std::uint32_t ttl_ms,
                                    const ResolutionId& writer) {
  if (!options_.enabled) return;
  record_edns(entry_for(address),
              {EdnsCapability::PlainOnly, now_ms + ttl_ms}, writer);
  ++stats_.edns_broken_learned;
}

void InfraCache::report_edns_ok(const sim::NodeAddress& address,
                                const ResolutionId& writer) {
  if (!options_.enabled) return;
  record_edns(entry_for(address), {EdnsCapability::Full, 0}, writer);
}

InfraCache::EdnsCapability InfraCache::edns_capability(
    const sim::NodeAddress& address, sim::SimTimeMs now_ms,
    const ResolutionId& reader) const {
  if (!options_.enabled) return EdnsCapability::Unknown;
  const auto* entry = find(address);
  if (entry == nullptr) return EdnsCapability::Unknown;
  const EdnsVerdict& verdict = entry->edns_writer < reader.batch_first
                                   ? entry->edns
                                   : entry->edns_at_batch_start;
  if (verdict.capability == EdnsCapability::PlainOnly &&
      verdict.retest_ms <= now_ms) {
    return EdnsCapability::Unknown;  // verdict expired: re-probe with EDNS
  }
  return verdict.capability;
}

const InfraCache::Entry* InfraCache::find(
    const sim::NodeAddress& address) const {
  const auto it = entries_.find(address);
  return it == entries_.end() ? nullptr : &it->second;
}

bool InfraCache::held_down(const sim::NodeAddress& address,
                           sim::SimTimeMs now_ms) const {
  if (!options_.enabled) return false;
  const auto* entry = find(address);
  return entry != nullptr && entry->hold_until_ms > now_ms;
}

void InfraCache::clear() { entries_.clear(); }

}  // namespace ede::resolver
