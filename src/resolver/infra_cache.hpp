// Infrastructure cache: the resolver's memory of nameserver *addresses*
// (what Unbound calls the infra-cache and BIND keeps in its ADB). Tracks a
// smoothed RTT per address (EWMA, reported in the infra summary; server
// selection keeps the configured NS order), counts consecutive timeouts,
// remembers EDNS capability verdicts, and holds known-dead servers down
// for a calibrated window so repeated lame delegations stop burning
// retransmissions — the paper's wild scan spends most of its failure
// traffic on exactly these servers.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "simnet/address.hpp"
#include "simnet/clock.hpp"

namespace ede::resolver {

/// One resolution's identity under the batch-snapshot rule for learned
/// state (DESIGN.md §5g): a resolution sees what earlier batches learned
/// plus its own writes, and never a write from another resolution in its
/// own batch. Ids are handed out in admission order and a batch records
/// the first id it issued, so a write stamped `writer` comes from an
/// earlier batch exactly when writer < batch_first.
struct ResolutionId {
  std::uint64_t self = 0;
  std::uint64_t batch_first = 0;

  [[nodiscard]] bool sees(std::uint64_t writer) const {
    return writer < batch_first || writer == self;
  }
};

class InfraCache {
 public:
  struct Options {
    bool enabled = true;
    /// Coarse eviction cap, like the answer cache's.
    std::size_t max_entries = 65'536;
  };

  /// Why the address most recently failed — decides how a held-down skip
  /// is diagnosed (timeouts keep surfacing as ServerTimeout findings so
  /// EDE classification is identical with and without the cache).
  enum class FailureKind { None, Timeout, Unreachable };

  /// Learned EDNS(0) capability of one server address (RFC 6891 §6.2.2):
  /// what BIND keeps as ADB EDNS flags and Unbound as infra edns_state.
  enum class EdnsCapability { Unknown, Full, PlainOnly };

  struct EdnsVerdict {
    EdnsCapability capability = EdnsCapability::Unknown;
    /// A PlainOnly verdict expires (and the server is re-probed with
    /// EDNS) at this sim-time.
    sim::SimTimeMs retest_ms = 0;
  };

  struct Entry {
    double srtt_ms = 0.0;
    int consecutive_timeouts = 0;
    sim::SimTimeMs hold_until_ms = 0;
    FailureKind last_failure = FailureKind::None;
    std::uint64_t successes = 0;
    std::uint64_t failures = 0;
    // --- EDNS capability memory (DESIGN.md §5i). Kept apart from the
    // failure streak above: report_success clears that streak, but a
    // server that answers plain DNS promptly is healthy *and* EDNS-broken
    // at the same time, so the verdict must survive.
    EdnsVerdict edns;
    /// The resolution that wrote `edns`, and the verdict as it stood when
    /// that resolution's batch began: what the writer's batch siblings
    /// keep reading (the verdict is overwritten in place).
    std::uint64_t edns_writer = 0;
    EdnsVerdict edns_at_batch_start;
  };

  struct Stats {
    std::uint64_t holddowns_started = 0;
    std::uint64_t holddown_skips = 0;  // candidate probes avoided
    std::uint64_t successes = 0;
    std::uint64_t failures = 0;
    std::uint64_t edns_broken_learned = 0;  // PlainOnly verdicts recorded
  };

  explicit InfraCache(Options options) : options_(options) {}
  InfraCache() : InfraCache(Options{}) {}

  [[nodiscard]] const Options& options() const { return options_; }

  /// A reply (any rcode) arrived after `rtt_ms`: fold it into the EWMA
  /// and clear the failure streak.
  void report_success(const sim::NodeAddress& address, std::uint32_t rtt_ms);

  /// The address timed out or was unroutable at `now_ms`. Timeouts count
  /// toward the hold-down streak; both back the smoothed RTT off.
  void report_failure(const sim::NodeAddress& address, FailureKind kind,
                      sim::SimTimeMs now_ms);

  /// The address mishandled an EDNS query (FORMERR/BADVERS/garbled OPT,
  /// or it exhausted the vendor's EDNS timeout quota): remember it as
  /// plain-DNS-only until `now_ms + ttl_ms`, after which the verdict
  /// expires and the next resolution re-probes with EDNS.
  /// `writer` is the resolution that learned it.
  void report_edns_broken(const sim::NodeAddress& address,
                          sim::SimTimeMs now_ms, std::uint32_t ttl_ms,
                          const ResolutionId& writer);

  /// The address answered an EDNS query with a well-formed OPT.
  void report_edns_ok(const sim::NodeAddress& address,
                      const ResolutionId& writer);

  /// The capability `reader` may see at `now_ms`: the latest verdict if an
  /// earlier batch wrote it, else the verdict as it stood when the
  /// reader's batch began. A resolution's own PlainOnly verdicts are its
  /// context's business (ResolutionContext::edns_self_plain). A PlainOnly
  /// verdict past its re-probe deadline reads as Unknown (hold-down
  /// expiry triggers the re-probe).
  [[nodiscard]] EdnsCapability edns_capability(
      const sim::NodeAddress& address, sim::SimTimeMs now_ms,
      const ResolutionId& reader) const;

  [[nodiscard]] const Entry* find(const sim::NodeAddress& address) const;
  [[nodiscard]] bool held_down(const sim::NodeAddress& address,
                               sim::SimTimeMs now_ms) const;

  void note_skip() { ++stats_.holddown_skips; }

  void clear();
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  using EntryMap =
      std::unordered_map<sim::NodeAddress, Entry, sim::NodeAddressHash>;

  /// Full per-address view, for diagnostics/reporting. Unordered — anything
  /// user-visible must go through ede::util::sorted_items (lint rule D1).
  [[nodiscard]] const EntryMap& entries() const { return entries_; }

 private:
  Entry& entry_for(const sim::NodeAddress& address);
  static void record_edns(Entry& entry, EdnsVerdict verdict,
                          const ResolutionId& writer);

  Options options_;
  EntryMap entries_;
  Stats stats_;
};

}  // namespace ede::resolver
