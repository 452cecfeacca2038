// Transport retry/backoff policy.
//
// Replaces the old fixed "three attempts per server" loop with the shape
// every production resolver uses for lame delegations: a configurable
// initial timeout, exponential backoff with a cap, and per-resolution
// retry/time budgets so one dead delegation cannot stall a scan. Vendor
// profiles carry calibrated defaults (BIND starts near 800 ms, Unbound
// assumes 376 ms for unknown servers, PowerDNS waits a flat 1.5 s).
#pragma once

#include <algorithm>
#include <cstdint>

namespace ede::resolver {

struct RetryPolicy {
  /// Wait this long for the first reply from a server.
  std::uint32_t initial_timeout_ms = 400;
  /// Backoff cap: no single wait exceeds this.
  std::uint32_t max_timeout_ms = 6'000;
  /// Multiplier applied to the timeout after each failed attempt.
  double backoff_factor = 2.0;
  /// Queries sent to one server for one (qname, qtype) before moving on
  /// (2 = the classic "one retransmission", matching the seed behaviour).
  int attempts_per_server = 2;
  /// Hard per-resolution budget on upstream queries, shared across every
  /// delegation level and nameserver-address sub-resolution.
  static constexpr int max_total_attempts = 128;
  /// Per-resolution wall budget on the simulated clock. Only bites when
  /// the network's latency model is enabled (otherwise waits are free).
  static constexpr std::uint32_t total_budget_ms = 60'000;

  // --- DoTCP fallback budget (RFC 7766) ------------------------------
  // A TC=1 response switches the query to the stream transport, which
  // gets its own patience: vendors differ sharply here (the truncation/
  // DoTCP measurement studies show BIND waiting out a full 10 s handshake
  // while Knot gives up after a second), so profiles calibrate these.
  /// Wait this long for the TCP handshake to complete.
  std::uint32_t tcp_connect_timeout_ms = 3'000;
  /// Wait this long for the response frame once the query is written.
  std::uint32_t tcp_read_timeout_ms = 2'000;
  /// Fresh connections attempted per server before declaring the stream
  /// path dead and moving on (degrading to SERVFAIL + EDE 22/23 when no
  /// server is left).
  int tcp_attempts = 2;

  [[nodiscard]] std::uint32_t next_timeout(std::uint32_t current_ms) const {
    // Clamp the backoff product while it is still a double: calibrated
    // backoff_factor/timeout combinations can push it past uint32_t range
    // (or below zero for a pathological negative factor), and a
    // float-to-integer cast whose value does not fit the target type is
    // undefined behaviour — so the cast only ever sees [0, max_timeout_ms].
    const double product =
        static_cast<double>(current_ms) * backoff_factor;
    const double clamped = std::clamp(
        product, 0.0, static_cast<double>(max_timeout_ms));
    const auto scaled = static_cast<std::uint32_t>(clamped);
    return std::min(std::max(scaled, current_ms + 1), max_timeout_ms);
  }
};

}  // namespace ede::resolver
