// Async resolver-core tests: the event scheduler and Task primitives,
// the batch-equivalence contracts (one-job batches vs one wide batch,
// window 1 vs window N, on the testbed), the admission-window/lane
// accounting of EngineReport, the coalescing-key server-set regression
// and the retry-backoff clamp.
#include <gtest/gtest.h>

#include <vector>

#include "resolver/resolver.hpp"
#include "resolver/retry.hpp"
#include "scan/parallel.hpp"
#include "simnet/sched.hpp"
#include "testbed/testbed.hpp"

namespace ede::resolver {

/// White-box window into RecursiveResolver's private coalescing types
/// (befriended in resolver.hpp).
struct ResolverTestAccess {
  using Key = RecursiveResolver::CoalesceKey;
  /// The memo's real container (ResolutionContext::coalesced).
  using Memo = RecursiveResolver::CoalesceMemo;
  static std::uint64_t fingerprint(
      const std::vector<sim::NodeAddress>& servers) {
    return RecursiveResolver::fingerprint_servers(servers);
  }
};

}  // namespace ede::resolver

namespace {

using namespace ede;
using namespace ede::resolver;

// ---------------------------------------------------------------------
// EventScheduler / Task primitives
// ---------------------------------------------------------------------

sim::Task<int> answer_after(sim::EventScheduler& sched, sim::SimTimeMs delay,
                            int value, std::vector<int>* order = nullptr) {
  co_await sched.sleep_ms(delay);
  if (order != nullptr) order->push_back(value);
  co_return value;
}

TEST(EventScheduler, ResumesInWakeTimeOrder) {
  sim::Clock clock;
  sim::EventScheduler sched(clock);
  const auto epoch = clock.now_ms();
  std::vector<int> order;
  auto late = answer_after(sched, 300, 3, &order);
  auto early = answer_after(sched, 100, 1, &order);
  auto middle = answer_after(sched, 200, 2, &order);
  late.start();
  early.start();
  middle.start();
  sched.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(late.take(), 3);
  EXPECT_EQ(clock.now_ms(), epoch + 300);  // clock follows popped events
}

TEST(EventScheduler, SameInstantFiresInRegistrationOrder) {
  // The determinism tie-break (D1): equal wake times resolve by the
  // monotonic registration sequence, never by handle address.
  sim::Clock clock;
  sim::EventScheduler sched(clock);
  std::vector<int> order;
  std::vector<sim::Task<int>> tasks;
  for (int i = 0; i < 8; ++i)
    tasks.push_back(answer_after(sched, 50, i, &order));
  for (auto& task : tasks) task.start();
  sched.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventScheduler, ZeroSleepStillYieldsToEarlierRegistrations) {
  sim::Clock clock;
  sim::EventScheduler sched(clock);
  std::vector<int> order;
  auto first = answer_after(sched, 0, 1, &order);
  auto second = answer_after(sched, 0, 2, &order);
  first.start();
  second.start();
  EXPECT_TRUE(order.empty());  // both parked, nothing ran yet
  sched.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventScheduler, ClockRebasesBackwardsBetweenTimelines) {
  // Epoch rebasing means a later-registered coroutine can park at an
  // earlier virtual instant; popping its event must SET the clock there,
  // not refuse to move backwards.
  sim::Clock clock;
  sim::EventScheduler sched(clock);
  std::vector<int> order;
  clock.set_ms(1'000);
  auto far = answer_after(sched, 500, 1, &order);  // wakes at 1500
  far.start();
  clock.set_ms(0);  // rebase: next admission starts at the epoch
  auto near = answer_after(sched, 10, 2, &order);  // wakes at 10
  near.start();
  ASSERT_TRUE(sched.run_one());
  EXPECT_EQ(order, (std::vector<int>{2}));
  EXPECT_EQ(clock.now_ms(), 10u);
  ASSERT_TRUE(sched.run_one());
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_EQ(clock.now_ms(), 1'500u);
  EXPECT_TRUE(sched.idle());
}

sim::Task<int> doubled(sim::EventScheduler& sched, int value) {
  co_await sched.sleep_ms(5);
  co_return 2 * value;
}

sim::Task<int> chain(sim::EventScheduler& sched, int value) {
  // A child task started by co_await resumes its parent on completion
  // (symmetric transfer), the composition every resolver stage relies on.
  const int a = co_await doubled(sched, value);
  const int b = co_await doubled(sched, a);
  co_return b;
}

TEST(EventScheduler, TaskCompositionPropagatesResults) {
  sim::Clock clock;
  sim::EventScheduler sched(clock);
  auto task = chain(sched, 3);
  task.start();
  while (!task.done() && sched.run_one()) {
  }
  EXPECT_EQ(task.take(), 12);
}

sim::Task<int> throws_after_park(sim::EventScheduler& sched) {
  co_await sched.sleep_ms(1);
  throw std::runtime_error("boom");
}

TEST(EventScheduler, ExceptionsSurfaceThroughTake) {
  sim::Clock clock;
  sim::EventScheduler sched(clock);
  auto task = throws_after_park(sched);
  task.start();
  sched.run_until_idle();
  ASSERT_TRUE(task.done());
  EXPECT_THROW((void)task.take(), std::runtime_error);
}

// ---------------------------------------------------------------------
// RetryPolicy::next_timeout clamp (the UB fix)
// ---------------------------------------------------------------------

TEST(RetryPolicy, BackoffProductIsClampedBeforeTheCast) {
  RetryPolicy retry;
  retry.max_timeout_ms = 6'000;
  retry.backoff_factor = 1e18;  // product overflows uint32_t by far
  EXPECT_EQ(retry.next_timeout(400), 6'000u);
  EXPECT_EQ(retry.next_timeout(6'000), 6'000u);
}

TEST(RetryPolicy, NegativeBackoffFactorStaysSane) {
  RetryPolicy retry;
  retry.max_timeout_ms = 6'000;
  retry.backoff_factor = -3.0;  // pathological config: product < 0
  const auto next = retry.next_timeout(400);
  EXPECT_GE(next, 401u);  // still strictly advances
  EXPECT_LE(next, 6'000u);
}

TEST(RetryPolicy, BackoffStillGrowsNormally) {
  RetryPolicy retry;  // defaults: x2.0, cap 6000
  EXPECT_EQ(retry.next_timeout(400), 800u);
  EXPECT_EQ(retry.next_timeout(800), 1'600u);
  EXPECT_EQ(retry.next_timeout(3'200), 6'000u);
  EXPECT_EQ(retry.next_timeout(6'000), 6'000u);  // capped, no overflow
}

// ---------------------------------------------------------------------
// Coalescing-key server-set regression (S2)
// ---------------------------------------------------------------------

sim::NodeAddress v4(const char* ip) {
  return sim::NodeAddress{*dns::Ipv4Address::parse(ip)};
}

TEST(CoalesceKey, ServerSetIsPartOfTheKey) {
  using Access = ResolverTestAccess;
  const std::vector<sim::NodeAddress> narrow = {v4("192.0.2.1")};
  const std::vector<sim::NodeAddress> wide = {v4("192.0.2.1"),
                                              v4("192.0.2.2")};
  Access::Key against_narrow{dns::Name::of("zone.test"),
                             dns::Name::of("a.zone.test"), dns::RRType::A,
                             Access::fingerprint(narrow)};
  Access::Key against_wide{dns::Name::of("zone.test"),
                           dns::Name::of("a.zone.test"), dns::RRType::A,
                           Access::fingerprint(wide)};
  // The regression: a failure memoized against the narrow server set must
  // not be replayed once the candidate set widens — the keys have to be
  // distinct memo entries.
  Access::Memo memo;
  memo[against_narrow].queries = 1;
  EXPECT_EQ(memo.count(against_wide), 0u);
  memo[against_wide].queries = 2;
  EXPECT_EQ(memo.size(), 2u);
  // Names match case-insensitively, as Name::equals does.
  const Access::Key shouted{dns::Name::of("ZONE.test"),
                            dns::Name::of("A.Zone.TEST"), dns::RRType::A,
                            Access::fingerprint(narrow)};
  ASSERT_EQ(memo.count(shouted), 1u);
  EXPECT_EQ(memo.at(shouted).queries, 1);

  // Same set twice fingerprints identically (the memo still coalesces).
  EXPECT_EQ(Access::fingerprint(wide), Access::fingerprint(wide));
  // Order matters (the probe order is part of what was tried).
  const std::vector<sim::NodeAddress> reversed = {v4("192.0.2.2"),
                                                  v4("192.0.2.1")};
  EXPECT_NE(Access::fingerprint(wide), Access::fingerprint(reversed));
  // And the empty set is distinct from any non-empty one.
  EXPECT_NE(Access::fingerprint({}), Access::fingerprint(narrow));
}

// ---------------------------------------------------------------------
// Batch shapes on the testbed (per-case EDE equivalence)
// ---------------------------------------------------------------------

struct CaseOutcome {
  dns::RCode rcode = dns::RCode::NOERROR;
  std::vector<std::uint16_t> ede_codes;
  dnssec::Security security = dnssec::Security::Indeterminate;

  bool operator==(const CaseOutcome&) const = default;
};

CaseOutcome lite(const Outcome& outcome) {
  CaseOutcome out;
  out.rcode = outcome.rcode;
  out.security = outcome.security;
  for (const auto& error : outcome.errors)
    out.ede_codes.push_back(static_cast<std::uint16_t>(error.code));
  return out;
}

TEST(AsyncCore, OneJobBatchesMatchOneWideBatch) {
  // Two identical worlds (separate networks, same construction), one
  // driven case-by-case through resolve() — a one-job batch per case,
  // each seeing everything the earlier cases learned — the other as one
  // resolve_many() batch across every case, where siblings see none of
  // each other's learned state. Per-case outcomes must not depend on
  // which of the two the batch-snapshot rule applied. Latency stays off,
  // like the other testbed suites, so the comparison is bit-for-bit.
  auto network_a = std::make_shared<sim::Network>(
      std::make_shared<sim::Clock>(), 42);
  auto network_b = std::make_shared<sim::Network>(
      std::make_shared<sim::Clock>(), 42);
  testbed::Testbed bed_a(network_a);
  testbed::Testbed bed_b(network_b);
  auto resolver_a = bed_a.make_resolver(profile_bind());
  auto resolver_b = bed_b.make_resolver(profile_bind());

  std::vector<CaseOutcome> one_job;
  std::vector<ResolveJob> jobs;
  for (const auto& spec : bed_a.cases()) {
    one_job.push_back(
        lite(resolver_a.resolve(bed_a.query_name(spec), dns::RRType::A)));
    jobs.push_back({bed_b.query_name(spec), dns::RRType::A});
  }

  std::vector<CaseOutcome> batched(jobs.size());
  const auto report = resolver_b.resolve_many(
      jobs, jobs.size(), [&batched](std::size_t index, Outcome&& outcome) {
        batched[index] = lite(outcome);
      });
  ASSERT_EQ(batched.size(), one_job.size());
  for (std::size_t i = 0; i < one_job.size(); ++i) {
    EXPECT_EQ(one_job[i], batched[i]) << "case " << i << " ("
        << bed_a.cases()[i].label << ")";
  }
  EXPECT_GE(report.max_in_flight, 1u);
  EXPECT_LE(report.max_in_flight, jobs.size());
  // Latency off: waits are free, so the whole batch is instantaneous.
  EXPECT_EQ(report.makespan_ms, 0u);
  EXPECT_EQ(report.total_virtual_ms, 0u);
}

TEST(AsyncCore, EngineWindowOneMatchesEngineWindowWide) {
  // Every resolution is epoch-rebased, so the admission window must not
  // change any outcome — with latency ON.
  sim::LatencyModel latency;
  latency.enabled = true;

  const auto run = [&](std::size_t window) {
    auto network = std::make_shared<sim::Network>(
        std::make_shared<sim::Clock>(), 7);
    network->set_latency(latency);
    testbed::Testbed bed(network);
    auto resolver = bed.make_resolver(profile_bind());
    std::vector<ResolveJob> jobs;
    for (const auto& spec : bed.cases())
      jobs.push_back({bed.query_name(spec), dns::RRType::A});
    std::vector<CaseOutcome> outcomes(jobs.size());
    const auto report = resolver.resolve_many(
        jobs, window, [&outcomes](std::size_t index, Outcome&& outcome) {
          outcomes[index] = lite(outcome);
        });
    return std::pair{outcomes, report};
  };

  const auto [serial, serial_report] = run(1);
  const auto [wide, wide_report] = run(64);
  ASSERT_EQ(serial.size(), wide.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i], wide[i]) << "case " << i;

  // Window 1 chains everything on one lane: makespan == total.
  EXPECT_EQ(serial_report.max_in_flight, 1u);
  EXPECT_EQ(serial_report.makespan_ms, serial_report.total_virtual_ms);
  // The wide window overlaps waits: the batch gets shorter, not cheaper.
  EXPECT_GT(wide_report.max_in_flight, 1u);
  EXPECT_LT(wide_report.makespan_ms, wide_report.total_virtual_ms);
  EXPECT_GE(wide_report.makespan_ms, wide_report.longest_job_ms);
}

TEST(AsyncCore, EngineReportAccountsLanesHonestly) {
  auto network = std::make_shared<sim::Network>(
      std::make_shared<sim::Clock>(), 11);
  sim::LatencyModel latency;
  latency.enabled = true;
  network->set_latency(latency);
  testbed::Testbed bed(network);
  auto resolver = bed.make_resolver(profile_bind());
  std::vector<ResolveJob> jobs;
  for (const auto& spec : bed.cases())
    jobs.push_back({bed.query_name(spec), dns::RRType::A});

  const auto epoch = network->clock().now_ms();
  std::vector<bool> seen(jobs.size(), false);
  const auto report = resolver.resolve_many(
      jobs, 8, [&seen](std::size_t index, Outcome&&) {
        ASSERT_LT(index, seen.size());
        EXPECT_FALSE(seen[index]);  // delivered exactly once
        seen[index] = true;
      });
  for (std::size_t i = 0; i < seen.size(); ++i)
    EXPECT_TRUE(seen[i]) << "job " << i << " never delivered";

  EXPECT_LE(report.max_in_flight, 8u);
  EXPECT_GE(report.max_in_flight, 2u);
  // List scheduling onto 8 lanes: the busiest lane is bounded below by
  // the even split and above by even split + longest job.
  EXPECT_GE(report.makespan_ms * 8, report.total_virtual_ms);
  EXPECT_LE(report.makespan_ms,
            report.total_virtual_ms / 8 + report.longest_job_ms + 1);
  // The engine leaves the shared clock at epoch + makespan.
  EXPECT_EQ(network->clock().now_ms(), epoch + report.makespan_ms);
}

TEST(AsyncCore, EmptyBatchIsANoOp) {
  auto network = std::make_shared<sim::Network>(
      std::make_shared<sim::Clock>(), 3);
  testbed::Testbed bed(network);
  auto resolver = bed.make_resolver(profile_bind());
  bool called = false;
  const auto report = resolver.resolve_many(
      {}, 16, [&called](std::size_t, Outcome&&) { called = true; });
  EXPECT_FALSE(called);
  EXPECT_EQ(report.max_in_flight, 0u);
  EXPECT_EQ(report.makespan_ms, 0u);
}

}  // namespace
