// Deterministic chaos campaign: the full 63-case testbed x all seven
// vendor resolver profiles x N seeded Byzantine schedules, with
// machine-verified invariants.
//
// Every case's authoritative server gets a hostile ResponseMutator drawn
// from the Byzantine zoo (simnet/byzantine.hpp) — which behavior, its
// firing probability and its activity window all derive deterministically
// from the campaign seed — and every resolution is then checked against
// the properties the hardening pipeline guarantees:
//
//   1. no crash/UB (the campaign completing under ASan+UBSan is the check)
//   2. bounded upstream queries per resolution (the retry budget holds)
//   3. a valid RCODE (NOERROR/NXDOMAIN/SERVFAIL) and only registered EDE
//      codes on every outcome
//   4. no out-of-bailiwick record is ever cached or served: the poison
//      marker name the mutators stuff into responses must appear in no
//      client response and no cache entry
//
// The JSON report is byte-reproducible for a fixed seed (no wall-clock
// anywhere near it); tools/verify.sh runs a small campaign under
// sanitizers and diffs two runs.
//
//   5. (--hostile-tcp) no silent NOERROR after a failed DoTCP fallback:
//      when a pass forces honest truncation over UDP and sabotages the
//      stream side (refuse / SYN-drop / stall / mid-close / garbage
//      framing), any resolution that saw a TC bit but never completed a
//      stream exchange must not report NOERROR — and profiles that map
//      the transport defects must surface EDE 22 or 23.
//
//   6. (--hostile-edns) the EDNS-compliance zoo family (testbed
//      edns_cases(), DESIGN.md §5i) resolved twice per case — the second
//      contact with a flipped qtype so it bypasses the answer caches and
//      exercises the InfraCache capability memory — must produce
//      byte-identical (rcode, EDE set) outcomes whether driven
//      case-by-case through resolve() (one-job batches) or as one
//      resolve_many() batch per contact at --inflight; the same pass also
//      sweeps randomized EDNS Byzantine mutators over the 63 testbed
//      cases under invariants 1-4.
//
// Usage: chaos_campaign [--seeds N] [--base-seed S] [--out FILE]
//        [--no-latency] [--hostile-tcp] [--hostile-edns] [--inflight N]
//        [--async]
//
// --async drives every Byzantine pass as one batch
// (RecursiveResolver::resolve_many, all 63 cases multiplexed) instead of
// case-by-case resolve(): the same invariants must hold when thousands
// of resolutions share the caches concurrently.
// The hostile-TCP passes stay case-by-case either way — invariant 5
// reads per-resolution hardening deltas, which have no meaning when
// resolutions interleave.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "crypto/rng.hpp"
#include "dnscore/counters.hpp"
#include "edns/ede.hpp"
#include "resolver/profile.hpp"
#include "resolver/resolver.hpp"
#include "simnet/byzantine.hpp"
#include "simnet/stream.hpp"
#include "testbed/testbed.hpp"

namespace {

using namespace ede;

struct CampaignOptions {
  std::size_t seeds = 20;
  std::uint64_t base_seed = 0xb12a17;
  std::string out_path;  // empty = stdout
  bool latency = true;
  bool hostile_tcp = false;
  bool hostile_edns = false;
  std::size_t inflight = 4096;  // batch width for --hostile-edns
  bool async = false;  // multiplex each pass through resolve_many
};

struct Violation {
  std::string where;  // "seed=3 profile=BIND case=rrsig-exp-all"
  std::string what;
};

/// Aggregates for one (profile, seed) pass over all 63 cases.
struct PassResult {
  std::map<std::string, std::size_t> rcodes;       // "NOERROR" -> count
  std::map<std::uint16_t, std::size_t> ede_codes;  // 22 -> count
  std::uint64_t upstream_queries = 0;
  std::uint64_t max_upstream_queries = 0;
  resolver::HardeningStats hardening;
  sim::ByzantineStats byzantine;
};

bool owned_by_marker(const std::vector<dns::ResourceRecord>& section) {
  for (const auto& rr : section) {
    if (rr.name == sim::poison_marker()) return true;
  }
  return false;
}

/// The per-resolution invariants every pass checks (2, 3 and 4a), with the
/// campaign-wide tallies they feed.
struct Checker {
  std::vector<Violation> violations;
  std::size_t resolutions = 0;
  std::uint64_t max_upstream = 0;

  /// Check one outcome and fold it into `pass`.
  void check(const std::string& where, const resolver::Outcome& outcome,
             std::uint64_t attempts_bound, PassResult& pass) {
    ++resolutions;
    // Invariant 2: the watchdog budget bounds upstream work.
    const auto upstream = static_cast<std::uint64_t>(outcome.upstream_queries);
    pass.upstream_queries += upstream;
    pass.max_upstream_queries = std::max(pass.max_upstream_queries, upstream);
    max_upstream = std::max(max_upstream, upstream);
    if (upstream > attempts_bound) {
      violations.push_back({where, "upstream queries " +
                                       std::to_string(upstream) +
                                       " exceed the retry budget " +
                                       std::to_string(attempts_bound)});
    }

    // Invariant 3: a clean RCODE and only registered EDE codes.
    if (outcome.rcode != dns::RCode::NOERROR &&
        outcome.rcode != dns::RCode::NXDOMAIN &&
        outcome.rcode != dns::RCode::SERVFAIL) {
      violations.push_back(
          {where, "unexpected RCODE " + dns::to_string(outcome.rcode)});
    }
    pass.rcodes[dns::to_string(outcome.rcode)] += 1;
    for (const auto& error : outcome.errors) {
      const auto code = static_cast<std::uint16_t>(error.code);
      pass.ede_codes[code] += 1;
      if (!edns::is_registered(error.code)) {
        violations.push_back(
            {where, "unregistered EDE code " + std::to_string(code)});
      }
    }

    // Invariant 4a: no poisoned record is ever served to a client.
    if (owned_by_marker(outcome.response.answer) ||
        owned_by_marker(outcome.response.authority) ||
        owned_by_marker(outcome.response.additional)) {
      violations.push_back(
          {where, "poison marker served in a client response"});
    }
  }
};

/// Deterministic hostile-stream schedule for one case: which way the TCP
/// side dies, how often, and (sometimes) for how long.
std::vector<sim::StreamBehavior> draw_stream_schedule(
    crypto::Xoshiro256& rng, sim::SimTime pass_start) {
  static constexpr double kProbabilities[] = {1.0, 0.6, 0.3};
  const double p = kProbabilities[rng.below(3)];
  sim::StreamBehavior behavior;
  switch (rng.below(5)) {
    case 0: behavior = sim::StreamBehavior::refuse(p); break;
    case 1: behavior = sim::StreamBehavior::syn_drop(p); break;
    case 2: behavior = sim::StreamBehavior::stall(p); break;
    case 3:
      behavior = sim::StreamBehavior::mid_close(
          p, static_cast<std::uint32_t>(1 + rng.below(8)));
      break;
    default: behavior = sim::StreamBehavior::garbage_frame(p); break;
  }
  if (rng.below(4) == 0) {
    const sim::SimTime t0 =
        pass_start + static_cast<sim::SimTime>(rng.below(60));
    behavior = behavior.between(
        t0, t0 + static_cast<sim::SimTime>(30 + rng.below(120)));
  }
  return {behavior};
}

/// Deterministic Byzantine schedule for one case. All draws come from the
/// per-profile schedule RNG, so every profile within a seed faces the
/// identical storyline (windows are relative to the profile's start time,
/// because the simulated clock is shared across a seed's profile passes).
std::vector<sim::ByzantineBehavior> draw_schedule(crypto::Xoshiro256& rng,
                                                  sim::SimTime pass_start) {
  static constexpr double kProbabilities[] = {1.0, 0.6, 0.3};
  const auto kind = static_cast<sim::ByzantineKind>(1 + rng.below(9));
  const double p = kProbabilities[rng.below(3)];
  sim::ByzantineBehavior behavior;
  switch (kind) {
    case sim::ByzantineKind::WrongQid:
      behavior = sim::ByzantineBehavior::wrong_qid(p);
      break;
    case sim::ByzantineKind::WrongQuestion:
      behavior = sim::ByzantineBehavior::wrong_question(p);
      break;
    case sim::ByzantineKind::Spoof:
      behavior = sim::ByzantineBehavior::spoof(p, rng.below(2) == 0);
      break;
    case sim::ByzantineKind::BailiwickStuff:
      behavior = sim::ByzantineBehavior::bailiwick_stuff(p);
      break;
    case sim::ByzantineKind::PointerLoop:
      behavior = sim::ByzantineBehavior::pointer_loop(p);
      break;
    case sim::ByzantineKind::TruncationGarbage:
      behavior = sim::ByzantineBehavior::truncation_garbage(p);
      break;
    case sim::ByzantineKind::Oversize:
      behavior = sim::ByzantineBehavior::oversize(
          p, static_cast<std::uint32_t>(2048 + rng.below(8192)));
      break;
    case sim::ByzantineKind::Fuzz:
      behavior = sim::ByzantineBehavior::fuzz(
          p, static_cast<std::uint32_t>(1 + rng.below(16)));
      break;
    // The kind draw starts at 1 and stops before the EDNS kinds (they
    // get their own --hostile-edns pass) and the stream-side
    // DifferentAnswer, so none of those ever comes up — if one ever did,
    // treating it as the slow-drip default keeps the pass adversarial.
    case sim::ByzantineKind::None:
    case sim::ByzantineKind::EdnsDrop:
    case sim::ByzantineKind::EdnsFormerr:
    case sim::ByzantineKind::EdnsStripOpt:
    case sim::ByzantineKind::EdnsEchoExtra:
    case sim::ByzantineKind::EdnsBadvers:
    case sim::ByzantineKind::EdnsBufferLie:
    case sim::ByzantineKind::EdnsGarble:
    case sim::ByzantineKind::EdnsDuplicateOpt:
    case sim::ByzantineKind::DifferentAnswer:
    case sim::ByzantineKind::SlowDrip:
    default:
      behavior = sim::ByzantineBehavior::slow_drip(
          p, static_cast<std::uint32_t>(500 + rng.below(4000)));
      break;
  }
  // A quarter of the servers recover (or only fall over) partway through
  // the pass, so retry schedules cross behavior boundaries.
  if (rng.below(4) == 0) {
    const sim::SimTime t0 =
        pass_start + static_cast<sim::SimTime>(rng.below(60));
    behavior = behavior.between(
        t0, t0 + static_cast<sim::SimTime>(30 + rng.below(120)));
  }
  return {behavior};
}

/// Deterministic EDNS-pathology schedule for one case: which way the
/// authority mishandles the OPT pseudo-record, and how often.
std::vector<sim::ByzantineBehavior> draw_edns_schedule(
    crypto::Xoshiro256& rng, sim::SimTime pass_start) {
  static constexpr double kProbabilities[] = {1.0, 0.6, 0.3};
  const double p = kProbabilities[rng.below(3)];
  sim::ByzantineBehavior behavior;
  switch (rng.below(7)) {
    case 0: behavior = sim::ByzantineBehavior::edns_drop(p); break;
    case 1: behavior = sim::ByzantineBehavior::edns_formerr(p); break;
    case 2: behavior = sim::ByzantineBehavior::edns_strip_opt(p); break;
    case 3: behavior = sim::ByzantineBehavior::edns_echo_extra(p); break;
    case 4: behavior = sim::ByzantineBehavior::edns_badvers(p); break;
    case 5:
      behavior = sim::ByzantineBehavior::edns_buffer_lie(p);
      break;
    default: behavior = sim::ByzantineBehavior::edns_garble(p); break;
  }
  if (rng.below(4) == 0) {
    const sim::SimTime t0 =
        pass_start + static_cast<sim::SimTime>(rng.below(60));
    behavior = behavior.between(
        t0, t0 + static_cast<sim::SimTime>(30 + rng.below(120)));
  }
  return {behavior};
}

/// One resolution's externally visible outcome, reduced to the pair the
/// batch-equivalence invariant compares.
struct ContactOutcome {
  std::string rcode;
  std::vector<std::uint16_t> codes;  // sorted

  bool operator==(const ContactOutcome&) const = default;

  [[nodiscard]] std::string to_string() const {
    std::string out = rcode + "{";
    for (std::size_t i = 0; i < codes.size(); ++i) {
      if (i != 0) out += ",";
      out += std::to_string(codes[i]);
    }
    return out + "}";
  }
};

ContactOutcome reduce_outcome(const resolver::Outcome& outcome) {
  ContactOutcome reduced;
  reduced.rcode = dns::to_string(outcome.rcode);
  for (const auto& error : outcome.errors) {
    reduced.codes.push_back(static_cast<std::uint16_t>(error.code));
  }
  std::sort(reduced.codes.begin(), reduced.codes.end());
  reduced.codes.erase(
      std::unique(reduced.codes.begin(), reduced.codes.end()),
      reduced.codes.end());
  return reduced;
}

/// Everything one batch shape's run over the EDNS zoo family produced:
/// per profile, per case, the first- and second-contact outcomes, plus
/// the per-profile pass aggregates for the report.
struct EdnsFamilyRun {
  // profile name -> case index -> {first contact, second contact}.
  std::map<std::string, std::vector<std::array<ContactOutcome, 2>>> outcomes;
  std::map<std::string, PassResult> passes;
};

std::string json_escape(const std::string& in) {
  std::string out;
  for (const char c : in) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

int run_campaign(const CampaignOptions& options) {
  const auto& cases = testbed::all_cases();
  const auto profiles = resolver::all_profiles();
  Checker checker;
  auto& violations = checker.violations;

  // profile name -> seed -> pass aggregate (map keeps report order stable).
  std::map<std::string, std::map<std::size_t, PassResult>> passes;
  // Seed-0 per-case outcomes of the EDNS zoo family, for the report's
  // calibration section (profile name -> case index -> two contacts).
  std::map<std::string, std::vector<std::array<ContactOutcome, 2>>>
      zoo_outcomes;

  for (std::size_t seed = 0; seed < options.seeds; ++seed) {
    const std::uint64_t campaign_seed =
        crypto::SplitMix64(options.base_seed + seed).next();
    auto clock = std::make_shared<sim::Clock>();
    auto network = std::make_shared<sim::Network>(clock, campaign_seed);
    if (options.latency) {
      network->set_latency({.enabled = true, .base_rtt_ms = 20,
                            .jitter_ms = 8, .seed = campaign_seed});
    }
    // Every pass resolves the 63 cases only (the hostile-TCP pass
    // sabotages their own authorities' stream side).
    testbed::Testbed testbed(network);

    for (const auto& profile : profiles) {
      PassResult pass;
      auto byz_stats = std::make_shared<sim::ByzantineStats>();
      const sim::SimTime pass_start = clock->now();

      // Same schedule RNG seed for every profile: each vendor faces the
      // identical hostile zoo, exactly like the paper's shared testbed.
      crypto::Xoshiro256 schedule_rng(campaign_seed ^ 0x5eedf00d);
      for (const auto& spec : cases) {
        const auto behaviors = draw_schedule(schedule_rng, pass_start);
        const auto address = testbed.server_address(spec.label);
        if (!address.has_value()) continue;  // unroutable-glue cases
        // Mutator RNG per (case, profile) pass, derived from the schedule
        // RNG stream so reinstalling for the next profile resets it.
        network->set_mutator(
            *address, sim::make_byzantine_mutator(behaviors, schedule_rng(),
                                                  byz_stats));
      }

      auto resolver = testbed.make_resolver(profile);
      const auto attempts_bound = static_cast<std::uint64_t>(
          resolver.retry_policy().max_total_attempts);
      // Resolve all cases first — case by case or as one multiplexed
      // batch — then run the identical invariant checks over the
      // collected outcomes.
      std::vector<resolver::Outcome> outcomes(cases.size());
      if (options.async) {
        std::vector<resolver::ResolveJob> jobs;
        jobs.reserve(cases.size());
        for (const auto& spec : cases)
          jobs.push_back({testbed.query_name(spec), dns::RRType::A});
        (void)resolver.resolve_many(
            jobs, jobs.size(),
            [&outcomes](std::size_t index, resolver::Outcome&& outcome) {
              outcomes[index] = std::move(outcome);
            });
      } else {
        for (std::size_t i = 0; i < cases.size(); ++i) {
          outcomes[i] =
              resolver.resolve(testbed.query_name(cases[i]), dns::RRType::A);
        }
      }
      for (std::size_t i = 0; i < cases.size(); ++i) {
        checker.check("seed=" + std::to_string(seed) +
                          " profile=" + profile.name +
                          " case=" + cases[i].label,
                      outcomes[i], attempts_bound, pass);
      }

      // Invariant 4b: no poisoned record survived into the record cache.
      const auto now = clock->now();
      for (const auto type : {dns::RRType::A, dns::RRType::NS,
                              dns::RRType::AAAA}) {
        if (resolver.cache().get_positive(sim::poison_marker(), type, now) !=
                nullptr ||
            resolver.cache().get_stale_positive(sim::poison_marker(), type,
                                                now) != nullptr) {
          std::ostringstream where;
          where << "seed=" << seed << " profile=" << profile.name;
          violations.push_back(
              {where.str(), "poison marker cached as " + dns::to_string(type)});
        }
      }

      pass.hardening = resolver.hardening_stats();
      pass.byzantine = *byz_stats;
      passes[profile.name][seed] = std::move(pass);

      // Leave no mutators behind for the next profile's pass (it installs
      // its own fresh set above, but cases without an address must stay
      // clean).
      for (const auto& spec : cases) {
        if (const auto address = testbed.server_address(spec.label)) {
          network->set_mutator(*address, nullptr);
        }
      }
    }

    if (options.hostile_edns) {
      // ---- EDNS-compliance zoo passes (DESIGN.md §5i) ------------------
      // (a) The calibrated family: every case resolved twice per profile
      // (the second contact with a flipped qtype, so it misses the answer
      // caches and reads the InfraCache capability memory instead), in a
      // fresh identically-seeded world per batch shape. Case-by-case
      // resolve() and one resolve_many() batch per contact at --inflight
      // must agree exactly.
      const auto run_family = [&](bool batched) {
        EdnsFamilyRun run;
        auto family_clock = std::make_shared<sim::Clock>();
        auto family_network =
            std::make_shared<sim::Network>(family_clock, campaign_seed);
        if (options.latency) {
          family_network->set_latency({.enabled = true, .base_rtt_ms = 20,
                                       .jitter_ms = 8,
                                       .seed = campaign_seed});
        }
        testbed::Testbed family_testbed(family_network,
                                        {.edns_family = true});
        const auto& especs = family_testbed.edns_case_specs();
        for (const auto& profile : profiles) {
          PassResult pass;
          auto resolver = family_testbed.make_resolver(profile);
          const auto attempts_bound = static_cast<std::uint64_t>(
              resolver.retry_policy().max_total_attempts);
          std::vector<std::array<resolver::Outcome, 2>> got(especs.size());
          for (const bool second : {false, true}) {
            if (batched) {
              std::vector<resolver::ResolveJob> jobs;
              jobs.reserve(especs.size());
              for (const auto& spec : especs) {
                jobs.push_back({family_testbed.child_origin(spec.label),
                                testbed::Testbed::edns_qtype(spec, second)});
              }
              (void)resolver.resolve_many(
                  jobs, options.inflight,
                  [&got, second](std::size_t index,
                                 resolver::Outcome&& outcome) {
                    got[index][second ? 1 : 0] = std::move(outcome);
                  });
            } else {
              for (std::size_t i = 0; i < especs.size(); ++i) {
                got[i][second ? 1 : 0] = resolver.resolve(
                    family_testbed.child_origin(especs[i].label),
                    testbed::Testbed::edns_qtype(especs[i], second));
              }
            }
          }
          auto& reduced = run.outcomes[profile.name];
          reduced.resize(especs.size());
          for (std::size_t i = 0; i < especs.size(); ++i) {
            for (int contact = 0; contact < 2; ++contact) {
              const auto& outcome =
                  got[i][static_cast<std::size_t>(contact)];
              checker.check("seed=" + std::to_string(seed) +
                                " profile=" + profile.name + " [edns-zoo" +
                                (batched ? " batch" : "") +
                                "] case=" + especs[i].label +
                                (contact == 0 ? " first" : " second"),
                            outcome, attempts_bound, pass);
              reduced[i][static_cast<std::size_t>(contact)] =
                  reduce_outcome(outcome);
            }
          }
          pass.hardening = resolver.hardening_stats();
          run.passes[profile.name] = std::move(pass);
        }
        return run;
      };

      auto one_job_run = run_family(/*batched=*/false);
      const auto batched_run = run_family(/*batched=*/true);

      // Invariant 6: one wide batch is outcome-equivalent to one-job
      // batches, capability memory included.
      const auto& especs = testbed::edns_cases();
      for (const auto& [name, rows] : one_job_run.outcomes) {
        const auto& batched_rows = batched_run.outcomes.at(name);
        for (std::size_t i = 0; i < rows.size(); ++i) {
          for (std::size_t contact = 0; contact < 2; ++contact) {
            if (rows[i][contact] == batched_rows[i][contact]) continue;
            std::ostringstream where;
            where << "seed=" << seed << " profile=" << name
                  << " [edns-zoo] case=" << especs[i].label
                  << (contact == 0 ? " first" : " second");
            violations.push_back(
                {where.str(), "batch diverges from one-job runs: " +
                                  rows[i][contact].to_string() + " vs " +
                                  batched_rows[i][contact].to_string()});
          }
        }
      }
      for (auto& [name, pass] : one_job_run.passes) {
        passes[name + " [edns-zoo]"][seed] = std::move(pass);
      }
      if (seed == 0) zoo_outcomes = std::move(one_job_run.outcomes);

      // (b) Randomized EDNS pathologies over the 63 testbed cases: the
      // same invariants as the main Byzantine pass, with the mutator zoo
      // restricted to the OPT-layer kinds.
      for (const auto& profile : profiles) {
        PassResult pass;
        auto byz_stats = std::make_shared<sim::ByzantineStats>();
        const sim::SimTime pass_start = clock->now();
        crypto::Xoshiro256 schedule_rng(campaign_seed ^ 0xed25ed);
        for (const auto& spec : cases) {
          const auto address = testbed.server_address(spec.label);
          if (!address.has_value()) continue;
          network->set_mutator(
              *address,
              sim::make_byzantine_mutator(
                  draw_edns_schedule(schedule_rng, pass_start),
                  schedule_rng(), byz_stats));
        }

        auto resolver = testbed.make_resolver(profile);
        const auto attempts_bound = static_cast<std::uint64_t>(
            resolver.retry_policy().max_total_attempts);
        for (const auto& spec : cases) {
          checker.check("seed=" + std::to_string(seed) +
                            " profile=" + profile.name +
                            " [hostile-edns] case=" + spec.label,
                        resolver.resolve(testbed.query_name(spec),
                                         dns::RRType::A),
                        attempts_bound, pass);
        }

        pass.hardening = resolver.hardening_stats();
        pass.byzantine = *byz_stats;
        passes[profile.name + " [hostile-edns]"][seed] = std::move(pass);

        for (const auto& spec : cases) {
          if (const auto address = testbed.server_address(spec.label)) {
            network->set_mutator(*address, nullptr);
          }
        }
      }
    }

    if (!options.hostile_tcp) continue;

    // ---- hostile-TCP passes: honest truncation over UDP, a sabotaged
    // stream side, and the no-silent-NOERROR invariant ------------------
    for (const auto& profile : profiles) {
      PassResult pass;
      const sim::SimTime pass_start = clock->now();
      const bool maps_transport =
          profile.mapping.count(dnssec::Defect::TcpConnectFailed) != 0 ||
          profile.mapping.count(dnssec::Defect::TcpStreamFailed) != 0;

      crypto::Xoshiro256 schedule_rng(campaign_seed ^ 0x7c9b17);
      for (const auto& spec : cases) {
        const auto address = testbed.server_address(spec.label);
        if (!address.has_value()) continue;
        // Every child answer goes to the stream: an honest truncation of
        // whatever the server really said (TC set, answer and authority
        // shed whole, OPT kept), which is the buffer lie at probability 1.
        network->set_mutator(
            *address, sim::make_byzantine_mutator(
                          {sim::ByzantineBehavior::edns_buffer_lie()}, 0));
        network->stream().set_behaviors(
            *address, draw_stream_schedule(schedule_rng, pass_start));
      }

      auto resolver = testbed.make_resolver(profile);
      const auto attempts_bound = static_cast<std::uint64_t>(
          resolver.retry_policy().max_total_attempts);
      for (const auto& spec : cases) {
        const auto qname = testbed.query_name(spec);
        const resolver::HardeningStats before = resolver.hardening_stats();
        const auto outcome = resolver.resolve(qname, dns::RRType::A);
        const auto step = obs::delta(resolver.hardening_stats(), before);
        const std::string where = "seed=" + std::to_string(seed) +
                                  " profile=" + profile.name +
                                  " [hostile-tcp] case=" + spec.label;
        checker.check(where, outcome, attempts_bound, pass);
        const bool has_transport_ede = std::any_of(
            outcome.errors.begin(), outcome.errors.end(),
            [](const auto& error) {
              const auto code = static_cast<std::uint16_t>(error.code);
              return code == 22 || code == 23;
            });

        // Invariant 5: a TC bit followed by a failed stream retry must
        // never present as a silent success — and the profiles that map
        // the transport defects must say why (EDE 22 or 23).
        if (step.tc_seen > 0 && step.tcp_success == 0) {
          if (outcome.rcode == dns::RCode::NOERROR) {
            violations.push_back(
                {where, "silent NOERROR after a failed DoTCP fallback"});
          }
          if (maps_transport && !has_transport_ede) {
            violations.push_back(
                {where, "failed stream retry surfaced neither EDE 22 nor 23"});
          }
        }
      }

      pass.hardening = resolver.hardening_stats();
      passes[profile.name + " [hostile-tcp]"][seed] = std::move(pass);

      for (const auto& spec : cases) {
        if (const auto address = testbed.server_address(spec.label)) {
          network->set_mutator(*address, nullptr);
          network->stream().set_behaviors(*address, {});
        }
      }
    }
  }

  // ---- JSON report (deterministic: sorted maps, no wall-clock) ---------
  std::ostringstream json;
  json << "{\n";
  json << "  \"config\": {\"cases\": " << cases.size()
       << ", \"profiles\": " << profiles.size()
       << ", \"seeds\": " << options.seeds
       << ", \"base_seed\": " << options.base_seed
       << ", \"latency\": " << (options.latency ? "true" : "false")
       << ", \"async\": " << (options.async ? "true" : "false") << "},\n";
  json << "  \"invariants\": {\"resolutions\": " << checker.resolutions
       << ", \"violations\": " << violations.size()
       << ", \"max_upstream_queries\": " << checker.max_upstream << "},\n";
  json << "  \"profiles\": [\n";
  bool first_profile = true;
  for (const auto& [name, seeds] : passes) {
    if (!first_profile) json << ",\n";
    first_profile = false;
    json << "    {\"name\": \"" << json_escape(name) << "\", \"seeds\": [\n";
    bool first_seed = true;
    for (const auto& [seed, pass] : seeds) {
      if (!first_seed) json << ",\n";
      first_seed = false;
      json << "      {\"seed\": " << seed << ", \"rcodes\": {";
      bool first = true;
      for (const auto& [rcode, count] : pass.rcodes) {
        if (!first) json << ", ";
        first = false;
        json << "\"" << json_escape(rcode) << "\": " << count;
      }
      json << "}, \"ede\": {";
      first = true;
      for (const auto& [code, count] : pass.ede_codes) {
        if (!first) json << ", ";
        first = false;
        json << "\"" << code << "\": " << count;
      }
      json << "}, \"upstream\": " << pass.upstream_queries
           << ", \"max_upstream\": " << pass.max_upstream_queries;
      json << ", \"hardening\": ";
      obs::write_json(json, pass.hardening);
      const auto& b = pass.byzantine;
      json << ", \"byzantine\": {\"exchanges\": " << b.exchanges_seen
           << ", \"mutations\": " << b.mutations_applied << ", \"by_kind\": {";
      first = true;
      for (std::size_t k = 1; k < sim::kByzantineKindCount; ++k) {
        if (b.by_kind[k] == 0) continue;
        if (!first) json << ", ";
        first = false;
        json << "\"" << sim::to_string(static_cast<sim::ByzantineKind>(k))
             << "\": " << b.by_kind[k];
      }
      json << "}}}";
    }
    json << "\n    ]}";
  }
  json << "\n  ],\n";
  // Campaign-wide mutator totals: every (profile, seed) tally folded
  // through ByzantineStats::merge — what the whole campaign actually
  // threw at the resolver, independent of how passes are grouped.
  sim::ByzantineStats byz_totals;
  for (const auto& [profile_name, seeds] : passes)
    for (const auto& [seed, pass] : seeds) byz_totals.merge(pass.byzantine);
  json << "  \"byzantine_totals\": {\"exchanges\": "
       << byz_totals.exchanges_seen
       << ", \"mutations\": " << byz_totals.mutations_applied
       << ", \"by_kind\": {";
  {
    bool first = true;
    for (std::size_t k = 1; k < sim::kByzantineKindCount; ++k) {
      if (byz_totals.by_kind[k] == 0) continue;
      if (!first) json << ", ";
      first = false;
      json << "\"" << sim::to_string(static_cast<sim::ByzantineKind>(k))
           << "\": " << byz_totals.by_kind[k];
    }
  }
  json << "}},\n";
  if (options.hostile_edns) {
    // Seed-0 per-case EDNS zoo outcomes: the calibration ground truth the
    // expected_edns() table in src/testbed/expected.cpp is pinned to.
    json << "  \"edns_zoo\": [\n";
    const auto& especs = testbed::edns_cases();
    const auto emit_contact = [&json](const ContactOutcome& contact) {
      json << "{\"rcode\": \"" << json_escape(contact.rcode)
           << "\", \"ede\": [";
      for (std::size_t i = 0; i < contact.codes.size(); ++i) {
        if (i != 0) json << ", ";
        json << contact.codes[i];
      }
      json << "]}";
    };
    for (std::size_t i = 0; i < especs.size(); ++i) {
      if (i != 0) json << ",\n";
      json << "    {\"case\": \"" << json_escape(especs[i].label)
           << "\", \"profiles\": {";
      bool first = true;
      for (const auto& profile : profiles) {
        const auto it = zoo_outcomes.find(profile.name);
        if (it == zoo_outcomes.end() || i >= it->second.size()) continue;
        if (!first) json << ", ";
        first = false;
        json << "\"" << json_escape(profile.name) << "\": {\"first\": ";
        emit_contact(it->second[i][0]);
        json << ", \"second\": ";
        emit_contact(it->second[i][1]);
        json << "}";
      }
      json << "}}";
    }
    json << "\n  ],\n";
  }
  json << "  \"violation_details\": [";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    if (i != 0) json << ", ";
    json << "{\"where\": \"" << json_escape(violations[i].where)
         << "\", \"what\": \"" << json_escape(violations[i].what) << "\"}";
  }
  json << "]\n}\n";

  if (options.out_path.empty()) {
    std::cout << json.str();
  } else {
    std::ofstream out(options.out_path, std::ios::binary);
    if (!out) {
      std::cerr << "chaos_campaign: cannot write " << options.out_path
                << "\n";
      return 2;
    }
    out << json.str();
  }

  std::cerr << "chaos_campaign: " << checker.resolutions << " resolutions ("
            << cases.size() << " cases x " << profiles.size()
            << " profiles x " << options.seeds << " seeds), "
            << violations.size() << " invariant violations\n";
  for (const auto& v : violations) {
    std::cerr << "  VIOLATION [" << v.where << "] " << v.what << "\n";
  }
  return violations.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CampaignOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seeds" && i + 1 < argc) {
      options.seeds = static_cast<std::size_t>(std::strtoull(argv[++i],
                                                             nullptr, 10));
    } else if (arg == "--base-seed" && i + 1 < argc) {
      options.base_seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg == "--out" && i + 1 < argc) {
      options.out_path = argv[++i];
    } else if (arg == "--no-latency") {
      options.latency = false;
    } else if (arg == "--hostile-tcp") {
      options.hostile_tcp = true;
    } else if (arg == "--hostile-edns") {
      options.hostile_edns = true;
    } else if (arg == "--inflight" && i + 1 < argc) {
      options.inflight = static_cast<std::size_t>(std::strtoull(argv[++i],
                                                                nullptr, 10));
    } else if (arg == "--async") {
      options.async = true;
    } else {
      std::cerr << "usage: chaos_campaign [--seeds N] [--base-seed S] "
                   "[--out FILE] [--no-latency] [--hostile-tcp] "
                   "[--hostile-edns] [--inflight N] [--async]\n";
      return 2;
    }
  }
  return run_campaign(options);
}
