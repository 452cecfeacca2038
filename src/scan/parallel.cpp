#include "scan/parallel.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "scan/world.hpp"

namespace ede::scan {

std::size_t default_shard_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::vector<ShardPlan> plan_shards(std::size_t domains, std::size_t shards,
                                   std::uint64_t base_seed) {
  if (shards == 0) shards = default_shard_count();
  shards = std::clamp<std::size_t>(shards, 1,
                                   std::max<std::size_t>(domains, 1));
  std::vector<ShardPlan> plans;
  plans.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    // Even contiguous split: shard i covers [i*n/N, (i+1)*n/N).
    plans.push_back({i, domains * i / shards, domains * (i + 1) / shards,
                     base_seed ^ static_cast<std::uint64_t>(i)});
  }
  return plans;
}

ParallelScanResult run_parallel_scan(const Population& population,
                                     const resolver::ResolverProfile& profile,
                                     ParallelScanOptions options) {
  const auto plans = plan_shards(population.domains.size(), options.shards,
                                 options.base_seed);
  ParallelScanResult out;
  out.shards.resize(plans.size());
  std::vector<std::string> errors(plans.size());

  const auto run_shard = [&](std::size_t index) {
    try {
      const ShardPlan& plan = plans[index];
      // The worker's private universe. Every shard rebuilds the world from
      // the shared read-only population, so nothing here is contended.
      auto clock = std::make_shared<sim::Clock>();
      auto network = std::make_shared<sim::Network>(clock, plan.seed);
      if (options.latency.has_value()) {
        sim::LatencyModel model = *options.latency;
        model.seed = plan.seed;
        network->set_latency(model);
      }
      ScanWorld world(network, population);
      auto resolver = world.make_resolver(profile, options.resolver);
      world.prewarm(resolver, plan.begin, plan.end);

      ShardOutcome& slot = out.shards[index];
      slot.shard_id = plan.shard_id;
      slot.first_domain = plan.begin;
      slot.domain_count = plan.end - plan.begin;
      slot.result = Scanner(options.scanner)
                        .run(resolver, population, plan.begin, plan.end);
    } catch (const std::exception& error) {
      errors[index] = error.what();
    } catch (...) {
      errors[index] = "unknown worker failure";
    }
  };

  const auto start = std::chrono::steady_clock::now();
  if (plans.size() == 1) {
    run_shard(0);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(plans.size());
    for (std::size_t i = 0; i < plans.size(); ++i)
      workers.emplace_back(run_shard, i);
    for (auto& worker : workers) worker.join();
  }
  out.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();

  for (std::size_t i = 0; i < plans.size(); ++i) {
    if (!errors[i].empty()) {
      throw std::runtime_error("scan shard " + std::to_string(i) +
                               " failed: " + errors[i]);
    }
  }

  for (const auto& shard : out.shards) out.merged.merge(shard.result);
  return out;
}

}  // namespace ede::scan
