// E7 — google-benchmark microbenchmarks backing the engineering claims:
// wire codec throughput, hashing, NSEC3 iteration cost, signing and
// validation, full recursive resolutions over the simulated network, and
// end-to-end scan rate (the paper's probe traffic peaked at 11.5 k qps).
#include <benchmark/benchmark.h>

#include "crypto/sha1.hpp"
#include "dnscore/arena.hpp"
#include "crypto/sha2.hpp"
#include "dnscore/wire.hpp"
#include "dnssec/nsec3.hpp"
#include "dnssec/sign.hpp"
#include "edns/ede.hpp"
#include "edns/edns.hpp"
#include "resolver/infra_cache.hpp"
#include "scan/scanner.hpp"
#include "scan/world.hpp"
#include "testbed/testbed.hpp"

namespace {

using namespace ede;

dns::Message sample_message() {
  dns::Message msg =
      dns::make_query(1, dns::Name::of("www.example.com"), dns::RRType::A);
  msg.header.qr = true;
  msg.answer.push_back({dns::Name::of("www.example.com"), dns::RRType::A,
                        dns::RRClass::IN, 3600,
                        dns::ARdata{*dns::Ipv4Address::parse("192.0.2.1")}});
  msg.authority.push_back({dns::Name::of("example.com"), dns::RRType::NS,
                           dns::RRClass::IN, 86400,
                           dns::NsRdata{dns::Name::of("ns1.example.com")}});
  edns::Edns e;
  e.dnssec_ok = true;
  e.add({edns::EdeCode::NetworkError, "192.0.2.7:53 rcode=REFUSED"});
  edns::set_edns(msg, e);
  return msg;
}

void BM_MessageSerialize(benchmark::State& state) {
  const auto msg = sample_message();
  for (auto _ : state) {
    benchmark::DoNotOptimize(msg.serialize());
  }
}
BENCHMARK(BM_MessageSerialize);

void BM_MessageParse(benchmark::State& state) {
  const auto wire = sample_message().serialize();
  for (auto _ : state) {
    auto parsed = dns::Message::parse(wire);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_MessageParse);

// --- codec ----------------------------------------------------------------
// The flat-Name / compression / arena hot path. Baselines live in
// bench/perf_baseline_codec.json; tools/verify.sh prints deltas against it.

void BM_NameParse(benchmark::State& state) {
  for (auto _ : state) {
    auto name = dns::Name::parse("a.long-ish.label.chain.example.com");
    benchmark::DoNotOptimize(name);
  }
}
BENCHMARK(BM_NameParse);

void BM_NameReadWire(benchmark::State& state) {
  // A compression-pointer-free name read: the parse side of every record.
  dns::WireWriter w;
  w.write_name_uncompressed(dns::Name::of("a.long-ish.label.chain.example.com"));
  const auto wire = std::move(w).take();
  for (auto _ : state) {
    dns::WireReader r(wire);
    benchmark::DoNotOptimize(r.read_name());
  }
}
BENCHMARK(BM_NameReadWire);

void BM_NameHashCompare(benchmark::State& state) {
  // The cache-key path: RFC 4343 case-insensitive hash + equality.
  const auto a = dns::Name::of("WWW.Example.COM");
  const auto b = dns::Name::of("www.example.com");
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.hash());
    benchmark::DoNotOptimize(a.equals(b));
  }
}
BENCHMARK(BM_NameHashCompare);

dns::Message compression_heavy_message() {
  // A referral-shaped response: many owner names sharing suffixes, which
  // is exactly what the writer's compression table exists for.
  dns::Message msg = dns::make_query(
      7, dns::Name::of("deep.label.stack.child.example.com"), dns::RRType::A);
  msg.header.qr = true;
  for (int i = 0; i < 8; ++i) {
    const auto ns =
        dns::Name::of("ns" + std::to_string(i) + ".child.example.com");
    msg.authority.push_back({dns::Name::of("child.example.com"),
                             dns::RRType::NS, dns::RRClass::IN, 86400,
                             dns::NsRdata{ns}});
    msg.additional.push_back(
        {ns, dns::RRType::A, dns::RRClass::IN, 3600,
         dns::ARdata{dns::Ipv4Address{0xc0000200u + static_cast<unsigned>(i)}}});
  }
  return msg;
}

void BM_CompressedRoundTrip(benchmark::State& state) {
  const auto msg = compression_heavy_message();
  dns::MessageArena arena;
  for (auto _ : state) {
    const auto wire = arena.serialize(msg);
    auto ok = arena.parse(wire);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(arena.message().additional.size());
  }
}
BENCHMARK(BM_CompressedRoundTrip);

void BM_ArenaSerialize(benchmark::State& state) {
  // Same payload as BM_MessageSerialize but through the reusable arena —
  // the delta between the two is the allocation cost the arena removes.
  const auto msg = sample_message();
  dns::MessageArena arena;
  for (auto _ : state) {
    benchmark::DoNotOptimize(arena.serialize(msg));
  }
}
BENCHMARK(BM_ArenaSerialize);

void BM_Sha256(benchmark::State& state) {
  const crypto::Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_Sha1(benchmark::State& state) {
  const crypto::Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha1::hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(64)->Arg(1024);

void BM_Nsec3Hash(benchmark::State& state) {
  const auto name = dns::Name::of("some-registered-domain.example");
  const crypto::Bytes salt = {0xaa, 0xbb, 0xcc, 0xdd};
  const auto iterations = static_cast<std::uint16_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dnssec::nsec3_hash(name, salt, iterations));
  }
}
// 0 is the RFC 9276 recommendation; 200 is the testbed's worst case; 2500
// the historical ceiling — the cost scaling is the reason for the advice.
BENCHMARK(BM_Nsec3Hash)->Arg(0)->Arg(10)->Arg(200)->Arg(2500);

void BM_SignRrset(benchmark::State& state) {
  const auto zone = dns::Name::of("example.com");
  const auto zsk = dnssec::make_zsk(zone, 8);
  const dns::RRset rrset{zone, dns::RRType::A, dns::RRClass::IN, 3600,
                         {dns::ARdata{*dns::Ipv4Address::parse("192.0.2.1")}}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dnssec::sign_rrset(rrset, zsk, zone, {1000, 2000}));
  }
}
BENCHMARK(BM_SignRrset);

void BM_VerifyRrset(benchmark::State& state) {
  const auto zone = dns::Name::of("example.com");
  const auto zsk = dnssec::make_zsk(zone, 8);
  const dns::RRset rrset{zone, dns::RRType::A, dns::RRClass::IN, 3600,
                         {dns::ARdata{*dns::Ipv4Address::parse("192.0.2.1")}}};
  const auto sig = dnssec::sign_rrset(rrset, zsk, zone, {1000, 2000});
  for (auto _ : state) {
    benchmark::DoNotOptimize(dnssec::verify_rrset(rrset, sig, zsk.dnskey));
  }
}
BENCHMARK(BM_VerifyRrset);

void BM_SignZone(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    zone::Zone z(dns::Name::of("bench.example"));
    dns::SoaRdata soa;
    soa.mname = dns::Name::of("ns1.bench.example");
    soa.rname = dns::Name::of("hostmaster.bench.example");
    z.add(z.origin(), dns::RRType::SOA, soa);
    z.add(z.origin(), dns::RRType::NS,
          dns::NsRdata{dns::Name::of("ns1.bench.example")});
    for (int i = 0; i < state.range(0); ++i) {
      z.add(dns::Name::of("host" + std::to_string(i) + ".bench.example"),
            dns::RRType::A, dns::ARdata{dns::Ipv4Address{0x5db8d801u + i}});
    }
    const auto keys = zone::make_zone_keys(z.origin());
    state.ResumeTiming();
    zone::sign_zone(z, keys, {});
    benchmark::DoNotOptimize(z.record_count());
  }
}
BENCHMARK(BM_SignZone)->Arg(10)->Arg(100);

void BM_FullResolution(benchmark::State& state) {
  auto network = std::make_shared<sim::Network>(
      std::make_shared<sim::Clock>());
  testbed::Testbed bed(network);
  auto resolver = bed.make_resolver(resolver::profile_cloudflare());
  const auto qname = dns::Name::of("valid.extended-dns-errors.com");
  for (auto _ : state) {
    resolver.flush();  // measure cold full-chain resolutions
    benchmark::DoNotOptimize(resolver.resolve(qname, dns::RRType::A));
  }
}
BENCHMARK(BM_FullResolution);

void BM_CachedResolution(benchmark::State& state) {
  auto network = std::make_shared<sim::Network>(
      std::make_shared<sim::Clock>());
  testbed::Testbed bed(network);
  auto resolver = bed.make_resolver(resolver::profile_cloudflare());
  const auto qname = dns::Name::of("valid.extended-dns-errors.com");
  (void)resolver.resolve(qname, dns::RRType::A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(resolver.resolve(qname, dns::RRType::A));
  }
}
BENCHMARK(BM_CachedResolution);

void BM_ScanThroughput(benchmark::State& state) {
  scan::PopulationConfig config;
  config.total_domains = 4000;
  const auto population = scan::generate_population(config);
  auto network = std::make_shared<sim::Network>(
      std::make_shared<sim::Clock>());
  scan::ScanWorld world(network, population);
  auto resolver = world.make_resolver(resolver::profile_cloudflare());
  world.prewarm(resolver);

  std::size_t domains = 0;
  for (auto _ : state) {
    const auto result = scan::Scanner{}.run(resolver, population);
    domains += result.total_domains;
    benchmark::DoNotOptimize(result.domains_with_ede);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(domains));
  state.counters["domains/s"] = benchmark::Counter(
      static_cast<double>(domains), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ScanThroughput)->Unit(benchmark::kMillisecond);

// --- infra cache -----------------------------------------------------------
// The hot path of server selection: every candidate's entry is looked up
// (hold-down, EDNS verdict) before a packet is spent, and every exchange
// reports back. Baselines live in bench/perf_baseline_infra.json.

sim::NodeAddress pool_address(int i) {
  return sim::NodeAddress::of(std::to_string(185 + i / 62'500) + ".30." +
                              std::to_string((i / 250) % 250) + "." +
                              std::to_string(1 + i % 250));
}

void BM_InfraCacheReport(benchmark::State& state) {
  resolver::InfraCache cache;
  std::vector<sim::NodeAddress> addrs;
  for (int i = 0; i < state.range(0); ++i) {
    addrs.push_back(pool_address(i));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& addr = addrs[i++ % addrs.size()];
    // 1:3 failure:success mix, roughly the wild scan's lame ratio ceiling.
    if (i % 4 == 0) {
      cache.report_failure(addr, resolver::InfraCache::FailureKind::Timeout,
                           1'000'000);
    } else {
      cache.report_success(addr, static_cast<std::uint32_t>(20 + i % 7));
    }
    benchmark::DoNotOptimize(cache.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_InfraCacheReport)->Arg(16)->Arg(1024)->Arg(65536);

void BM_InfraCacheSelect(benchmark::State& state) {
  resolver::InfraCache cache;
  std::vector<sim::NodeAddress> addrs;
  for (int i = 0; i < state.range(0); ++i) {
    addrs.push_back(pool_address(i));
    cache.report_success(addrs.back(), 20 + i % 40);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& addr = addrs[i++ % addrs.size()];
    benchmark::DoNotOptimize(cache.find(addr));
    benchmark::DoNotOptimize(cache.held_down(addr, 1'000'000));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(2 * state.iterations()));
}
BENCHMARK(BM_InfraCacheSelect)->Arg(16)->Arg(1024)->Arg(65536);

// The macro-level claim behind the cache: resolving through a testbed
// whose authority keeps timing out costs measurably fewer packets once
// the dead server earns its hold-down. items == packets saved per run.
void BM_InfraCacheHolddownResolution(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  auto clock = std::make_shared<sim::Clock>();
  auto network = std::make_shared<sim::Network>(clock);
  testbed::Testbed bed(network);
  const auto dead = bed.server_address("valid").value();
  network->inject_fault(dead, sim::Fault::timeout());
  resolver::ResolverOptions options;
  options.infra.enabled = enabled;
  options.serve_stale = false;
  auto resolver = bed.make_resolver(resolver::profile_cloudflare(), options);
  const auto qname = dns::Name::of("valid.extended-dns-errors.com");

  std::uint64_t packets = 0;
  for (auto _ : state) {
    // Distinct qtypes defeat the servfail cache so every iteration walks
    // to the (dead) authority; the infra cache is what cuts the probes.
    const auto before = network->stats().packets_sent;
    benchmark::DoNotOptimize(resolver.resolve(qname, dns::RRType::TXT));
    benchmark::DoNotOptimize(resolver.resolve(qname, dns::RRType::MX));
    resolver.cache().clear();
    packets += network->stats().packets_sent - before;
  }
  state.counters["packets/iter"] = benchmark::Counter(
      static_cast<double>(packets), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_InfraCacheHolddownResolution)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
