// White-box testbed tests: each mutation leaves exactly the defect its
// test case names, including the tag-preservation properties that keep the
// validator's diagnosis precise.
#include <gtest/gtest.h>

#include "dnssec/keys.hpp"
#include "testbed/testbed.hpp"

namespace {

using namespace ede;
using dns::DnskeyRdata;
using dns::Name;
using dns::RRType;

class TestbedZones : public ::testing::Test {
 protected:
  TestbedZones()
      : network_(std::make_shared<sim::Network>(
            std::make_shared<sim::Clock>())),
        testbed_(network_) {}

  std::shared_ptr<const zone::Zone> zone(std::string_view label) {
    auto z = testbed_.child_zone(label);
    EXPECT_NE(z, nullptr) << label;
    return z;
  }

  const DnskeyRdata* key(const zone::Zone& z, std::uint16_t flags) {
    const auto* rrset = z.find(z.origin(), RRType::DNSKEY);
    if (rrset == nullptr) return nullptr;
    for (const auto& rd : rrset->rdatas) {
      const auto* k = std::get_if<DnskeyRdata>(&rd);
      if (k != nullptr && (k->flags & ~DnskeyRdata::kZoneKeyFlag) ==
                              (flags & ~DnskeyRdata::kZoneKeyFlag) &&
          (flags == 0 || k->flags == flags))
        return k;
    }
    return nullptr;
  }

  std::shared_ptr<sim::Network> network_;
  testbed::Testbed testbed_;
};

TEST_F(TestbedZones, SixtyThreeCases) {
  EXPECT_EQ(testbed_.cases().size(), 63u);
  int group_counts[9] = {};
  for (const auto& spec : testbed_.cases()) ++group_counts[spec.group];
  EXPECT_EQ(group_counts[1], 1);   // control
  EXPECT_EQ(group_counts[2], 7);   // DS
  EXPECT_EQ(group_counts[3], 8);   // RRSIG
  EXPECT_EQ(group_counts[4], 9);   // NSEC3
  EXPECT_EQ(group_counts[5], 14);  // DNSKEY
  EXPECT_EQ(group_counts[6], 10);  // AAAA glue
  EXPECT_EQ(group_counts[7], 8);   // A glue
  EXPECT_EQ(group_counts[8], 6);   // other
}

TEST_F(TestbedZones, ValidZoneIsFullySigned) {
  const auto z = zone("valid");
  EXPECT_FALSE(z->signatures(z->origin(), RRType::A).empty());
  EXPECT_FALSE(z->signatures(z->origin(), RRType::DNSKEY).empty());
  EXPECT_NE(z->find(z->origin(), RRType::NSEC3PARAM), nullptr);
}

TEST_F(TestbedZones, RrsigRemoveAVariantIsSurgical) {
  const auto z = zone("rrsig-no-a");
  EXPECT_TRUE(z->signatures(z->origin(), RRType::A).empty());
  EXPECT_FALSE(z->signatures(z->origin(), RRType::SOA).empty());
  EXPECT_FALSE(z->signatures(z->origin(), RRType::DNSKEY).empty());
}

TEST_F(TestbedZones, RrsigRemoveAllLeavesNothing) {
  const auto z = zone("rrsig-no-all");
  for (const auto& name : z->names()) {
    EXPECT_EQ(z->find(name, RRType::RRSIG), nullptr) << name.to_string();
  }
}

TEST_F(TestbedZones, ExpiredTimesAreInThePast) {
  const auto z = zone("rrsig-exp-all");
  const auto sigs = z->signatures(z->origin(), RRType::DNSKEY);
  ASSERT_FALSE(sigs.empty());
  for (const auto& sig : sigs) {
    EXPECT_LT(sig.expiration, sim::kDefaultNow);
    EXPECT_LT(sig.inception, sig.expiration);
  }
}

TEST_F(TestbedZones, ExpBeforeValidInvertsTheWindow) {
  const auto z = zone("rrsig-exp-before-all");
  for (const auto& sig : z->signatures(z->origin(), RRType::A)) {
    EXPECT_GT(sig.inception, sig.expiration);
  }
}

TEST_F(TestbedZones, ZskCorruptionPreservesTheKeyTag) {
  const auto pristine = dnssec::make_zsk(
      testbed_.child_origin(testbed_.cases()[26].label), 8);  // bad-zsk
  ASSERT_EQ(testbed_.cases()[26].label, "bad-zsk");
  const auto z = zone("bad-zsk");
  const auto* mutated = key(*z, DnskeyRdata::kZskFlags);
  ASSERT_NE(mutated, nullptr);
  EXPECT_NE(mutated->public_key, pristine.dnskey.public_key);
  EXPECT_EQ(dnssec::key_tag(*mutated), pristine.tag());
}

TEST_F(TestbedZones, ZoneBitClearingPreservesTheKeyTag) {
  const auto pristine = dnssec::make_zsk(
      testbed_.child_origin(testbed_.cases()[33].label), 8);  // no-dnskey-256
  ASSERT_EQ(testbed_.cases()[33].label, "no-dnskey-256");
  const auto z = zone("no-dnskey-256");
  const auto* mutated = key(*z, 0);  // flags 0 after clearing
  ASSERT_NE(mutated, nullptr);
  EXPECT_FALSE(mutated->is_zone_key());
  EXPECT_EQ(dnssec::key_tag(*mutated), pristine.tag());
}

TEST_F(TestbedZones, WrongAlgoFieldPreservesTheKeyTag) {
  const auto pristine = dnssec::make_zsk(
      testbed_.child_origin(testbed_.cases()[36].label), 8);  // bad-zsk-algo
  ASSERT_EQ(testbed_.cases()[36].label, "bad-zsk-algo");
  const auto z = zone("bad-zsk-algo");
  const auto* mutated = key(*z, DnskeyRdata::kZskFlags);
  ASSERT_NE(mutated, nullptr);
  EXPECT_EQ(mutated->algorithm, 13);
  EXPECT_EQ(dnssec::key_tag(*mutated), pristine.tag());
}

TEST_F(TestbedZones, KeyRemovalsRemoveTheRightKey) {
  const auto no_zsk = zone("no-zsk");
  EXPECT_EQ(key(*no_zsk, DnskeyRdata::kZskFlags), nullptr);
  EXPECT_NE(key(*no_zsk, DnskeyRdata::kKskFlags), nullptr);
  const auto no_ksk = zone("no-ksk");
  EXPECT_NE(key(*no_ksk, DnskeyRdata::kZskFlags), nullptr);
  EXPECT_EQ(key(*no_ksk, DnskeyRdata::kKskFlags), nullptr);
}

TEST_F(TestbedZones, KskRrsigRemovalLeavesZskSignature) {
  const auto z = zone("no-rrsig-ksk");
  const auto sigs = z->signatures(z->origin(), RRType::DNSKEY);
  ASSERT_EQ(sigs.size(), 1u);
  const auto zsk = dnssec::make_zsk(z->origin(), 8);
  EXPECT_EQ(sigs.front().key_tag, zsk.tag());
}

TEST_F(TestbedZones, Nsec3MutationsTouchOnlyTheChain) {
  const auto z = zone("nsec3-missing");
  bool any_nsec3 = false;
  for (const auto& name : z->names())
    any_nsec3 |= z->find(name, RRType::NSEC3) != nullptr;
  EXPECT_FALSE(any_nsec3);
  EXPECT_NE(z->find(z->origin(), RRType::NSEC3PARAM), nullptr);
  EXPECT_FALSE(z->signatures(z->origin(), RRType::SOA).empty());
}

TEST_F(TestbedZones, SaltMutationDivergesFromParam) {
  const auto z = zone("bad-nsec3param-salt");
  const auto* param_set = z->find(z->origin(), RRType::NSEC3PARAM);
  ASSERT_NE(param_set, nullptr);
  const auto& param =
      std::get<dns::Nsec3ParamRdata>(param_set->rdatas.front());
  for (const auto& name : z->names()) {
    const auto* rrset = z->find(name, RRType::NSEC3);
    if (rrset == nullptr) continue;
    for (const auto& rd : rrset->rdatas) {
      EXPECT_NE(std::get<dns::Nsec3Rdata>(rd).salt, param.salt);
    }
  }
}

TEST_F(TestbedZones, GlueCasesPublishNoDsAndAreUnsigned) {
  for (const auto& spec : testbed_.cases()) {
    if (spec.group != 6 && spec.group != 7) continue;
    const auto z = zone(spec.label);
    EXPECT_EQ(z->find(z->origin(), RRType::DNSKEY), nullptr) << spec.label;
  }
}

TEST_F(TestbedZones, QueryNamesMatchTheCaseSemantics) {
  for (const auto& spec : testbed_.cases()) {
    const auto qname = testbed_.query_name(spec);
    if (spec.query_nonexistent) {
      EXPECT_EQ(qname.labels().front(), "nonexistent") << spec.label;
    } else {
      EXPECT_EQ(qname, testbed_.child_origin(spec.label)) << spec.label;
    }
    EXPECT_TRUE(qname.is_subdomain_of(testbed_.base_domain()));
  }
}

TEST_F(TestbedZones, StandbyMutationAddsUnsignedSep) {
  // Not part of the 63 cases, but the scan depends on it: apply directly.
  const Name origin = Name::of("standby.test");
  zone::Zone z(origin);
  dns::SoaRdata soa;
  soa.mname = origin;
  soa.rname = origin;
  z.add(origin, RRType::SOA, soa);
  z.add(origin, RRType::A, dns::ARdata{*dns::Ipv4Address::parse("93.184.216.1")});
  const auto keys = zone::make_zone_keys(origin);
  zone::SigningPolicy policy;
  zone::sign_zone(z, keys, policy);
  testbed::apply_mutation(z, keys, policy,
                          testbed::Mutation::StandbyKskUnsigned);

  const auto* dnskey = z.find(origin, RRType::DNSKEY);
  ASSERT_NE(dnskey, nullptr);
  EXPECT_EQ(dnskey->rdatas.size(), 3u);  // KSK + ZSK + stand-by
  // The active KSK still covers the RRset; the stand-by does not.
  const auto sigs = z.signatures(origin, RRType::DNSKEY);
  for (const auto& sig : sigs) {
    EXPECT_NE(sig.key_tag,
              dnssec::make_key(origin, "standby-ksk",
                               DnskeyRdata::kKskFlags, 8)
                  .tag());
  }
}

}  // namespace
