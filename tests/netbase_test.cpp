#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "orion/netbase/checksum.hpp"
#include "orion/netbase/five_tuple.hpp"
#include "orion/netbase/flat_map.hpp"
#include "orion/netbase/shard.hpp"
#include "orion/netbase/ipv4.hpp"
#include "orion/netbase/prefix.hpp"
#include "orion/netbase/rng.hpp"
#include "orion/netbase/simtime.hpp"

namespace orion::net {
namespace {

// ---------------------------------------------------------------- Ipv4Address

TEST(Ipv4Address, ParsesDottedQuad) {
  const auto a = Ipv4Address::parse("192.0.2.1");
  ASSERT_TRUE(a);
  EXPECT_EQ(a->value(), 0xC0000201u);
  EXPECT_EQ(a->octet(0), 192);
  EXPECT_EQ(a->octet(3), 1);
}

TEST(Ipv4Address, ParseRejectsMalformedInput) {
  for (const char* bad : {"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "1..2.3",
                          "1.2.3.4x", "a.b.c.d", " 1.2.3.4", "-1.2.3.4"}) {
    EXPECT_FALSE(Ipv4Address::parse(bad)) << bad;
  }
}

TEST(Ipv4Address, ToStringRoundTrips) {
  for (const char* text : {"0.0.0.0", "255.255.255.255", "10.1.2.3", "198.18.0.1"}) {
    const auto a = Ipv4Address::parse(text);
    ASSERT_TRUE(a);
    EXPECT_EQ(a->to_string(), text);
  }
}

TEST(Ipv4Address, NetworkOrderRoundTrips) {
  const Ipv4Address a = Ipv4Address::from_octets(1, 2, 3, 4);
  EXPECT_EQ(a.to_network(), 0x04030201u);
  EXPECT_EQ(Ipv4Address::from_network(a.to_network()), a);
}

TEST(Ipv4Address, Slash24MasksHostBits) {
  const Ipv4Address a = Ipv4Address::from_octets(10, 20, 30, 40);
  EXPECT_EQ(a.slash24(), Ipv4Address::from_octets(10, 20, 30, 0));
}

TEST(Ipv4Address, OrderingFollowsNumericValue) {
  EXPECT_LT(*Ipv4Address::parse("9.255.255.255"), *Ipv4Address::parse("10.0.0.0"));
}

// -------------------------------------------------------------------- Prefix

TEST(Prefix, ParseAndProperties) {
  const auto p = Prefix::parse("198.51.100.0/24");
  ASSERT_TRUE(p);
  EXPECT_EQ(p->length(), 24);
  EXPECT_EQ(p->size(), 256u);
  EXPECT_EQ(p->slash24_count(), 1u);
  EXPECT_EQ(p->to_string(), "198.51.100.0/24");
}

TEST(Prefix, ParseRejectsMalformed) {
  for (const char* bad : {"", "1.2.3.4", "1.2.3.4/33", "1.2.3.4/-1", "x/8",
                          "1.2.3.4/8z"}) {
    EXPECT_FALSE(Prefix::parse(bad)) << bad;
  }
}

TEST(Prefix, HostBitsAreZeroed) {
  const Prefix p(*Ipv4Address::parse("10.1.2.3"), 16);
  EXPECT_EQ(p.base(), *Ipv4Address::parse("10.1.0.0"));
  EXPECT_EQ(p, *Prefix::parse("10.1.0.0/16"));
}

TEST(Prefix, ContainsAddressesAndPrefixes) {
  const Prefix p = *Prefix::parse("10.0.0.0/8");
  EXPECT_TRUE(p.contains(*Ipv4Address::parse("10.255.0.1")));
  EXPECT_FALSE(p.contains(*Ipv4Address::parse("11.0.0.0")));
  EXPECT_TRUE(p.contains(*Prefix::parse("10.4.0.0/16")));
  EXPECT_FALSE(p.contains(*Prefix::parse("0.0.0.0/0")));
  EXPECT_TRUE(Prefix::parse("0.0.0.0/0")->contains(p));
}

TEST(Prefix, AtAndOffsetAreInverse) {
  const Prefix p = *Prefix::parse("192.168.4.0/22");
  for (const std::uint64_t offset : {0ull, 1ull, 511ull, 1023ull}) {
    EXPECT_EQ(p.offset_of(p.at(offset)), offset);
  }
  EXPECT_EQ(p.last(), p.at(p.size() - 1));
}

TEST(Prefix, SlashZeroCoversEverything) {
  const Prefix p = *Prefix::parse("0.0.0.0/0");
  EXPECT_EQ(p.size(), 1ull << 32);
  EXPECT_EQ(p.slash24_count(), 1ull << 24);
  EXPECT_TRUE(p.contains(*Ipv4Address::parse("255.255.255.255")));
}

// ----------------------------------------------------------------- PrefixSet

TEST(PrefixSet, MembershipAndLookup) {
  PrefixSet set({*Prefix::parse("10.0.0.0/16"), *Prefix::parse("172.16.0.0/20")});
  EXPECT_TRUE(set.contains(*Ipv4Address::parse("10.0.200.9")));
  EXPECT_TRUE(set.contains(*Ipv4Address::parse("172.16.15.255")));
  EXPECT_FALSE(set.contains(*Ipv4Address::parse("172.16.16.0")));
  EXPECT_FALSE(set.contains(*Ipv4Address::parse("9.255.255.255")));
  EXPECT_EQ(set.find(*Ipv4Address::parse("10.0.0.1"))->to_string(), "10.0.0.0/16");
}

TEST(PrefixSet, RejectsOverlap) {
  PrefixSet set({*Prefix::parse("10.0.0.0/16")});
  EXPECT_THROW(set.add(*Prefix::parse("10.0.4.0/24")), std::invalid_argument);
  EXPECT_THROW(set.add(*Prefix::parse("10.0.0.0/8")), std::invalid_argument);
  EXPECT_NO_THROW(set.add(*Prefix::parse("10.1.0.0/16")));
}

TEST(PrefixSet, TotalsAcrossMembers) {
  PrefixSet set({*Prefix::parse("10.0.0.0/24"), *Prefix::parse("10.2.0.0/23")});
  EXPECT_EQ(set.total_addresses(), 256u + 512u);
  EXPECT_EQ(set.total_slash24s(), 1u + 2u);
}

TEST(PrefixSet, AddressAtOffsetRoundTripsAcrossPrefixes) {
  PrefixSet set({*Prefix::parse("10.0.0.0/24"), *Prefix::parse("10.2.0.0/23"),
                 *Prefix::parse("192.168.0.0/30")});
  for (std::uint64_t offset = 0; offset < set.total_addresses(); ++offset) {
    const Ipv4Address a = set.address_at(offset);
    EXPECT_TRUE(set.contains(a));
    EXPECT_EQ(set.offset_of(a), offset);
  }
  EXPECT_THROW(set.address_at(set.total_addresses()), std::out_of_range);
  EXPECT_THROW(set.offset_of(*Ipv4Address::parse("10.9.9.9")), std::out_of_range);
}

// ----------------------------------------------------------------- Checksum

TEST(InternetChecksum, Rfc1071Example) {
  // RFC 1071 example bytes: words sum to 0x2DDF0, folds to 0xDDF2,
  // complement 0x220D.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(InternetChecksum::of(data), 0x220D);
}

TEST(InternetChecksum, VerifiesToZero) {
  std::uint8_t data[] = {0x45, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x40, 0x00,
                         0x40, 0x06, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x01,
                         0x0a, 0x00, 0x00, 0x02};
  const std::uint16_t csum = InternetChecksum::of(data);
  data[10] = static_cast<std::uint8_t>(csum >> 8);
  data[11] = static_cast<std::uint8_t>(csum);
  EXPECT_EQ(InternetChecksum::of(data), 0);
}

TEST(InternetChecksum, HandlesOddLength) {
  const std::uint8_t data[] = {0xAB, 0xCD, 0xEF};
  // Odd trailing byte is padded with zero on the right.
  InternetChecksum sum;
  sum.add_word(0xABCD);
  sum.add_word(0xEF00);
  EXPECT_EQ(InternetChecksum::of(data), sum.finalize());
}

// ----------------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkedStreamsAreIndependentAndDeterministic) {
  Rng parent1(9), parent2(9);
  Rng child_a = parent1.fork(1);
  Rng child_b = parent2.fork(1);
  EXPECT_EQ(child_a.next(), child_b.next());
  Rng parent3(9);
  Rng other = parent3.fork(2);
  EXPECT_NE(child_a.next(), other.next());
}

TEST(Rng, BoundedStaysInRangeAndIsRoughlyUniform) {
  Rng rng(5);
  std::array<int, 10> buckets{};
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t v = rng.bounded(10);
    ASSERT_LT(v, 10u);
    ++buckets[v];
  }
  for (const int count : buckets) {
    EXPECT_NEAR(count, 10000, 500);
  }
}

TEST(Rng, UniformIsInUnitInterval) {
  Rng rng(6);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

struct BinomialCase {
  std::uint64_t n;
  double p;
};

class RngBinomialTest : public testing::TestWithParam<BinomialCase> {};

TEST_P(RngBinomialTest, MatchesMeanAndVariance) {
  const auto [n, p] = GetParam();
  Rng rng(42);
  const int trials = 4000;
  double sum = 0, sum_sq = 0;
  for (int i = 0; i < trials; ++i) {
    const auto v = static_cast<double>(rng.binomial(n, p));
    ASSERT_LE(v, static_cast<double>(n));
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / trials;
  const double expected_mean = static_cast<double>(n) * p;
  const double expected_var = expected_mean * (1 - p);
  const double tolerance = 5 * std::sqrt(expected_var / trials) + 1e-9;
  EXPECT_NEAR(mean, expected_mean, tolerance + 0.02 * expected_mean);
  const double var = sum_sq / trials - mean * mean;
  EXPECT_NEAR(var, expected_var, 0.25 * expected_var + 0.1);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RngBinomialTest,
    testing::Values(BinomialCase{10, 0.5}, BinomialCase{100, 0.01},
                    BinomialCase{1000, 0.001}, BinomialCase{32768, 0.1},
                    BinomialCase{32768, 0.9}, BinomialCase{1000000, 0.0001},
                    BinomialCase{500, 0.3}));

TEST(Rng, BinomialEdgeCases) {
  Rng rng(1);
  EXPECT_EQ(rng.binomial(0, 0.5), 0u);
  EXPECT_EQ(rng.binomial(100, 0.0), 0u);
  EXPECT_EQ(rng.binomial(100, 1.0), 100u);
}

TEST(Rng, PoissonMatchesMean) {
  Rng rng(7);
  for (const double mean : {0.5, 3.0, 20.0, 200.0}) {
    double sum = 0;
    const int trials = 3000;
    for (int i = 0; i < trials; ++i) sum += static_cast<double>(rng.poisson(mean));
    EXPECT_NEAR(sum / trials, mean, 5 * std::sqrt(mean / trials) + 0.05 * mean);
  }
}

TEST(Rng, ExponentialMatchesMean) {
  Rng rng(8);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

// ------------------------------------------------------------------- SimTime

TEST(SimTime, DayAndSecondBuckets) {
  const SimTime t = SimTime::at(Duration::days(3) + Duration::hours(5) +
                                Duration::seconds(7));
  EXPECT_EQ(t.day(), 3);
  EXPECT_EQ(t.second(), 3 * 86400 + 5 * 3600 + 7);
  EXPECT_EQ(t.to_string(), "d003 05:00:07");
}

TEST(SimTime, Arithmetic) {
  const SimTime a = SimTime::at(Duration::seconds(100));
  const SimTime b = a + Duration::seconds(50);
  EXPECT_EQ((b - a).total_whole_seconds(), 50);
  EXPECT_EQ(b - Duration::seconds(50), a);
  EXPECT_LT(a, b);
}

TEST(SimTime, WeekdayCalendar) {
  EXPECT_EQ(weekday_of(0), Weekday::Fri);  // 2021-01-01
  EXPECT_EQ(weekday_of(1), Weekday::Sat);
  EXPECT_EQ(weekday_of(2), Weekday::Sun);
  EXPECT_EQ(weekday_of(3), Weekday::Mon);
  EXPECT_TRUE(is_weekend(1));
  EXPECT_TRUE(is_weekend(2));
  EXPECT_FALSE(is_weekend(3));
  // 2022-01-15 was a Saturday (paper Table 2).
  EXPECT_EQ(weekday_of(day_index_of(2022, 1, 15)), Weekday::Sat);
}

TEST(SimTime, DayLabelsMatchCalendar) {
  EXPECT_EQ(day_label(0), "2021-01-01");
  EXPECT_EQ(day_label(364), "2021-12-31");
  EXPECT_EQ(day_label(365), "2022-01-01");
  EXPECT_EQ(day_label(day_index_of(2022, 10, 15)), "2022-10-15");
  // Feb 29, 2024 (leap year handling).
  EXPECT_EQ(day_label(day_index_of(2024, 2, 29)), "2024-02-29");
  EXPECT_EQ(day_label(day_index_of(2024, 3, 1)), "2024-03-01");
}

TEST(SimTime, DayIndexRoundTrips) {
  for (const std::int64_t day : {0, 100, 365, 653, 900}) {
    const std::string label = day_label(day);
    EXPECT_EQ(day_index_of(std::stoi(label.substr(0, 4)),
                           std::stoi(label.substr(5, 2)),
                           std::stoi(label.substr(8, 2))),
              day);
  }
}

// ----------------------------------------------------------------- FiveTuple

TEST(FiveTuple, EqualityAndHash) {
  const FiveTuple a{Ipv4Address(1), Ipv4Address(2), 10, 20, IpProto::Tcp};
  FiveTuple b = a;
  EXPECT_EQ(a, b);
  EXPECT_EQ(FiveTupleHash{}(a), FiveTupleHash{}(b));
  b.dst_port = 21;
  EXPECT_NE(a, b);
}

TEST(FiveTuple, HashSpreadsOverBuckets) {
  std::unordered_set<std::size_t> hashes;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    const FiveTuple t{Ipv4Address(i), Ipv4Address(i + 1),
                      static_cast<std::uint16_t>(i), 80, IpProto::Tcp};
    hashes.insert(FiveTupleHash{}(t));
  }
  EXPECT_GT(hashes.size(), 990u);
}

TEST(FiveTuple, ProtoNames) {
  EXPECT_STREQ(to_string(IpProto::Tcp), "TCP");
  EXPECT_STREQ(to_string(IpProto::Udp), "UDP");
  EXPECT_STREQ(to_string(IpProto::Icmp), "ICMP");
}

// ------------------------------------------------------------------ FlatMap

// Randomized model check: the open-addressing table must agree with
// std::unordered_map under an arbitrary mix of inserts, erases, and
// lookups (exercising growth, backward-shift deletion, and clustering).
TEST(FlatMap, AgreesWithUnorderedMapModel) {
  FlatMap<std::uint32_t, std::uint64_t> table;
  std::unordered_map<std::uint32_t, std::uint64_t> model;
  Rng rng(99);
  for (int step = 0; step < 20000; ++step) {
    const std::uint32_t key = static_cast<std::uint32_t>(rng.bounded(512));
    const int op = static_cast<int>(rng.bounded(3));
    if (op == 0) {
      const auto [slot, inserted] = table.try_emplace(key, 0);
      const auto [it, model_inserted] = model.try_emplace(key, 0);
      EXPECT_EQ(inserted, model_inserted);
      *slot += step;
      it->second += step;
    } else if (op == 1) {
      EXPECT_EQ(table.erase(key), model.erase(key) > 0);
    } else {
      const std::uint64_t* found = table.find(key);
      const auto it = model.find(key);
      ASSERT_EQ(found != nullptr, it != model.end());
      if (found != nullptr) EXPECT_EQ(*found, it->second);
    }
    ASSERT_EQ(table.size(), model.size());
  }
  std::unordered_map<std::uint32_t, std::uint64_t> dumped;
  table.for_each([&](const std::uint32_t& k, const std::uint64_t& v) {
    dumped.emplace(k, v);
  });
  EXPECT_EQ(dumped, model);
}

TEST(FlatMap, ReserveKeepsContents) {
  FlatMap<std::uint32_t, std::uint32_t> table;
  for (std::uint32_t i = 0; i < 100; ++i) *table.try_emplace(i, 0).first = i;
  table.reserve(100000);
  EXPECT_EQ(table.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    const std::uint32_t* v = table.find(i);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, i);
  }
}

// ----------------------------------------------------------------- shard_of

TEST(Shard, StableAndInRange) {
  const Ipv4Address a(0xC0000201u);
  const std::size_t first = shard_of(a, 7);
  EXPECT_LT(first, 7u);
  EXPECT_EQ(shard_of(a, 7), first);  // pure function of (src, count)
  EXPECT_EQ(shard_of(a, 1), 0u);
  EXPECT_EQ(shard_of(a, 0), 0u);
}

TEST(Shard, SpreadsSourcesRoughlyEvenly) {
  constexpr std::size_t kShards = 8;
  std::array<std::size_t, kShards> counts{};
  for (std::uint32_t i = 0; i < 80000; ++i) {
    // Adjacent addresses (the adversarial case for naive modulo).
    ++counts[shard_of(Ipv4Address(0x0A000000u + i), kShards)];
  }
  for (const std::size_t c : counts) {
    EXPECT_GT(c, 80000 / kShards / 2);
    EXPECT_LT(c, 80000 / kShards * 2);
  }
}

}  // namespace
}  // namespace orion::net
