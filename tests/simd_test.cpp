// DESIGN.md §14 equivalence contract: every SIMD kernel must produce
// bit-identical results to its pinned scalar reference at every tier the
// machine can run, for every length class (empty, single element, one
// under/over the vector width, ragged multiples, large buffers). The
// suite force-sets each available tier and fuzzes each kernel against
// the scalar form, then checks the composite consumers (PrefixSet batch
// membership, CoverageBitset popcounts, the tag-probed FlatMap, and a
// miniature aggregator capture) stay invariant under tier switching.
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "orion/detect/port_set.hpp"
#include "orion/netbase/aligned.hpp"
#include "orion/netbase/checksum.hpp"
#include "orion/netbase/crc32.hpp"
#include "orion/netbase/flat_map.hpp"
#include "orion/netbase/prefix.hpp"
#include "orion/netbase/rng.hpp"
#include "orion/netbase/simd.hpp"
#include "orion/packet/batch.hpp"
#include "orion/packet/builder.hpp"
#include "orion/packet/classify.hpp"
#include "orion/stats/coverage.hpp"
#include "orion/telescope/aggregator.hpp"
#include "orion/telescope/checkpoint.hpp"

namespace {

using namespace orion;
namespace simd = net::simd;

/// Restores the dispatch tier active at construction (tests force tiers).
struct TierGuard {
  simd::Level saved = simd::active_level();
  ~TierGuard() { simd::set_level(saved); }
};

/// Lengths hitting every boundary class of the 16- and 32-lane kernels.
const std::vector<std::size_t> kLengths = {0,  1,  2,  7,  8,   15,  16,  17,
                                           31, 32, 33, 63, 64,  65,  100, 255,
                                           256, 257, 1000, 4096, 65537};

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> data(n);
  net::Rng rng(seed);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  return data;
}

TEST(SimdDispatch, LevelPlumbing) {
  TierGuard guard;
  const auto tiers = simd::available_levels();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), simd::Level::Scalar);
  for (const simd::Level tier : tiers) {
    EXPECT_EQ(simd::set_level(tier), tier);
    EXPECT_EQ(simd::active_level(), tier);
  }
  // Requesting a foreign-ISA or unsupported tier clamps, never raises.
  const simd::Level got = simd::set_level(simd::Level::Neon);
  EXPECT_LE(static_cast<int>(got), static_cast<int>(simd::detected_level()));
  EXPECT_FALSE(simd::feature_string().empty());
}

TEST(SimdDispatch, ParseLevel) {
  simd::Level level;
  EXPECT_TRUE(simd::parse_level("scalar", level));
  EXPECT_EQ(level, simd::Level::Scalar);
  EXPECT_TRUE(simd::parse_level("sse42", level));
  EXPECT_EQ(level, simd::Level::Sse42);
  EXPECT_TRUE(simd::parse_level("avx2", level));
  EXPECT_EQ(level, simd::Level::Avx2);
  EXPECT_TRUE(simd::parse_level("neon", level));
  EXPECT_EQ(level, simd::Level::Neon);
  EXPECT_FALSE(simd::parse_level("sse999", level));
  EXPECT_FALSE(simd::parse_level("", level));
}

TEST(SimdCrc32, MatchesScalarAtEveryTierAndLength) {
  TierGuard guard;
  for (const simd::Level tier : simd::available_levels()) {
    simd::set_level(tier);
    for (const std::size_t n : kLengths) {
      const auto data = random_bytes(n, 7 * n + 1);
      const std::uint32_t ref = net::Crc32::of_scalar(data);
      EXPECT_EQ(net::Crc32::of(data), ref)
          << "tier=" << simd::to_string(tier) << " n=" << n;
      EXPECT_EQ(net::Crc32::of_sliced(data), ref) << "n=" << n;
    }
  }
}

TEST(SimdCrc32, StreamingChunksMatchOneShot) {
  TierGuard guard;
  const auto data = random_bytes(100000, 99);
  const std::uint32_t ref = net::Crc32::of_scalar(data);
  for (const simd::Level tier : simd::available_levels()) {
    simd::set_level(tier);
    net::Crc32 crc;
    net::Rng rng(5);
    std::size_t i = 0;
    while (i < data.size()) {
      // Ragged chunks spanning the < 64-byte short path, odd tails, and
      // multi-KiB folds within one stream.
      const std::size_t chunk =
          std::min<std::size_t>(1 + rng.bounded(5000), data.size() - i);
      crc.update({data.data() + i, chunk});
      i += chunk;
    }
    EXPECT_EQ(crc.value(), ref) << "tier=" << simd::to_string(tier);
  }
}

TEST(SimdChecksum, MatchesScalarAtEveryTierAndLength) {
  TierGuard guard;
  for (const simd::Level tier : simd::available_levels()) {
    simd::set_level(tier);
    for (const std::size_t n : kLengths) {
      const auto data = random_bytes(n, 13 * n + 3);
      EXPECT_EQ(net::InternetChecksum::of(data),
                net::InternetChecksum::of_scalar(data))
          << "tier=" << simd::to_string(tier) << " n=" << n;
    }
  }
}

TEST(SimdChecksum, AllOnesBufferDoesNotOverflowLanes) {
  // Worst-case lane growth: every 16-bit word is 0xFFFF. The blockwise
  // reduction must keep the u32 lanes from wrapping on multi-MiB input.
  TierGuard guard;
  const std::vector<std::uint8_t> data(3 << 20, 0xFF);
  const std::uint16_t ref = net::InternetChecksum::of_scalar(data);
  for (const simd::Level tier : simd::available_levels()) {
    simd::set_level(tier);
    EXPECT_EQ(net::InternetChecksum::of(data), ref)
        << "tier=" << simd::to_string(tier);
  }
}

TEST(SimdClassify, TrafficMatchesScalarAtEveryTier) {
  TierGuard guard;
  for (const simd::Level tier : simd::available_levels()) {
    simd::set_level(tier);
    for (const std::size_t n : kLengths) {
      net::Rng rng(17 * n + 1);
      std::vector<std::uint8_t> proto(n), flags(n), icmp(n);
      for (std::size_t i = 0; i < n; ++i) {
        // Mix real protocol numbers with arbitrary ones.
        const std::uint8_t protos[] = {1, 6, 17, 41, 0,
                                       static_cast<std::uint8_t>(rng.next())};
        proto[i] = protos[rng.bounded(6)];
        flags[i] = static_cast<std::uint8_t>(rng.next());
        icmp[i] = static_cast<std::uint8_t>(rng.bounded(16));
      }
      std::vector<std::uint8_t> got(n, 0xEE), want(n, 0xEE);
      pkt::classify_traffic_batch(proto.data(), flags.data(), icmp.data(), n,
                                  got.data());
      pkt::classify_traffic_batch_scalar(proto.data(), flags.data(),
                                         icmp.data(), n, want.data());
      EXPECT_EQ(got, want) << "tier=" << simd::to_string(tier) << " n=" << n;
    }
  }
}

TEST(SimdClassify, ToolMatchesScalarAtEveryTier) {
  TierGuard guard;
  for (const simd::Level tier : simd::available_levels()) {
    simd::set_level(tier);
    for (const std::size_t n : kLengths) {
      net::Rng rng(23 * n + 5);
      std::vector<std::uint8_t> proto(n);
      std::vector<std::uint32_t> dst(n), seq(n);
      std::vector<std::uint16_t> port(n), id(n);
      for (std::size_t i = 0; i < n; ++i) {
        proto[i] = rng.chance(0.7) ? 6 : 17;
        dst[i] = static_cast<std::uint32_t>(rng.next());
        port[i] = static_cast<std::uint16_t>(rng.next());
        // Bias the fingerprint fields so every tool branch gets exercised.
        switch (rng.bounded(4)) {
          case 0:  // Mirai: seq == dst
            seq[i] = dst[i];
            id[i] = static_cast<std::uint16_t>(rng.next());
            break;
          case 1:  // ZMap: ip_id == 54321
            seq[i] = static_cast<std::uint32_t>(rng.next());
            id[i] = 54321;
            break;
          case 2:  // Masscan: ip_id == (dst ^ port ^ seq) & 0xFFFF
            seq[i] = static_cast<std::uint32_t>(rng.next());
            id[i] = static_cast<std::uint16_t>(
                (dst[i] ^ port[i] ^ seq[i]) & 0xFFFF);
            break;
          default:
            seq[i] = static_cast<std::uint32_t>(rng.next());
            id[i] = static_cast<std::uint16_t>(rng.next());
        }
      }
      std::vector<std::uint8_t> got(n, 0xEE), want(n, 0xEE);
      pkt::classify_tool_batch(proto.data(), dst.data(), port.data(),
                               id.data(), seq.data(), n, got.data());
      pkt::classify_tool_batch_scalar(proto.data(), dst.data(), port.data(),
                                      id.data(), seq.data(), n, want.data());
      EXPECT_EQ(got, want) << "tier=" << simd::to_string(tier) << " n=" << n;
    }
  }
}

TEST(SimdWords, PopcountMatchesScalarAtEveryTier) {
  TierGuard guard;
  for (const simd::Level tier : simd::available_levels()) {
    simd::set_level(tier);
    for (const std::size_t n : {0, 1, 2, 3, 4, 5, 7, 8, 9, 100, 1000}) {
      net::Rng rng(31 * n + 7);
      std::vector<std::uint64_t> a(n), b(n);
      for (std::size_t i = 0; i < n; ++i) {
        a[i] = rng.next();
        b[i] = rng.next();
      }
      EXPECT_EQ(simd::popcount_words(a), simd::popcount_words_scalar(a))
          << "tier=" << simd::to_string(tier) << " n=" << n;
      EXPECT_EQ(simd::and_popcount_words(a, b),
                simd::and_popcount_words_scalar(a, b))
          << "tier=" << simd::to_string(tier) << " n=" << n;
    }
  }
}

TEST(SimdWords, MaskedEqAccumulatesIdenticallyAtEveryTier) {
  TierGuard guard;
  for (const simd::Level tier : simd::available_levels()) {
    simd::set_level(tier);
    for (const std::size_t n : kLengths) {
      net::Rng rng(41 * n + 11);
      std::vector<std::uint32_t> v(n);
      for (auto& x : v) {
        // Cluster values so the compares actually hit.
        x = 0xC0A80000u | static_cast<std::uint32_t>(rng.bounded(512));
      }
      std::vector<std::uint8_t> got(n, 0), want(n, 0);
      // Two accumulating sweeps with different masks: results must OR.
      for (const std::uint32_t mask : {0xFFFFFF00u, 0xFFFFFFC0u}) {
        const std::uint32_t expect = 0xC0A80000u & mask;
        simd::accumulate_masked_eq_u32(v.data(), n, mask, expect, got.data());
        simd::accumulate_masked_eq_u32_scalar(v.data(), n, mask, expect,
                                              want.data());
      }
      EXPECT_EQ(got, want) << "tier=" << simd::to_string(tier) << " n=" << n;
    }
  }
}

TEST(SimdPrefix, ContainsBatchMatchesScalarAtEveryTier) {
  TierGuard guard;
  const auto make_set = [](std::initializer_list<const char*> cidrs) {
    std::vector<net::Prefix> prefixes;
    for (const char* c : cidrs) prefixes.push_back(*net::Prefix::parse(c));
    return net::PrefixSet(prefixes);
  };
  // Small set (vector sweep) and a >8-prefix set (binary-search fallback).
  const net::PrefixSet small = make_set({"198.18.0.0/22", "10.9.0.0/16"});
  const net::PrefixSet large = make_set(
      {"1.0.0.0/24", "2.0.0.0/24", "3.0.0.0/24", "4.0.0.0/24", "5.0.0.0/24",
       "6.0.0.0/24", "7.0.0.0/24", "8.0.0.0/24", "9.0.0.0/24", "11.0.0.0/24"});
  for (const simd::Level tier : simd::available_levels()) {
    simd::set_level(tier);
    for (const net::PrefixSet* set : {&small, &large}) {
      for (const std::size_t n : kLengths) {
        net::Rng rng(53 * n + 13);
        std::vector<std::uint32_t> addrs(n);
        for (auto& a : addrs) {
          // Half the draws land near the member prefixes.
          a = rng.chance(0.5)
                  ? (0xC6120000u | static_cast<std::uint32_t>(rng.bounded(4096)))
                  : static_cast<std::uint32_t>(rng.next());
        }
        std::vector<std::uint8_t> got(n, 0xEE), want(n, 0xEE);
        set->contains_batch(addrs.data(), n, got.data());
        set->contains_batch_scalar(addrs.data(), n, want.data());
        EXPECT_EQ(got, want) << "tier=" << simd::to_string(tier) << " n=" << n;
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(got[i] != 0, set->contains(net::Ipv4Address(addrs[i])));
        }
      }
    }
  }
}

TEST(SimdCoverage, CountAndOverlapMatchNaive) {
  TierGuard guard;
  for (const simd::Level tier : simd::available_levels()) {
    simd::set_level(tier);
    for (const std::uint64_t universe : {1u, 63u, 64u, 65u, 1000u, 100003u}) {
      stats::CoverageBitset a(universe), b(universe);
      net::Rng rng(61 + universe);
      std::uint64_t naive_a = 0, naive_overlap = 0;
      std::vector<bool> in_a(universe, false), in_b(universe, false);
      for (std::uint64_t i = 0; i < universe / 2 + 1; ++i) {
        const std::uint64_t x = rng.bounded(universe);
        if (!in_a[x]) ++naive_a;
        in_a[x] = true;
        a.mark(x);
        const std::uint64_t y = rng.bounded(universe);
        in_b[y] = true;
        b.mark(y);
      }
      for (std::uint64_t i = 0; i < universe; ++i) {
        naive_overlap += in_a[i] && in_b[i];
      }
      EXPECT_EQ(a.count(), naive_a) << "universe=" << universe;
      EXPECT_EQ(a.overlap(b), naive_overlap) << "universe=" << universe;
    }
  }
}

TEST(SimdFlatMap, ModelCheckWithTierTogglingAndErase) {
  // The tag array is maintained on every mutation regardless of tier, so
  // flipping tiers mid-history must never change lookup results. Model
  // the FlatMap against std::unordered_map through a random op mix.
  TierGuard guard;
  const auto tiers = simd::available_levels();
  net::FlatMap<std::uint64_t, std::uint64_t> map;
  std::unordered_map<std::uint64_t, std::uint64_t> model;
  net::Rng rng(71);
  for (int op = 0; op < 200000; ++op) {
    if (op % 1024 == 0) simd::set_level(tiers[rng.bounded(tiers.size())]);
    // Small key space so inserts, hits, and erases all happen often and
    // probe chains overlap (exercising backward-shift deletion).
    const std::uint64_t key = rng.bounded(4096) * 0x9E3779B97F4A7C15ull;
    switch (rng.bounded(3)) {
      case 0: {
        const auto [slot, inserted] = map.try_emplace(key, op);
        EXPECT_EQ(inserted, !model.count(key));
        if (inserted) model.emplace(key, op);
        EXPECT_EQ(*slot, model.at(key));
        break;
      }
      case 1: {
        const std::uint64_t* found = map.find(key);
        const auto it = model.find(key);
        ASSERT_EQ(found != nullptr, it != model.end());
        if (found) EXPECT_EQ(*found, it->second);
        break;
      }
      default:
        EXPECT_EQ(map.erase(key), model.erase(key) > 0);
    }
    ASSERT_EQ(map.size(), model.size());
  }
  std::size_t visited = 0;
  map.for_each([&](std::uint64_t key, std::uint64_t value) {
    ++visited;
    EXPECT_EQ(model.at(key), value);
  });
  EXPECT_EQ(visited, model.size());
}

TEST(SimdFlatMap, GroupProbeAgreesWithScalarProbePerLookup) {
  // Same table, every key looked up under both probe strategies.
  TierGuard guard;
  if (simd::detected_level() == simd::Level::Scalar) GTEST_SKIP();
  net::FlatMap<std::uint64_t, std::uint64_t> map;
  net::Rng rng(73);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t key = rng.next();
    keys.push_back(key);
    map.try_emplace(key, key ^ 0xABCD);
    if (i % 3 == 0) map.erase(keys[rng.bounded(keys.size())]);
  }
  for (const std::uint64_t key : keys) {
    simd::set_level(simd::Level::Scalar);
    const std::uint64_t* scalar_hit = map.find(key);
    simd::set_level(simd::detected_level());
    const std::uint64_t* simd_hit = map.find(key);
    ASSERT_EQ(scalar_hit, simd_hit);
    const std::uint64_t probe_miss = key ^ 1;
    simd::set_level(simd::Level::Scalar);
    const std::uint64_t* scalar_miss = map.find(probe_miss);
    simd::set_level(simd::detected_level());
    ASSERT_EQ(scalar_miss, map.find(probe_miss));
  }
}

TEST(SimdAlignment, BatchColumnsAre64ByteAligned) {
  static_assert(net::kColumnAlignment >= 64);
  pkt::PacketBatch batch(1024);
  pkt::ProbeBuilder builder(net::Ipv4Address(0x0A000001u), pkt::ScanTool::ZMap,
                            net::Rng(1));
  for (int i = 0; i < 100; ++i) {
    batch.push_back(builder.tcp_syn(net::SimTime::epoch(),
                                    net::Ipv4Address(0xC6120000u + i), 443));
  }
  const auto aligned = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) % net::kColumnAlignment == 0;
  };
  EXPECT_TRUE(aligned(batch.dst_col().data()));
  EXPECT_TRUE(aligned(batch.proto_col().data()));
  EXPECT_TRUE(aligned(batch.tcp_flags_col().data()));
  EXPECT_TRUE(aligned(batch.icmp_type_col().data()));
  EXPECT_TRUE(aligned(batch.dst_port_col().data()));
  EXPECT_TRUE(aligned(batch.ip_id_col().data()));
  EXPECT_TRUE(aligned(batch.tcp_seq_col().data()));
  net::aligned_vector<std::uint32_t> v(3);
  EXPECT_TRUE(aligned(v.data()));
}

/// Miniature §11.4/§14 gate: a mixed-protocol capture through the batch
/// engine at every tier must equal the scalar-tier per-packet reference —
/// same events AND same checkpoint bytes.
TEST(SimdAggregator, CaptureInvariantAcrossTiers) {
  TierGuard guard;
  const net::PrefixSet dark({*net::Prefix::parse("198.18.0.0/24")});
  telescope::AggregatorConfig config;
  config.timeout = net::Duration::minutes(2);

  std::vector<pkt::Packet> packets;
  net::Rng rng(83);
  std::vector<pkt::ProbeBuilder> builders;
  for (std::uint32_t s = 0; s < 24; ++s) {
    builders.emplace_back(net::Ipv4Address(0x0B000000u + s),
                          static_cast<pkt::ScanTool>(s % 4), net::Rng(s));
  }
  for (int i = 0; i < 6000; ++i) {
    auto& b = builders[rng.bounded(builders.size())];
    const net::SimTime t = net::SimTime::at(net::Duration::seconds(i / 4));
    // Mostly dark-space targets, some outside (ignored-out-of-space path).
    const net::Ipv4Address dst(rng.chance(0.9)
                                   ? 0xC6120000u + (std::uint32_t)rng.bounded(256)
                                   : (std::uint32_t)rng.next());
    switch (rng.bounded(3)) {
      case 0:
        packets.push_back(b.tcp_syn(t, dst, 23));
        break;
      case 1:
        packets.push_back(b.udp_probe(t, dst, 5060, 8));
        break;
      default:
        packets.push_back(b.icmp_echo(t, dst));
    }
  }

  struct Result {
    std::vector<telescope::DarknetEvent> events;
    std::uint32_t crc = 0;
  };
  const auto run = [&](auto&& feed) {
    telescope::EventCollector collector;
    telescope::EventAggregator agg(dark, config, collector.sink());
    feed(agg);
    telescope::CheckpointWriter writer;
    agg.checkpoint(writer);
    std::vector<std::uint8_t> snapshot;
    writer.finish(snapshot);
    agg.finish();
    return Result{collector.take(), net::Crc32::of(snapshot)};
  };

  simd::set_level(simd::Level::Scalar);
  const Result ref = run([&](telescope::EventAggregator& agg) {
    for (const pkt::Packet& p : packets) agg.observe(p);
  });
  ASSERT_FALSE(ref.events.empty());

  for (const simd::Level tier : simd::available_levels()) {
    simd::set_level(tier);
    for (const std::size_t batch_size : {1, 17, 64, 333}) {
      const Result got = run([&](telescope::EventAggregator& agg) {
        pkt::PacketBatch b(batch_size);
        std::size_t i = 0;
        while (i < packets.size()) {
          b.clear();
          for (std::size_t j = 0; j < batch_size && i < packets.size();
               ++j, ++i) {
            b.push_back(packets[i]);
          }
          agg.observe_batch(b);
        }
      });
      EXPECT_EQ(got.events, ref.events)
          << "tier=" << simd::to_string(tier) << " batch=" << batch_size;
      EXPECT_EQ(got.crc, ref.crc)
          << "tier=" << simd::to_string(tier) << " batch=" << batch_size;
    }
  }
}

}  // namespace
