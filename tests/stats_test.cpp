#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "orion/stats/bottomk.hpp"
#include "orion/stats/coverage.hpp"
#include "orion/stats/ecdf.hpp"
#include "orion/stats/cardinality.hpp"
#include "orion/stats/timeseries.hpp"
#include "orion/stats/topk.hpp"
#include "orion/stats/zipf.hpp"

namespace orion::stats {
namespace {

// --------------------------------------------------------------------- Ecdf

TEST(Ecdf, CdfValues) {
  Ecdf ecdf({1, 2, 2, 3, 10});
  EXPECT_DOUBLE_EQ(ecdf.at(0), 0.0);
  EXPECT_DOUBLE_EQ(ecdf.at(1), 0.2);
  EXPECT_DOUBLE_EQ(ecdf.at(2), 0.6);
  EXPECT_DOUBLE_EQ(ecdf.at(9), 0.8);
  EXPECT_DOUBLE_EQ(ecdf.at(10), 1.0);
}

TEST(Ecdf, Quantiles) {
  std::vector<std::uint64_t> samples;
  for (std::uint64_t i = 1; i <= 100; ++i) samples.push_back(i);
  Ecdf ecdf(std::move(samples));
  EXPECT_EQ(ecdf.quantile(0.5), 50u);
  EXPECT_EQ(ecdf.quantile(1.0), 100u);
  EXPECT_EQ(ecdf.quantile(0.0), 1u);
  EXPECT_EQ(ecdf.quantile(0.999), 100u);
  EXPECT_EQ(ecdf.top_alpha_threshold(0.01), 99u);
}

TEST(Ecdf, TopAlphaThresholdIsolatesTail) {
  // 10,000 small samples and 10 huge ones: with alpha = 1e-3 the threshold
  // lands at the bulk's boundary value, so exactly the huge tail is
  // STRICTLY above it (the Definition-2 qualification test).
  Ecdf ecdf;
  for (int i = 0; i < 10000; ++i) ecdf.add(5);
  for (int i = 0; i < 10; ++i) ecdf.add(1000000);
  const std::uint64_t threshold = ecdf.top_alpha_threshold(1e-3);
  EXPECT_EQ(threshold, 5u);
  std::size_t above = 0;
  for (int i = 0; i < 10000; ++i) above += 5u > threshold;
  above += 10;  // the huge samples all exceed it
  EXPECT_EQ(above, 10u);
}

TEST(Ecdf, IncrementalAddMatchesBulk) {
  Ecdf bulk({4, 8, 15, 16, 23, 42});
  Ecdf incremental;
  for (const std::uint64_t v : {42, 4, 16, 8, 23, 15}) incremental.add(v);
  for (const double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    EXPECT_EQ(bulk.quantile(q), incremental.quantile(q));
  }
  EXPECT_DOUBLE_EQ(bulk.mean(), incremental.mean());
}

TEST(Ecdf, EmptyAndBadInputsThrow) {
  Ecdf ecdf;
  EXPECT_THROW(ecdf.quantile(0.5), std::logic_error);
  EXPECT_THROW(ecdf.mean(), std::logic_error);
  ecdf.add(1);
  EXPECT_THROW(ecdf.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW(ecdf.quantile(1.1), std::invalid_argument);
  EXPECT_THROW(ecdf.quantile(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

// The day close's selection form of the threshold is the sorted ECDF's
// value, for the sample shapes and sizes a window produces (up to the
// ~36k-value cumulative sample) and at the detectors' alphas.
TEST(Ecdf, SelectionThresholdMatchesTheSortedEcdf) {
  std::mt19937_64 rng(1801);
  for (const std::size_t n : {1, 2, 1000, 36000}) {
    std::vector<std::uint64_t> equal(n, 7), few(n), heavy(n);
    for (std::size_t i = 0; i < n; ++i) {
      few[i] = rng() % 3;
      heavy[i] = 1 + (rng() >> (rng() % 64));  // log-uniform magnitudes
    }
    for (const auto* samples : {&equal, &few, &heavy}) {
      for (const double alpha : {1e-4, 2e-4, 0.028, 0.5}) {
        EXPECT_EQ(top_alpha_threshold(*samples, alpha),
                  Ecdf(*samples).top_alpha_threshold(alpha))
            << "n " << n << " alpha " << alpha;
      }
    }
  }
  // ceil(q * n) = n: the maximum, not one past it.
  EXPECT_EQ(quantile_index(1.0 - 1e-4, 1000), 999u);
  EXPECT_EQ(top_alpha_threshold({3, 9, 1}, 1e-4), 9u);
  EXPECT_EQ(quantile_index(0.0, 5), 0u);
  EXPECT_THROW(top_alpha_threshold({}, 0.5), std::logic_error);
  EXPECT_THROW(top_alpha_threshold({1, 2}, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

class EcdfQuantileProperty : public testing::TestWithParam<double> {};

TEST_P(EcdfQuantileProperty, AtLeastQuantileMassIsBelowOrEqual) {
  const double q = GetParam();
  Ecdf ecdf;
  net::Rng rng(17);
  for (int i = 0; i < 5000; ++i) ecdf.add(rng.bounded(100000));
  const std::uint64_t value = ecdf.quantile(q);
  EXPECT_GE(ecdf.at(value), q);
  if (value > 0) {
    EXPECT_LT(ecdf.at(value - 1), q);
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, EcdfQuantileProperty,
                         testing::Values(0.1, 0.5, 0.9, 0.99, 0.999, 0.9999));

// ------------------------------------------------------------------ Jaccard

TEST(Jaccard, KnownValues) {
  const std::unordered_set<int> a = {1, 2, 3, 4};
  const std::unordered_set<int> b = {3, 4, 5, 6};
  EXPECT_DOUBLE_EQ(jaccard(a, b), 2.0 / 6.0);
  EXPECT_DOUBLE_EQ(jaccard(a, a), 1.0);
  const std::unordered_set<int> empty;
  EXPECT_DOUBLE_EQ(jaccard(a, empty), 0.0);
  EXPECT_DOUBLE_EQ(jaccard(empty, empty), 1.0);
}

// ----------------------------------------------------- CardinalityEstimator

constexpr std::uint64_t kSlash17 = std::uint64_t{1} << 15;  // paper scenario
// ORION-sized multi-prefix dark space: 7 whole chunks and one clipped to
// 16,384 keys.
constexpr std::uint64_t kOrion = 7 * 65536 + 16384;
constexpr std::uint64_t kSlash8 = std::uint64_t{1} << 24;

TEST(CardinalityEstimator, ExactBelowLimit) {
  CardinalityEstimator est(kSlash17);
  for (std::uint64_t i = 0; i < 100; ++i) {
    est.add(i);
    est.add(i);  // duplicates
  }
  EXPECT_EQ(est.size(), 100u);
}

// No limit: every offset of the dark space counts, past the 16,384 keys
// where the set once turned into a sketch.
TEST(CardinalityEstimator, CountsEveryOffsetOfTheDarkSpace) {
  for (const std::uint64_t universe : {kSlash17, kOrion}) {
    CardinalityEstimator est(universe);
    for (std::uint64_t i = 0; i < universe; ++i) est.add(universe - 1 - i);
    EXPECT_EQ(est.size(), universe);
    const std::vector<std::uint64_t> words = est.words();
    EXPECT_EQ(words.size(), (universe + 63) / 64);
    EXPECT_TRUE(std::all_of(words.begin(), words.end(),
                            [](std::uint64_t w) { return w == ~std::uint64_t{0}; }));
  }
}

TEST(CardinalityEstimator, KeysOutsideTheUniverseThrow) {
  CardinalityEstimator est(64);
  EXPECT_THROW(est.add(64), std::out_of_range);
  for (std::uint64_t k = 0; k < 64; ++k) est.add(k);
  EXPECT_EQ(est.size(), 64u);
  EXPECT_THROW(est.add(64), std::out_of_range);
  EXPECT_EQ(est.size(), 64u);
}

// keys() is the canonical order AGG2 writes a sparse set in: it must
// equal std::sort of the same set for every dark-space size, from one
// chunk to 256, with key 0 and the last offset included.
TEST(CardinalityEstimator, ExactKeysEqualStdSortOfTheSameSet) {
  std::mt19937_64 rng(59);
  for (const std::uint64_t universe : {std::uint64_t{2048}, kSlash17, kOrion,
                                       std::uint64_t{1} << 22, kSlash8}) {
    for (const std::size_t size : {std::size_t{0}, std::size_t{1}, std::size_t{127},
                                   std::size_t{128}, std::size_t{129},
                                   std::size_t{4096}, std::size_t{16384}}) {
      if (size > universe) continue;  // 2048 offsets hold only 2048 keys
      std::set<std::uint64_t> keys;
      if (size > 0) keys.insert(0);
      if (size > 1) keys.insert(universe - 1);
      while (keys.size() < size) keys.insert(rng() % universe);
      std::vector<std::uint64_t> feed(keys.begin(), keys.end());
      std::shuffle(feed.begin(), feed.end(), rng);
      CardinalityEstimator est(universe);
      for (const std::uint64_t k : feed) est.add(k);
      std::sort(feed.begin(), feed.end());
      EXPECT_EQ(est.keys(), feed) << universe << " offsets, size " << size;
    }
  }
}

/// Keys a dark space of `universe` offsets produces, by pattern: ZMap-like
/// uniform random, a sequential sweep, one key per chunk, and each chunk
/// packed to its array/bitmap switch point (the most keys its array holds:
/// half its bitmap's bytes, or at most kEagerArrayKeys where the whole
/// universe as bitmaps fits kEagerBitmapBytes) or one key past it. Keys 0
/// and universe - 1 are always included, and the set stops growing at
/// `cap` keys.
std::set<std::uint64_t> pattern_keys(std::uint64_t universe, int pattern,
                                     std::size_t cap, std::mt19937_64& rng) {
  std::set<std::uint64_t> keys{0, universe - 1};
  const auto add = [&](std::uint64_t k) {
    if (keys.size() < cap) keys.insert(k);
  };
  const std::uint64_t chunks = (universe + 65535) / 65536;
  const auto chunk_bits = [universe](std::uint64_t c) {
    return std::min<std::uint64_t>(65536, universe - c * 65536);
  };
  switch (pattern) {
    case 0:
      while (keys.size() < std::min<std::uint64_t>(cap, universe)) add(rng() % universe);
      break;
    case 1:
      for (std::uint64_t k = 0; k < universe && keys.size() < cap; ++k) add(k);
      break;
    case 2:
      for (std::uint64_t c = 0; c < chunks; ++c) add(c * 65536 + rng() % chunk_bits(c));
      break;
    default: {
      for (std::uint64_t c = 0; c < chunks && keys.size() < cap; ++c) {
        const std::uint64_t bits = chunk_bits(c);
        // A bitmap of `bits` takes (bits + 63) / 64 words; the array holds
        // 2-byte keys until it would outgrow that.
        std::uint64_t switch_point = (bits + 63) / 64 * 4;
        if (universe / 8 <= CardinalityEstimator::kEagerBitmapBytes) {
          switch_point = std::min<std::uint64_t>(switch_point,
                                                 CardinalityEstimator::kEagerArrayKeys);
        }
        switch_point += pattern == 4 ? 1 : 0;
        std::set<std::uint64_t> chunk_keys;
        for (const std::uint64_t k : keys) {
          if (k / 65536 == c) chunk_keys.insert(k);
        }
        while (chunk_keys.size() < std::min(switch_point, bits)) {
          chunk_keys.insert(c * 65536 + rng() % bits);
        }
        for (const std::uint64_t k : chunk_keys) add(k);
      }
      break;
    }
  }
  return keys;
}

/// The bitmap a dense set is checkpointed as, built bit by bit from the
/// keys: (universe + 63) / 64 words.
std::vector<std::uint64_t> reference_words(const std::set<std::uint64_t>& keys,
                                           std::uint64_t universe) {
  std::vector<std::uint64_t> words((universe + 63) / 64, 0);
  for (const std::uint64_t k : keys) words[k / 64] |= std::uint64_t{1} << (k % 64);
  return words;
}

// The set against std::set over every dark-space size and key pattern:
// the count, ascending keys and the universe bitmap, and a set rebuilt
// from each of its two checkpoint forms.
TEST(CardinalityEstimator, MatchesStdSetAcrossDarkSpacesAndPatterns) {
  std::mt19937_64 rng(71);
  for (const std::uint64_t universe : {std::uint64_t{1}, std::uint64_t{64}, kSlash17,
                                       kOrion, kSlash8}) {
    for (int pattern = 0; pattern < 5; ++pattern) {
      const std::set<std::uint64_t> keys = pattern_keys(universe, pattern, 40000, rng);
      const std::vector<std::uint64_t> sorted(keys.begin(), keys.end());
      std::vector<std::uint64_t> feed = sorted;
      std::shuffle(feed.begin(), feed.end(), rng);
      const std::string where =
          std::to_string(universe) + " offsets, pattern " + std::to_string(pattern);

      CardinalityEstimator est(universe);
      for (const std::uint64_t k : feed) {
        est.add(k);
        est.add(k);  // a repeat never counts
      }
      EXPECT_EQ(est.size(), keys.size()) << where;
      EXPECT_EQ(est.keys(), sorted) << where;
      const std::vector<std::uint64_t> words = est.words();
      EXPECT_EQ(words, reference_words(keys, universe)) << where;

      CardinalityEstimator from_keys(universe);
      for (const std::uint64_t k : est.keys()) from_keys.add(k);
      EXPECT_EQ(from_keys.words(), words) << where;
      CardinalityEstimator from_words(universe);
      for (std::size_t w = 0; w < words.size(); ++w) {
        for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
          from_words.add(w * 64 + static_cast<std::uint64_t>(std::countr_zero(bits)));
        }
      }
      EXPECT_EQ(from_words.keys(), sorted) << where;
      EXPECT_EQ(from_words.size(), keys.size()) << where;
    }
  }
}

// The stated memory bound. Up to 2^20 offsets a set never holds more
// than the universe as bitmaps plus 64-key arrays and the directory:
// under 136 KiB, and on the paper scenario's /17, where the sequential
// pattern sweeps every offset, a 64-key array or one 4 KiB bitmap plus
// one 64-byte directory entry. Above 2^20, Roaring's rule: 16,384 keys
// over a /8 stay under 128 KiB, half of the 256 KiB the open-addressing
// table the set replaced reached.
TEST(CardinalityEstimator, ExactPhaseMemoryBound) {
  std::mt19937_64 rng(73);
  for (const std::uint64_t universe : {std::uint64_t{1}, std::uint64_t{64}, kSlash17,
                                       kOrion, kSlash8}) {
    const std::size_t bound = universe == kSlash17 ? 4096 + 64
                              : universe == kSlash8 ? 128 * 1024
                                                    : 136 * 1024;
    const std::size_t cap = universe == kSlash8 ? 16384 : 40000;
    for (int pattern = 0; pattern < 5; ++pattern) {
      std::vector<std::uint64_t> feed;
      for (const std::uint64_t k : pattern_keys(universe, pattern, cap, rng)) {
        feed.push_back(k);
      }
      std::shuffle(feed.begin(), feed.end(), rng);
      CardinalityEstimator est(universe);
      std::size_t peak = 0;
      for (const std::uint64_t k : feed) {
        est.add(k);
        peak = std::max(peak, est.memory_bytes());
      }
      EXPECT_EQ(est.size(), feed.size());
      EXPECT_LE(peak, bound) << universe << " offsets, pattern " << pattern;
    }
  }
}

// ---------------------------------------------------------- CoverageBitset

TEST(CoverageBitset, CountsDistinctSets) {
  CoverageBitset cov(1000);
  EXPECT_TRUE(cov.set(0));
  EXPECT_FALSE(cov.set(0));
  EXPECT_TRUE(cov.set(999));
  EXPECT_EQ(cov.count(), 2u);
  EXPECT_DOUBLE_EQ(cov.fraction(), 0.002);
  EXPECT_TRUE(cov.test(999));
  EXPECT_FALSE(cov.test(5));
  EXPECT_THROW(cov.set(1000), std::out_of_range);
  cov.clear();
  EXPECT_EQ(cov.count(), 0u);
  EXPECT_FALSE(cov.test(0));
}

// --------------------------------------------------------------------- TopK

TEST(TopK, RanksByWeightThenKey) {
  TopK<int> topk;
  topk.add(7, 10);
  topk.add(3, 30);
  topk.add(5, 10);
  topk.add(3, 5);
  const auto top = topk.top(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], (std::pair<int, std::uint64_t>{3, 35}));
  EXPECT_EQ(top[1], (std::pair<int, std::uint64_t>{5, 10}));  // tie -> smaller key
  EXPECT_EQ(topk.total(), 55u);
  EXPECT_EQ(topk.distinct(), 3u);
  EXPECT_EQ(topk.count(7), 10u);
  EXPECT_EQ(topk.count(99), 0u);
}

TEST(TopK, BoundedSpillsNewKeysOnceFull) {
  TopK<int> topk(2);
  EXPECT_EQ(topk.bound(), 2u);
  topk.add(1, 10);
  topk.add(2, 20);
  topk.add(3, 5);   // full: new key -> spill
  topk.add(1, 7);   // tracked keys stay exact
  topk.add(3, 5);   // spilled key stays spilled
  EXPECT_EQ(topk.count(1), 17u);
  EXPECT_EQ(topk.count(2), 20u);
  EXPECT_EQ(topk.count(3), 0u);
  EXPECT_EQ(topk.distinct(), 2u);
  EXPECT_EQ(topk.spilled_weight(), 10u);
  EXPECT_EQ(topk.spilled_adds(), 2u);
  EXPECT_EQ(topk.total(), 47u);  // weight conserved, spill included
}

// Property pin for the bounded counter's head guarantee: against an exact
// reference over random heavy-tailed streams, every tracked count is
// exact, total weight is conserved, and any key whose true count exceeds
// spilled_weight() is provably tracked. (kPortMixBound in the flow join
// relies on exactly this contract.)
TEST(TopK, BoundedHeadMatchesExactCounterProperty) {
  std::mt19937_64 rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t bound = 1 + static_cast<std::size_t>(rng() % 64);
    TopK<std::uint16_t> bounded(bound);
    TopK<std::uint16_t> exact;
    std::geometric_distribution<int> keys(0.02);
    for (int i = 0; i < 4000; ++i) {
      const auto key = static_cast<std::uint16_t>(keys(rng));
      const std::uint64_t weight = 1 + rng() % 9;
      bounded.add(key, weight);
      exact.add(key, weight);
    }
    EXPECT_EQ(bounded.total(), exact.total());
    EXPECT_LE(bounded.distinct(), bound);
    std::uint64_t tracked_weight = 0;
    for (const auto& [key, count] : bounded.counts()) {
      EXPECT_EQ(count, exact.count(key));  // tracked == exact, always
      tracked_weight += count;
    }
    EXPECT_EQ(tracked_weight + bounded.spilled_weight(), exact.total());
    for (const auto& [key, count] : exact.counts()) {
      if (count > bounded.spilled_weight()) {
        EXPECT_EQ(bounded.count(key), count)
            << "heavy key " << key << " missing from the bounded head";
      }
    }
  }
}

// --------------------------------------------------------------------- Zipf

TEST(ZipfSampler, PmfMatchesEmpiricalFrequency) {
  ZipfSampler zipf(50, 1.1);
  net::Rng rng(23);
  std::vector<int> counts(50, 0);
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) ++counts[zipf.sample(rng)];
  for (const std::size_t rank : {0u, 1u, 5u, 20u}) {
    const double expected = zipf.pmf(rank) * trials;
    EXPECT_NEAR(counts[rank], expected, 5 * std::sqrt(expected) + 5);
  }
}

TEST(ZipfSampler, RejectsEmptySupport) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
}

TEST(Zipf, CumulativeContributionCurve) {
  const auto curve = cumulative_contribution_curve({50, 30, 15, 5});
  ASSERT_EQ(curve.size(), 4u);
  EXPECT_DOUBLE_EQ(curve[0], 0.50);
  EXPECT_DOUBLE_EQ(curve[1], 0.80);
  EXPECT_DOUBLE_EQ(curve[3], 1.0);
  // Monotone regardless of input order.
  const auto shuffled = cumulative_contribution_curve({5, 50, 15, 30});
  EXPECT_EQ(curve, shuffled);
}

TEST(Zipf, FitRecoversExponent) {
  // Perfect Zipf weights with s = 1.5.
  std::vector<std::uint64_t> weights;
  for (int rank = 1; rank <= 200; ++rank) {
    weights.push_back(
        static_cast<std::uint64_t>(1e9 / std::pow(rank, 1.5)));
  }
  EXPECT_NEAR(fit_zipf_exponent(weights), 1.5, 0.05);
  EXPECT_DOUBLE_EQ(fit_zipf_exponent({42}), 0.0);
  EXPECT_DOUBLE_EQ(fit_zipf_exponent({}), 0.0);
}

// ------------------------------------------------------------- BinnedSeries

TEST(BinnedSeries, BinsAndDrops) {
  BinnedSeries series(net::SimTime::at(net::Duration::seconds(10)),
                      net::Duration::seconds(1), 5);
  series.add(net::SimTime::at(net::Duration::seconds(10)));          // bin 0
  series.add(net::SimTime::at(net::Duration::millis(10999)));        // bin 0
  series.add(net::SimTime::at(net::Duration::seconds(14)), 3);       // bin 4
  series.add(net::SimTime::at(net::Duration::seconds(15)));          // dropped
  series.add(net::SimTime::at(net::Duration::seconds(9)));           // dropped
  EXPECT_EQ(series.bin(0), 2u);
  EXPECT_EQ(series.bin(4), 3u);
  EXPECT_EQ(series.total(), 5u);
  EXPECT_EQ(series.dropped(), 2u);
  EXPECT_EQ(series.cumulative().back(), 5u);
  EXPECT_DOUBLE_EQ(series.rates()[4], 3.0);
}

TEST(BinnedSeries, RatioSeries) {
  BinnedSeries num(net::SimTime::epoch(), net::Duration::seconds(1), 3);
  BinnedSeries den(net::SimTime::epoch(), net::Duration::seconds(1), 3);
  num.add(net::SimTime::at(net::Duration::millis(500)), 1);
  den.add(net::SimTime::at(net::Duration::millis(500)), 4);
  den.add(net::SimTime::at(net::Duration::millis(1500)), 2);
  const auto ratio = ratio_series(num, den);
  EXPECT_DOUBLE_EQ(ratio[0], 0.25);
  EXPECT_DOUBLE_EQ(ratio[1], 0.0);
  EXPECT_DOUBLE_EQ(ratio[2], 0.0);  // zero denominator -> 0

  const auto cumulative = cumulative_ratio_series(num, den);
  EXPECT_DOUBLE_EQ(cumulative[0], 0.25);
  EXPECT_DOUBLE_EQ(cumulative[1], 1.0 / 6.0);
  EXPECT_DOUBLE_EQ(cumulative[2], 1.0 / 6.0);
}

TEST(BinnedSeries, MismatchedRatioThrows) {
  BinnedSeries a(net::SimTime::epoch(), net::Duration::seconds(1), 3);
  BinnedSeries b(net::SimTime::epoch(), net::Duration::seconds(1), 4);
  EXPECT_THROW(ratio_series(a, b), std::invalid_argument);
}

TEST(Sparkline, RendersPeaks) {
  const std::string line = sparkline({0, 0, 1.0, 0, 0}, 5);
  ASSERT_EQ(line.size(), 5u);
  EXPECT_EQ(line[2], '#');
  EXPECT_EQ(line[0], ' ');
  EXPECT_EQ(sparkline({}, 10), "");
}

}  // namespace
}  // namespace orion::stats

// NOTE: appended suites — KS distance and bottom-k sampling.
namespace orion::stats {
namespace {

TEST(KsDistance, IdenticalAndDisjointDistributions) {
  Ecdf a({1, 2, 3, 4, 5});
  Ecdf b({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(ks_distance(a, b), 0.0);
  Ecdf c({100, 200, 300});
  EXPECT_DOUBLE_EQ(ks_distance(a, c), 1.0);
  Ecdf empty;
  EXPECT_THROW(ks_distance(a, empty), std::logic_error);
}

TEST(KsDistance, KnownValue) {
  // F_a steps at 1,2; F_b steps at 2,3. At x=1: |0.5 - 0| = 0.5.
  Ecdf a({1, 2});
  Ecdf b({2, 3});
  EXPECT_DOUBLE_EQ(ks_distance(a, b), 0.5);
  EXPECT_DOUBLE_EQ(ks_distance(b, a), 0.5);  // symmetric
}

TEST(KsDistance, DetectsShift) {
  net::Rng rng(9);
  Ecdf a, b;
  for (int i = 0; i < 5000; ++i) {
    a.add(rng.bounded(1000));
    b.add(rng.bounded(1000) + 250);
  }
  EXPECT_GT(ks_distance(a, b), 0.2);
}

// ----------------------------------------------------------- BottomKSampler

// The property the parallel pipeline's determinism rests on: a bottom-k
// sample is a pure function of the SET of identities seen — insertion
// order cannot matter.
TEST(BottomKSampler, OrderIndependent) {
  BottomKSampler forward(50, 7);
  BottomKSampler backward(50, 7);
  for (std::uint64_t i = 0; i < 1000; ++i) forward.add(i, 0, i * 3);
  for (std::uint64_t i = 1000; i-- > 0;) backward.add(i, 0, i * 3);
  EXPECT_EQ(forward, backward);
  // values() order reflects heap layout (callers sort — Ecdf does); the
  // sampled multiset itself must be order-independent.
  auto vf = forward.values(), vb = backward.values();
  std::sort(vf.begin(), vf.end());
  std::sort(vb.begin(), vb.end());
  EXPECT_EQ(vf, vb);
  EXPECT_EQ(forward.seen(), 1000u);
  EXPECT_EQ(forward.sample_size(), 50u);
}

// Exact mergeability: bottom-k of a union equals the merge of per-part
// bottom-k samples, for any partition.
TEST(BottomKSampler, MergeEqualsWholeStreamSample) {
  BottomKSampler whole(64, 42);
  BottomKSampler parts[3] = {BottomKSampler(64, 42), BottomKSampler(64, 42),
                             BottomKSampler(64, 42)};
  for (std::uint64_t i = 0; i < 5000; ++i) {
    whole.add(i, i ^ 17, i % 97);
    parts[i % 3].add(i, i ^ 17, i % 97);
  }
  BottomKSampler merged(64, 42);
  for (const BottomKSampler& part : parts) merged.merge(part);
  EXPECT_EQ(merged, whole);
  EXPECT_EQ(merged.seen(), whole.seen());
  auto vm = merged.values(), vw = whole.values();
  std::sort(vm.begin(), vm.end());
  std::sort(vw.begin(), vw.end());
  EXPECT_EQ(vm, vw);
}

TEST(BottomKSampler, KeepsEverythingBelowCapacity) {
  BottomKSampler sampler(100, 1);
  for (std::uint64_t i = 0; i < 60; ++i) sampler.add(i, 0, i + 1);
  EXPECT_EQ(sampler.sample_size(), 60u);
  auto values = sampler.values();
  std::sort(values.begin(), values.end());
  for (std::uint64_t i = 0; i < 60; ++i) EXPECT_EQ(values[i], i + 1);
}

TEST(BottomKSampler, SeedChangesTheSample) {
  BottomKSampler a(20, 1);
  BottomKSampler b(20, 2);
  for (std::uint64_t i = 0; i < 500; ++i) {
    a.add(i, 0, i);
    b.add(i, 0, i);
  }
  auto va = a.values(), vb = b.values();
  std::sort(va.begin(), va.end());
  std::sort(vb.begin(), vb.end());
  EXPECT_NE(va, vb);
}

/// The sampler as it was before it kept arrival order below capacity: a
/// max-heap on (rank, value) from the first entry. Entries come from a
/// one-entry BottomKSampler, so only the ranks are shared.
struct HeapFromTheFirstEntry {
  HeapFromTheFirstEntry(std::size_t capacity, std::uint64_t seed)
      : capacity(capacity), seed(seed) {}

  std::size_t capacity;
  std::uint64_t seed;
  std::uint64_t seen = 0;
  std::vector<BottomKSampler::Entry> heap;

  static BottomKSampler::Entry entry_of(std::uint64_t seed, std::uint64_t a,
                                        std::uint64_t b, std::uint64_t value) {
    BottomKSampler one(1, seed);
    one.add(a, b, value);
    return one.sorted_entries().front();
  }
  void fold(BottomKSampler::Entry e) {
    if (capacity == 0) return;
    if (heap.size() < capacity) {
      heap.push_back(e);
      std::push_heap(heap.begin(), heap.end());
    } else if (e < heap.front()) {
      std::pop_heap(heap.begin(), heap.end());
      heap.back() = e;
      std::push_heap(heap.begin(), heap.end());
    }
  }
  void add(std::uint64_t a, std::uint64_t b, std::uint64_t value) {
    ++seen;
    fold(entry_of(seed, a, b, value));
  }
  void merge(const HeapFromTheFirstEntry& other) {
    seen += other.seen;
    for (const auto& e : other.heap) fold(e);
  }
  std::vector<BottomKSampler::Entry> sorted_entries() const {
    auto out = heap;
    std::sort(out.begin(), out.end());
    return out;
  }
};

/// The bytes SDT2/SDS1 store for a sampler: seen, size, then each sorted
/// entry's rank and value.
std::vector<std::uint64_t> checkpoint_words(std::uint64_t seen,
                                            const std::vector<BottomKSampler::Entry>& sorted) {
  std::vector<std::uint64_t> words{seen, sorted.size()};
  for (const auto& e : sorted) {
    words.push_back(e.rank);
    words.push_back(e.value);
  }
  return words;
}

// Below capacity the sampler keeps arrival order and merges by appending;
// the heap is built when it fills. Adds and merges that stay below
// capacity, fill it exactly, or cross it inside one merge keep the sample
// of a sampler that heaps from the first entry, and so do later adds.
TEST(BottomKSampler, HeapifyingWhenFullKeepsTheHeapFromTheFirstEntrysSample) {
  constexpr std::size_t kCapacity = 40;
  constexpr std::uint64_t kSeed = 5;
  struct Part {
    std::uint64_t first, count;
  };
  // Each case: the entries added to the target, then the parts merged in.
  const std::vector<std::pair<Part, std::vector<Part>>> cases = {
      {{0, 10}, {{100, 5}, {200, 7}}},     // stays below capacity
      {{0, 40}, {}},                       // adds fill it exactly
      {{0, 25}, {{100, 15}}},              // a merge fills it exactly
      {{0, 30}, {{100, 25}}},              // a merge crosses capacity
      {{0, 0}, {{100, 90}, {300, 3}}},     // an empty target takes a full part
      {{0, 60}, {{100, 10}, {200, 70}}},   // merges into a full target
  };
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const auto& [own, parts] = cases[c];
    BottomKSampler got(kCapacity, kSeed);
    HeapFromTheFirstEntry want(kCapacity, kSeed);
    for (std::uint64_t i = own.first; i < own.first + own.count; ++i) {
      got.add(i, i * 3, i % 11);
      want.add(i, i * 3, i % 11);
    }
    for (const Part& part : parts) {
      BottomKSampler piece(kCapacity, kSeed);
      HeapFromTheFirstEntry want_piece(kCapacity, kSeed);
      for (std::uint64_t i = part.first; i < part.first + part.count; ++i) {
        piece.add(i, i * 3, i % 11);
        want_piece.add(i, i * 3, i % 11);
      }
      got.merge(piece);
      want.merge(want_piece);
    }
    EXPECT_EQ(got.seen(), want.seen) << "case " << c;
    EXPECT_EQ(got.sorted_entries(), want.sorted_entries()) << "case " << c;
    EXPECT_EQ(checkpoint_words(got.seen(), got.sorted_entries()),
              checkpoint_words(want.seen, want.sorted_entries()))
        << "case " << c;
    // The heap, if built, must evict like the reference's from here on.
    for (std::uint64_t i = 1000; i < 1100; ++i) {
      got.add(i, i * 3, i % 11);
      want.add(i, i * 3, i % 11);
    }
    EXPECT_EQ(got.sorted_entries(), want.sorted_entries()) << "case " << c << ", later adds";
  }
}

// A restored sampler below capacity keeps evolving like the original, and
// one restored full evicts like it.
TEST(BottomKSampler, RestoreBelowAndAtCapacityKeepsEvolving) {
  for (const std::uint64_t fed : {std::uint64_t{12}, std::uint64_t{30}, std::uint64_t{200}}) {
    BottomKSampler sampler(30, 4);
    for (std::uint64_t i = 0; i < fed; ++i) sampler.add(i, 0, i);
    BottomKSampler restored(30, 4);
    restored.restore(sampler.seen(), sampler.sorted_entries());
    for (std::uint64_t i = 500; i < 560; ++i) {
      sampler.add(i, 0, i);
      restored.add(i, 0, i);
    }
    EXPECT_EQ(restored, sampler) << fed;
  }
}

// The day close reads its thresholds from the sample in place: the sorted
// ECDF's value over values(), below, at and past capacity, and with values
// of every bit width (0 and 2^64 - 1 among them).
TEST(BottomKSampler, InPlaceThresholdIsTheSortedEcdfsOverItsValues) {
  std::mt19937_64 rng(24);
  for (const std::uint64_t fed : {1, 2, 999, 1000, 1001, 6000}) {
    BottomKSampler sampler(1000, 6);
    for (std::uint64_t i = 0; i < fed; ++i) {
      const std::uint64_t value = i % 97 == 1   ? 0
                                  : i % 89 == 2 ? ~std::uint64_t{0}
                                                : rng() >> (rng() % 64);
      sampler.add(i, 0, value);
    }
    for (const double alpha : {1e-4, 2e-4, 0.028, 0.5, 1.0}) {
      EXPECT_EQ(sampler.top_alpha_threshold(alpha),
                Ecdf(sampler.values()).top_alpha_threshold(alpha))
          << "fed " << fed << " alpha " << alpha;
    }
  }
  EXPECT_THROW(BottomKSampler(10, 1).top_alpha_threshold(0.5), std::logic_error);
}

TEST(BottomKSampler, RestoreRoundTrips) {
  BottomKSampler sampler(30, 9);
  for (std::uint64_t i = 0; i < 300; ++i) sampler.add(i, i + 1, i * 7);
  BottomKSampler restored(30, 9);
  restored.restore(sampler.seen(), sampler.sorted_entries());
  EXPECT_EQ(restored, sampler);
  // A restored sampler must keep evolving identically.
  sampler.add(1000, 0, 5);
  restored.add(1000, 0, 5);
  EXPECT_EQ(restored, sampler);
}

}  // namespace
}  // namespace orion::stats
