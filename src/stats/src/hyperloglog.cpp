#include "orion/stats/hyperloglog.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace orion::stats {

std::uint64_t hll_hash(std::uint64_t key) {
  // SplitMix64 finalizer: full-avalanche 64-bit mix.
  std::uint64_t z = key + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

HyperLogLog::HyperLogLog(int precision) : precision_(precision) {
  if (precision < 4 || precision > 18) {
    throw std::invalid_argument("HyperLogLog: precision must be in [4, 18]");
  }
  registers_.assign(std::size_t{1} << precision, 0);
}

void HyperLogLog::add(std::uint64_t hash) {
  const std::size_t index = hash >> (64 - precision_);
  const std::uint64_t rest = hash << precision_;
  // Rank = position of the leftmost 1-bit in the remaining bits, 1-based;
  // all-zero remainder gets the maximum rank.
  const int rank =
      rest == 0 ? 64 - precision_ + 1 : std::countl_zero(rest) + 1;
  if (registers_[index] < rank) registers_[index] = static_cast<std::uint8_t>(rank);
}

double HyperLogLog::estimate() const {
  const auto m = static_cast<double>(registers_.size());
  double inverse_sum = 0.0;
  std::size_t zero_registers = 0;
  for (const std::uint8_t reg : registers_) {
    inverse_sum += std::ldexp(1.0, -reg);
    if (reg == 0) ++zero_registers;
  }
  const double alpha =
      registers_.size() == 16 ? 0.673
      : registers_.size() == 32 ? 0.697
      : registers_.size() == 64 ? 0.709
                                : 0.7213 / (1.0 + 1.079 / m);
  const double raw = alpha * m * m / inverse_sum;
  if (raw <= 2.5 * m && zero_registers > 0) {
    // Small-range correction: linear counting on empty registers.
    return m * std::log(m / static_cast<double>(zero_registers));
  }
  return raw;
}

void HyperLogLog::set_registers(std::vector<std::uint8_t> registers) {
  if (registers.size() != (std::size_t{1} << precision_)) {
    throw std::invalid_argument("HyperLogLog::set_registers: size mismatch");
  }
  registers_ = std::move(registers);
}

void HyperLogLog::merge(const HyperLogLog& other) {
  if (other.precision_ != precision_) {
    throw std::invalid_argument("HyperLogLog::merge: precision mismatch");
  }
  for (std::size_t i = 0; i < registers_.size(); ++i) {
    if (other.registers_[i] > registers_[i]) registers_[i] = other.registers_[i];
  }
}

CardinalityEstimator::CardinalityEstimator(std::size_t exact_limit,
                                           int hll_precision)
    : exact_limit_(exact_limit),
      hll_precision_(hll_precision),
      sketch_(hll_precision) {}

void CardinalityEstimator::insert_exact(std::uint64_t key) {
  // Grow at 3/4 load (counting only the keys stored in slots_).
  const std::size_t stored = exact_size_ - (has_zero_ ? 1 : 0);
  if (slots_.empty() || (stored + 1) * 4 > slots_.size() * 3) {
    std::vector<std::uint64_t> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : old.size() * 2, 0);
    const std::size_t mask = slots_.size() - 1;
    for (const std::uint64_t k : old) {
      if (k == 0) continue;
      std::size_t i = hll_hash(k) & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = k;
    }
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = hll_hash(key) & mask;
  while (slots_[i] != 0) {
    if (slots_[i] == key) return;
    i = (i + 1) & mask;
  }
  slots_[i] = key;
  ++exact_size_;
}

void CardinalityEstimator::promote() {
  for (const std::uint64_t k : slots_) {
    if (k != 0) sketch_.add(hll_hash(k));
  }
  if (has_zero_) sketch_.add(hll_hash(0));
  slots_.clear();
  slots_.shrink_to_fit();
  has_zero_ = false;
  exact_size_ = 0;
  promoted_ = true;
}

void CardinalityEstimator::add(std::uint64_t key) {
  if (promoted_) {
    sketch_.add(hll_hash(key));
    return;
  }
  if (key == 0) {
    if (!has_zero_) {
      has_zero_ = true;
      ++exact_size_;
    }
  } else {
    insert_exact(key);
  }
  if (exact_size_ > exact_limit_) promote();
}

std::vector<std::uint64_t> CardinalityEstimator::exact_keys() const {
  std::vector<std::uint64_t> keys;
  keys.reserve(exact_size_);
  if (has_zero_) keys.push_back(0);
  std::uint64_t any_bits = 0;
  for (const std::uint64_t k : slots_) {
    if (k != 0) keys.push_back(k);
    any_bits |= k;
  }
  if (keys.size() < kRadixSortMin) {
    std::sort(keys.begin(), keys.end());
    return keys;
  }
  // LSD radix sort: each pass is a stable counting sort on the next digit.
  constexpr int kDigitBits = 11;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  const int passes = (std::bit_width(any_bits) + kDigitBits - 1) / kDigitBits;
  std::vector<std::uint64_t> sorted(keys.size());
  std::vector<std::size_t> start(kBuckets);
  for (int pass = 0; pass < passes; ++pass) {
    const int shift = pass * kDigitBits;
    std::fill(start.begin(), start.end(), 0);
    for (const std::uint64_t k : keys) ++start[(k >> shift) & (kBuckets - 1)];
    std::size_t next = 0;
    for (std::size_t& s : start) next += std::exchange(s, next);
    for (const std::uint64_t k : keys) sorted[start[(k >> shift) & (kBuckets - 1)]++] = k;
    keys.swap(sorted);
  }
  return keys;
}

void CardinalityEstimator::restore(bool promoted,
                                   const std::vector<std::uint64_t>& exact,
                                   HyperLogLog sketch) {
  if (sketch.precision() != hll_precision_) {
    throw std::invalid_argument(
        "CardinalityEstimator::restore: precision mismatch");
  }
  promoted_ = promoted;
  slots_.clear();
  has_zero_ = false;
  exact_size_ = 0;
  for (const std::uint64_t k : exact) {
    if (k == 0) {
      if (!has_zero_) {
        has_zero_ = true;
        ++exact_size_;
      }
    } else {
      insert_exact(k);
    }
  }
  sketch_ = std::move(sketch);
}

std::uint64_t CardinalityEstimator::estimate() const {
  if (!promoted_) return exact_size_;
  return static_cast<std::uint64_t>(std::llround(sketch_.estimate()));
}

}  // namespace orion::stats
