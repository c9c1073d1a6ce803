#include "orion/stats/hyperloglog.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>
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

CardinalityEstimator::CardinalityEstimator(std::uint64_t universe,
                                           std::size_t exact_limit,
                                           int hll_precision)
    : universe_(universe),
      exact_limit_(exact_limit),
      hll_precision_(hll_precision),
      sketch_(hll_precision) {}

CardinalityEstimator::Chunk& CardinalityEstimator::chunk_for(std::uint32_t high) {
  const auto it = std::lower_bound(
      chunks_.begin(), chunks_.end(), high,
      [](const Chunk& chunk, std::uint32_t h) { return chunk.high < h; });
  if (it != chunks_.end() && it->high == high) return *it;
  return *chunks_.insert(it, Chunk{high, {}, CoverageBitset(0)});
}

bool CardinalityEstimator::insert_exact(std::uint64_t key) {
  const auto high = static_cast<std::uint32_t>(key >> kChunkBits);
  const auto low = static_cast<std::uint16_t>(key);
  Chunk& chunk = chunk_for(high);
  if (chunk.bitmap.universe_size() == 0) {
    std::vector<std::uint16_t>& array = chunk.array;
    const auto it = std::lower_bound(array.begin(), array.end(), low);
    if (it != array.end() && *it == low) return false;
    // The chunk's bitmap, clipped to the universe, would take
    // (bits + 63) / 64 words: as many bytes as half that many array keys.
    const std::uint64_t bits = std::min<std::uint64_t>(
        std::uint64_t{1} << kChunkBits, universe_ - (std::uint64_t{high} << kChunkBits));
    const std::uint64_t roaring_keys = (bits + 63) / 64 * 4;
    const std::uint64_t array_keys = universe_ / 8 <= kEagerBitmapBytes
                                         ? std::min<std::uint64_t>(kEagerArrayKeys, roaring_keys)
                                         : roaring_keys;
    if (array.size() < array_keys) {
      array.insert(it, low);
      return true;
    }
    chunk.bitmap = CoverageBitset(bits);
    for (const std::uint16_t v : array) chunk.bitmap.mark(v);
    std::vector<std::uint16_t>().swap(array);
  }
  return chunk.bitmap.set(low);
}

template <typename F>
void CardinalityEstimator::for_each_key(F&& f) const {
  for (const Chunk& chunk : chunks_) {
    const std::uint64_t base = std::uint64_t{chunk.high} << kChunkBits;
    for (const std::uint16_t v : chunk.array) f(base | v);
    const std::span<const std::uint64_t> words = chunk.bitmap.words();
    for (std::size_t w = 0; w < words.size(); ++w) {
      for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
        f(base | (w * 64 + static_cast<std::uint64_t>(std::countr_zero(bits))));
      }
    }
  }
}

void CardinalityEstimator::promote() {
  for_each_key([this](std::uint64_t k) { sketch_.add(hll_hash(k)); });
  std::vector<Chunk>().swap(chunks_);
  exact_size_ = 0;
  promoted_ = true;
}

void CardinalityEstimator::add(std::uint64_t key) {
  if (key >= universe_) {
    throw std::out_of_range("CardinalityEstimator::add: key beyond universe");
  }
  if (promoted_) {
    sketch_.add(hll_hash(key));
    return;
  }
  if (insert_exact(key) && ++exact_size_ > exact_limit_) promote();
}

std::vector<std::uint64_t> CardinalityEstimator::exact_keys() const {
  std::vector<std::uint64_t> keys;
  keys.reserve(exact_size_);
  for_each_key([&keys](std::uint64_t k) { keys.push_back(k); });
  return keys;
}

void CardinalityEstimator::restore(bool promoted,
                                   const std::vector<std::uint64_t>& exact,
                                   HyperLogLog sketch) {
  if (sketch.precision() != hll_precision_) {
    throw std::invalid_argument(
        "CardinalityEstimator::restore: precision mismatch");
  }
  for (const std::uint64_t k : exact) {
    if (k >= universe_) {
      throw std::invalid_argument(
          "CardinalityEstimator::restore: key beyond universe");
    }
  }
  promoted_ = promoted;
  chunks_.clear();
  exact_size_ = 0;
  for (const std::uint64_t k : exact) exact_size_ += insert_exact(k) ? 1 : 0;
  sketch_ = std::move(sketch);
}

std::size_t CardinalityEstimator::exact_bytes() const {
  std::size_t bytes = chunks_.capacity() * sizeof(Chunk);
  for (const Chunk& chunk : chunks_) {
    bytes += chunk.array.capacity() * sizeof(std::uint16_t) +
             chunk.bitmap.words().size() * sizeof(std::uint64_t);
  }
  return bytes;
}

std::uint64_t CardinalityEstimator::estimate() const {
  if (!promoted_) return exact_size_;
  return static_cast<std::uint64_t>(std::llround(sketch_.estimate()));
}

}  // namespace orion::stats
