#include "orion/stats/cardinality.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <stdexcept>

namespace orion::stats {

CardinalityEstimator::CardinalityEstimator(std::uint64_t universe)
    : universe_(universe) {}

CardinalityEstimator::Chunk& CardinalityEstimator::chunk_for(std::uint32_t high) {
  const auto it = std::lower_bound(
      chunks_.begin(), chunks_.end(), high,
      [](const Chunk& chunk, std::uint32_t h) { return chunk.high < h; });
  if (it != chunks_.end() && it->high == high) return *it;
  return *chunks_.insert(it, Chunk{high, {}, CoverageBitset(0)});
}

void CardinalityEstimator::add(std::uint64_t key) {
  if (key >= universe_) {
    throw std::out_of_range("CardinalityEstimator::add: key beyond universe");
  }
  const auto high = static_cast<std::uint32_t>(key >> kChunkBits);
  const auto low = static_cast<std::uint16_t>(key);
  Chunk& chunk = chunk_for(high);
  if (chunk.bitmap.universe_size() == 0) {
    std::vector<std::uint16_t>& array = chunk.array;
    const auto it = std::lower_bound(array.begin(), array.end(), low);
    if (it != array.end() && *it == low) return;
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
      ++size_;
      return;
    }
    chunk.bitmap = CoverageBitset(bits);
    for (const std::uint16_t v : array) chunk.bitmap.mark(v);
    std::vector<std::uint16_t>().swap(array);
  }
  if (chunk.bitmap.set(low)) ++size_;
}

std::vector<std::uint64_t> CardinalityEstimator::keys() const {
  std::vector<std::uint64_t> keys;
  keys.reserve(size_);
  for (const Chunk& chunk : chunks_) {
    const std::uint64_t base = std::uint64_t{chunk.high} << kChunkBits;
    for (const std::uint16_t v : chunk.array) keys.push_back(base | v);
    const std::span<const std::uint64_t> words = chunk.bitmap.words();
    for (std::size_t w = 0; w < words.size(); ++w) {
      for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
        keys.push_back(base | (w * 64 + static_cast<std::uint64_t>(std::countr_zero(bits))));
      }
    }
  }
  return keys;
}

std::vector<std::uint64_t> CardinalityEstimator::words() const {
  // A chunk is 2^16 bits, a whole number of words, so chunk c's words
  // start at word c << (kChunkBits - 6) of the universe bitmap.
  std::vector<std::uint64_t> out((universe_ + 63) / 64, 0);
  for (const Chunk& chunk : chunks_) {
    const std::size_t first = std::size_t{chunk.high} << (kChunkBits - 6);
    for (const std::uint16_t v : chunk.array) {
      out[first + v / 64] |= std::uint64_t{1} << (v % 64);
    }
    const std::span<const std::uint64_t> words = chunk.bitmap.words();
    std::copy(words.begin(), words.end(), out.begin() + static_cast<std::ptrdiff_t>(first));
  }
  return out;
}

std::size_t CardinalityEstimator::memory_bytes() const {
  std::size_t bytes = chunks_.capacity() * sizeof(Chunk);
  for (const Chunk& chunk : chunks_) {
    bytes += chunk.array.capacity() * sizeof(std::uint16_t) +
             chunk.bitmap.words().size() * sizeof(std::uint64_t);
  }
  return bytes;
}

}  // namespace orion::stats
