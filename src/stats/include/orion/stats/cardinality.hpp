// The exact distinct-key set the event aggregator counts each event's
// unique destinations with.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "orion/stats/coverage.hpp"

namespace orion::stats {

/// Counts distinct keys of a bounded universe [0, universe) exactly. The
/// keys are dark-space offsets, so the universe is the darknet size and
/// every event's unique-destination count, and with it Definition 1's
/// 10%-dispersion decision, is exact at any telescope size.
///
/// The layout is a Roaring set (Chambi, Lemire et al., SP&E 2016): the
/// universe splits into 2^16-key chunks, and a chunk holding keys is a
/// sorted u16 array until a bitmap — a CoverageBitset clipped to the
/// universe — is the cheaper form. Roaring switches when the array would
/// outgrow the bitmap (4,096 keys for a whole chunk). A bitmap is the
/// faster form long before that, so where every chunk of the universe as
/// a bitmap takes at most 128 KiB (universes up to 2^20 offsets, which
/// covers ORION's ~475k), a chunk switches after kEagerArrayKeys keys
/// instead. On the paper scenario's /17 an event holds at most 64 array
/// keys, then one 4 KiB bitmap.
///
/// Memory bound (memory_bytes()): up to 2^20 offsets, at most universe/8
/// bytes of bitmaps plus 64-key arrays and the directory, under 136 KiB.
/// Above that, Roaring's rule: an array holds 2 bytes per key and grows
/// by doubling, a bitmap replaces an array no smaller than itself, and
/// the directory has one 64-byte entry per chunk holding keys, inserted
/// in order. 16,384 keys over a /8 stay under 128 KiB; a full /8 sweep is
/// 256 chunk bitmaps, ~2 MiB.
class CardinalityEstimator {
 public:
  explicit CardinalityEstimator(std::uint64_t universe);

  /// Throws std::out_of_range for a key outside [0, universe).
  void add(std::uint64_t key);
  /// The number of distinct keys added.
  std::uint64_t size() const { return size_; }

  /// The keys, ascending: the chunks hand them out in that order, so
  /// nothing sorts.
  std::vector<std::uint64_t> keys() const;
  /// The set as one bitmap over the universe: (universe + 63) / 64 words,
  /// key k at bit k % 64 of word k / 64, the bits past the universe clear.
  std::vector<std::uint64_t> words() const;

  /// Heap bytes held: directory, array and bitmap capacities (the bound
  /// above).
  std::size_t memory_bytes() const;

  /// Array keys per chunk before the switch, for universes whose
  /// chunks all fit kEagerBitmapBytes as bitmaps.
  static constexpr std::size_t kEagerArrayKeys = 64;
  static constexpr std::uint64_t kEagerBitmapBytes = 128 * 1024;

 private:
  static constexpr int kChunkBits = 16;
  struct Chunk {
    std::uint32_t high;                // key >> kChunkBits
    std::vector<std::uint16_t> array;  // sorted low halves while sparse
    CoverageBitset bitmap{0};          // non-empty universe once dense
  };
  Chunk& chunk_for(std::uint32_t high);

  std::uint64_t universe_;
  std::uint64_t size_ = 0;      // distinct keys
  std::vector<Chunk> chunks_;   // ascending by high; only chunks with keys
};

}  // namespace orion::stats
