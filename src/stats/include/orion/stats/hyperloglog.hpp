// HyperLogLog cardinality sketch and the hybrid exact/HLL estimator the
// event aggregator uses for unique-destination counting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "orion/stats/coverage.hpp"

namespace orion::stats {

/// Standard HyperLogLog (Flajolet et al. 2007) with the small-range
/// linear-counting correction. Precision p gives 2^p registers and a
/// relative error of roughly 1.04 / sqrt(2^p).
class HyperLogLog {
 public:
  explicit HyperLogLog(int precision = 12);

  void add(std::uint64_t hash);
  double estimate() const;
  void merge(const HyperLogLog& other);
  int precision() const { return precision_; }
  std::size_t memory_bytes() const { return registers_.size(); }

  /// Checkpoint support: raw register access and restore. `set_registers`
  /// throws std::invalid_argument if the size does not match 2^precision.
  const std::vector<std::uint8_t>& registers() const { return registers_; }
  void set_registers(std::vector<std::uint8_t> registers);

 private:
  int precision_;
  std::vector<std::uint8_t> registers_;
};

/// Mixes an arbitrary 64-bit key into a well-distributed hash for HLL.
std::uint64_t hll_hash(std::uint64_t key);

/// Counts distinct keys of a bounded universe [0, universe) exactly up to
/// `exact_limit`, then converts to an HLL sketch. Per-event
/// unique-destination tracking needs exactness for small events (most
/// events touch a handful of dark IPs) but bounded memory for
/// Internet-wide sweeps, which is exactly this trade-off. The keys are
/// dark-space offsets, so the universe is the darknet size.
///
/// The exact phase is a Roaring set (Chambi, Lemire et al., SP&E 2016):
/// the universe splits into 2^16-key chunks, and a chunk holding keys is
/// a sorted u16 array until a bitmap — a CoverageBitset clipped to the
/// universe — is the cheaper form. Roaring switches when the array would
/// outgrow the bitmap (4,096 keys for a whole chunk). A bitmap is the
/// faster form long before that, so where every chunk of the universe as
/// a bitmap takes at most 128 KiB (universes up to 2^20 offsets, which
/// covers ORION's ~475k), a chunk switches after kEagerArrayKeys keys
/// instead. On the paper scenario's /17 an event holds at most 64 array
/// keys, then one 4 KiB bitmap.
///
/// Memory bound (exact_bytes()): up to 2^20 offsets, the bitmaps of the
/// whole universe, plus 64-key arrays and the directory: under 136 KiB.
/// Above that, Roaring's rule: an array holds 2 bytes per key and grows
/// by doubling, a bitmap replaces an array no smaller than itself, and
/// the directory has one entry per chunk holding keys; under 128 KiB at
/// the default 16,384-key limit for universes up to 2^24 (a /8). The
/// open-addressing table this replaced reached 256 KiB. Past 2^24 the
/// bound does not hold: every chunk a sparse sweep touches adds a 64-byte
/// directory entry by sorted insert, so a 16,384-key sweep of 2^30
/// offsets holds about 1 MiB.
///
/// Observationally the layout changes nothing: exact_keys() lists the
/// keys ascending, estimate() is the distinct count, and HLL promotion
/// takes a register max over the same key set in any order.
class CardinalityEstimator {
 public:
  CardinalityEstimator(std::uint64_t universe, std::size_t exact_limit,
                       int hll_precision = 12);

  /// Throws std::out_of_range for a key outside [0, universe).
  void add(std::uint64_t key);
  /// Exact count while below the limit; HLL estimate afterwards.
  std::uint64_t estimate() const;
  bool is_exact() const { return !promoted_; }

  /// Checkpoint support: expose and reinstate the full estimator state.
  /// Keys come back ascending, the canonical order checkpoints store;
  /// the chunks hand them out in that order, so nothing sorts.
  /// The restored estimator keeps this instance's universe, limit and
  /// precision; `restore` throws std::invalid_argument on a precision
  /// mismatch or a key outside the universe.
  std::vector<std::uint64_t> exact_keys() const;
  const HyperLogLog& sketch() const { return sketch_; }
  void restore(bool promoted, const std::vector<std::uint64_t>& exact,
               HyperLogLog sketch);

  /// Heap bytes the exact phase holds: directory, array and bitmap
  /// capacities (the bound above).
  std::size_t exact_bytes() const;

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
  bool insert_exact(std::uint64_t key);
  Chunk& chunk_for(std::uint32_t high);
  template <typename F>
  void for_each_key(F&& f) const;
  void promote();

  std::uint64_t universe_;
  std::size_t exact_limit_;
  int hll_precision_;
  bool promoted_ = false;
  std::size_t exact_size_ = 0;  // distinct keys in the exact phase
  std::vector<Chunk> chunks_;   // ascending by high; only chunks with keys
  HyperLogLog sketch_;
};

}  // namespace orion::stats
