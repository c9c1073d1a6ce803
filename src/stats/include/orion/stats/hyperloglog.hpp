// HyperLogLog cardinality sketch and the hybrid exact/HLL estimator the
// event aggregator uses for unique-destination counting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

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

/// Counts distinct 64-bit keys exactly up to `exact_limit`, then converts
/// to an HLL sketch. Per-event unique-destination tracking needs exactness
/// for small events (most events touch a handful of dark IPs) but bounded
/// memory for Internet-wide sweeps, which is exactly this trade-off.
///
/// The exact phase uses a flat open-addressing u64 set (zero is the empty
/// sentinel, tracked by a side flag) rather than std::unordered_set — the
/// per-insert node allocation dominated the aggregator's per-packet cost.
/// Observationally this changes nothing: exact_keys() sorts the keys,
/// estimate() is the distinct count, and HLL promotion takes a register
/// max over the same key set in any order.
class CardinalityEstimator {
 public:
  explicit CardinalityEstimator(std::size_t exact_limit = 4096,
                                int hll_precision = 12);

  void add(std::uint64_t key);
  /// Exact count while below the limit; HLL estimate afterwards.
  std::uint64_t estimate() const;
  bool is_exact() const { return !promoted_; }

  /// exact_keys() sorts with std::sort below this many keys, where it is
  /// faster than a radix pass over 2^11 buckets.
  static constexpr std::size_t kRadixSortMin = 128;

  /// Checkpoint support: expose and reinstate the full estimator state.
  /// Keys come back ascending, the canonical order checkpoints store:
  /// an LSD radix sort over 11-bit digits, with only as many passes as
  /// the largest key needs (two for dark-space offsets below 2^22).
  /// The restored estimator keeps this instance's limit and precision;
  /// `restore` throws std::invalid_argument on a precision mismatch.
  std::vector<std::uint64_t> exact_keys() const;
  const HyperLogLog& sketch() const { return sketch_; }
  void restore(bool promoted, const std::vector<std::uint64_t>& exact,
               HyperLogLog sketch);

 private:
  void insert_exact(std::uint64_t key);
  void promote();

  std::size_t exact_limit_;
  int hll_precision_;
  bool promoted_ = false;
  bool has_zero_ = false;          // key 0 lives here, not in slots_
  std::size_t exact_size_ = 0;     // distinct keys, including a zero key
  std::vector<std::uint64_t> slots_;  // open addressing; 0 = empty slot
  HyperLogLog sketch_;
};

}  // namespace orion::stats
