// Empirical CDF and the top-α threshold rule used by AH definitions 2 & 3.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <vector>

namespace orion::stats {

/// Empirical cumulative distribution function over integer-valued samples
/// (per-event packet counts, daily distinct-port counts).
class Ecdf {
 public:
  Ecdf() = default;
  explicit Ecdf(std::vector<std::uint64_t> samples);

  void add(std::uint64_t sample);

  std::size_t sample_count() const { return samples_.size(); }

  /// F(x) = P(X <= x). 0 for an empty distribution.
  double at(std::uint64_t x) const;

  /// The q-quantile (0 <= q <= 1) using the inverse-ECDF convention:
  /// smallest sample s with F(s) >= q. Throws std::logic_error when empty.
  std::uint64_t quantile(double q) const;

  /// The paper's "critical threshold": the (1 - alpha) quantile, so that a
  /// value strictly above it lies in the top-alpha tail. With
  /// alpha = 1e-4 this is the top-0.01% rule of Definitions 2 and 3.
  std::uint64_t top_alpha_threshold(double alpha) const { return quantile(1.0 - alpha); }

  std::uint64_t min() const;
  std::uint64_t max() const;
  double mean() const;

  /// The sorted sample array (lazily sorted on access).
  const std::vector<std::uint64_t>& sorted_samples() const;

 private:
  void ensure_sorted() const;

  mutable std::vector<std::uint64_t> samples_;
  mutable bool sorted_ = true;
};

/// Index of the q-quantile among `n` ascending samples (n >= 1), under
/// the inverse-ECDF convention: ceil(q * n) - 1, clamped to [0, n).
/// Throws std::invalid_argument unless 0 <= q <= 1 (NaN included).
std::size_t quantile_index(double q, std::size_t n);

/// Ecdf(samples).top_alpha_threshold(alpha) without the sort: the same
/// order statistic of the same multiset, where `value_of` reads each
/// item's value. A radix select: values of one bit width are contiguous
/// in sorted order, so one pass counts the widths, a second copies the
/// values of the width that holds the statistic, and one std::nth_element
/// runs over that copy alone. Throws std::logic_error when `samples` is
/// empty.
template <typename Item, typename ValueOf = std::identity>
std::uint64_t top_alpha_threshold(std::span<const Item> samples, double alpha,
                                  ValueOf value_of = {}) {
  if (samples.empty()) throw std::logic_error("top_alpha_threshold: no samples");
  std::size_t rank = quantile_index(1.0 - alpha, samples.size());
  const auto width_of = [&](const Item& item) {
    return static_cast<std::size_t>(std::bit_width(std::uint64_t{value_of(item)}));
  };
  std::array<std::size_t, 65> widths{};
  for (const Item& item : samples) ++widths[width_of(item)];
  std::size_t width = 0;
  while (rank >= widths[width]) rank -= widths[width++];
  std::vector<std::uint64_t> bucket;
  bucket.reserve(widths[width]);
  for (const Item& item : samples) {
    if (width_of(item) == width) bucket.push_back(value_of(item));
  }
  const auto nth = bucket.begin() + static_cast<std::ptrdiff_t>(rank);
  std::nth_element(bucket.begin(), nth, bucket.end());
  return *nth;
}

std::uint64_t top_alpha_threshold(std::vector<std::uint64_t> samples,
                                  double alpha);

/// Two-sample Kolmogorov–Smirnov distance sup_x |F_a(x) - F_b(x)|.
/// Used to quantify distribution drift (e.g. the 2021 vs 2022 per-event
/// packet distributions behind the Definition-2 threshold shift).
double ks_distance(const Ecdf& a, const Ecdf& b);

/// Jaccard similarity |A ∩ B| / |A ∪ B| between two sets; the paper uses it
/// to compare the Definition-1 and Definition-2 AH populations (score 0.8).
template <typename Set>
double jaccard(const Set& a, const Set& b) {
  if (a.empty() && b.empty()) return 1.0;
  std::size_t intersection = 0;
  const Set& small = a.size() <= b.size() ? a : b;
  const Set& large = a.size() <= b.size() ? b : a;
  for (const auto& element : small) {
    if (large.contains(element)) ++intersection;
  }
  const std::size_t union_size = a.size() + b.size() - intersection;
  return static_cast<double>(intersection) / static_cast<double>(union_size);
}

}  // namespace orion::stats
