#include "orion/stats/ecdf.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace orion::stats {

Ecdf::Ecdf(std::vector<std::uint64_t> samples)
    : samples_(std::move(samples)), sorted_(false) {}

void Ecdf::add(std::uint64_t sample) {
  samples_.push_back(sample);
  sorted_ = false;
}

void Ecdf::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Ecdf::at(std::uint64_t x) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

std::uint64_t Ecdf::quantile(double q) const {
  if (samples_.empty()) throw std::logic_error("Ecdf::quantile on empty ECDF");
  const std::size_t index = quantile_index(q, samples_.size());
  ensure_sorted();
  return samples_[index];
}

std::uint64_t Ecdf::min() const {
  if (samples_.empty()) throw std::logic_error("Ecdf::min on empty ECDF");
  ensure_sorted();
  return samples_.front();
}

std::uint64_t Ecdf::max() const {
  if (samples_.empty()) throw std::logic_error("Ecdf::max on empty ECDF");
  ensure_sorted();
  return samples_.back();
}

double Ecdf::mean() const {
  if (samples_.empty()) throw std::logic_error("Ecdf::mean on empty ECDF");
  const auto sum = std::accumulate(samples_.begin(), samples_.end(),
                                   static_cast<long double>(0));
  return static_cast<double>(sum / static_cast<long double>(samples_.size()));
}

const std::vector<std::uint64_t>& Ecdf::sorted_samples() const {
  ensure_sorted();
  return samples_;
}

std::size_t quantile_index(double q, std::size_t n) {
  // Written so that NaN fails it: ceil(NaN) has no size_t value.
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument("quantile: q outside [0, 1]");
  }
  // Smallest index i with (i + 1) / n >= q  =>  i = ceil(q * n) - 1.
  auto index = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (index > 0) --index;
  return std::min(index, n - 1);
}

std::uint64_t top_alpha_threshold(std::vector<std::uint64_t> samples,
                                  double alpha) {
  return top_alpha_threshold(std::span<const std::uint64_t>(samples), alpha);
}

double ks_distance(const Ecdf& a, const Ecdf& b) {
  const auto& xs = a.sorted_samples();
  const auto& ys = b.sorted_samples();
  if (xs.empty() || ys.empty()) {
    throw std::logic_error("ks_distance: empty distribution");
  }
  const double nx = static_cast<double>(xs.size());
  const double ny = static_cast<double>(ys.size());
  std::size_t i = 0, j = 0;
  double d = 0.0;
  while (i < xs.size() && j < ys.size()) {
    const std::uint64_t v = std::min(xs[i], ys[j]);
    while (i < xs.size() && xs[i] == v) ++i;
    while (j < ys.size() && ys[j] == v) ++j;
    d = std::max(d, std::abs(static_cast<double>(i) / nx -
                             static_cast<double>(j) / ny));
  }
  return d;
}

}  // namespace orion::stats
