// Bottom-k sampling: a fixed-size uniform sample of a stream that is
// order-independent and mergeable, unlike reservoir sampling.
//
// Every stream element carries a unique identity; a keyed 64-bit mix of
// that identity is its "rank", and the sample is the k elements with the
// smallest ranks. Because the ranks are a pure function of the elements,
// the sample over a multiset of elements is the same no matter how the
// stream is ordered, interleaved, or partitioned — bottom-k of a union is
// the bottom-k of the per-partition bottom-ks. That property is what lets
// the sharded telescope pipeline keep one sampler per shard and merge them
// into results byte-identical to the single-threaded path (DESIGN.md §9);
// Vitter-style reservoirs cannot do this, because their keep/replace coin
// flips depend on global arrival order.
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <span>
#include <vector>

#include "orion/netbase/shard.hpp"
#include "orion/stats/ecdf.hpp"

namespace orion::stats {

class BottomKSampler {
 public:
  /// A sampled element: its keyed rank plus the sampled value. Ordered by
  /// (rank, value) so eviction is deterministic even under rank ties.
  struct Entry {
    std::uint64_t rank = 0;
    std::uint64_t value = 0;
    friend constexpr auto operator<=>(const Entry&, const Entry&) = default;
  };

  BottomKSampler(std::size_t capacity, std::uint64_t seed)
      : capacity_(capacity), seed_(seed) {}

  /// Feeds one element. (id_a, id_b) must uniquely identify the element
  /// within the stream; value is what the sample stores.
  void add(std::uint64_t id_a, std::uint64_t id_b, std::uint64_t value) {
    ++seen_;
    fold(Entry{rank_of(id_a, id_b, value), value});
  }

  /// Merges another sampler over a disjoint part of the same logical
  /// stream (same capacity and seed): the result is exactly the sampler
  /// that would have seen both parts. What fits below capacity is one
  /// append; only the rest is folded through the heap.
  void merge(const BottomKSampler& other) {
    seen_ += other.seen_;
    const auto fits = other.entries_.begin() +
                      static_cast<std::ptrdiff_t>(std::min(
                          capacity_ - entries_.size(), other.entries_.size()));
    entries_.insert(entries_.end(), other.entries_.begin(), fits);
    if (fits != other.entries_.begin() && full()) heapify();
    for (auto it = fits; it != other.entries_.end(); ++it) fold(*it);
  }

  /// Makes room for `n` entries (at most the capacity) in one allocation,
  /// for a caller that knows how much it will merge.
  void reserve(std::size_t n) { entries_.reserve(std::min(n, capacity_)); }

  /// Elements seen so far (not the sample size).
  std::uint64_t seen() const { return seen_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t sample_size() const { return entries_.size(); }

  /// The sampled values, in unspecified order (arrival order below
  /// capacity, heap order once full; callers sort or feed an ECDF). The
  /// multiset is a pure function of the elements fed.
  std::vector<std::uint64_t> values() const {
    std::vector<std::uint64_t> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) out.push_back(e.value);
    return out;
  }

  /// top_alpha_threshold(values(), alpha) read in place, without the
  /// copy. Throws std::logic_error when the sample is empty.
  std::uint64_t top_alpha_threshold(double alpha) const {
    return stats::top_alpha_threshold(std::span<const Entry>(entries_), alpha,
                                      [](const Entry& e) { return e.value; });
  }

  /// Entries sorted by (rank, value): the canonical form used by
  /// checkpoints and equality checks.
  std::vector<Entry> sorted_entries() const {
    std::vector<Entry> out = entries_;
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Checkpoint support: reinstates a snapshotted sampler.
  void restore(std::uint64_t seen, std::vector<Entry> entries) {
    seen_ = seen;
    entries_ = std::move(entries);
    if (full()) heapify();
  }

  /// Same sample and stream position (heap layout is ignored).
  friend bool operator==(const BottomKSampler& a, const BottomKSampler& b) {
    return a.seen_ == b.seen_ && a.capacity_ == b.capacity_ &&
           a.seed_ == b.seed_ && a.sorted_entries() == b.sorted_entries();
  }

 private:
  std::uint64_t rank_of(std::uint64_t id_a, std::uint64_t id_b,
                        std::uint64_t value) const {
    return net::mix64(net::mix64(net::mix64(seed_ + 0x9E3779B97F4A7C15ull) ^
                                 id_a) ^
                      net::mix64(id_b ^ value * 0xD1B54A32D192ED03ull));
  }

  bool full() const { return entries_.size() == capacity_; }
  void heapify() { std::make_heap(entries_.begin(), entries_.end()); }

  /// Keeps the k smallest entries. Below capacity entries_ is in arrival
  /// order (nothing is evicted yet, so no order is needed); the max-heap
  /// on (rank, value) is built once, when the sample fills.
  void fold(Entry e) {
    if (capacity_ == 0) return;
    if (!full()) {
      entries_.push_back(e);
      if (full()) heapify();
      return;
    }
    if (e < entries_.front()) {
      std::pop_heap(entries_.begin(), entries_.end());
      entries_.back() = e;
      std::push_heap(entries_.begin(), entries_.end());
    }
  }

  std::size_t capacity_;
  std::uint64_t seed_;
  std::uint64_t seen_ = 0;
  std::vector<Entry> entries_;
};

}  // namespace orion::stats
