// Open-addressing hash map for the per-packet hot paths.
//
// std::unordered_map pays a heap allocation per node and a pointer chase
// per probe; the aggregator's live-event table and similar per-source
// tables are hit once per packet, so they use this flat, linear-probing
// map instead: one contiguous slot array, Fibonacci-spread indexing (so
// identity-like hashes of sequential keys still scatter), and
// backward-shift deletion (no tombstones, so probe chains never rot).
//
// On SIMD tiers (DESIGN.md §14) the probe walks a parallel control-tag
// byte array in 16-slot groups, SwissTable-style: each occupied slot
// stores 7 hash bits, one vector compare + movemask selects the key-
// compare candidates and finds the first empty, so a probe chain of a
// dozen slots costs one 16-byte load instead of a dozen key compares.
// The tags are a pure accelerator over the *same* slot array and probe
// sequence — insertion position, iteration order, backward-shift motion
// and rehash layout are bit-identical to the scalar linear probe, which
// stays in place as the Scalar-tier reference. The first
// kGroupWidth-1 tags are mirrored past the end so a group load never
// wraps.
//
// The API is the minimal surface those tables need — find / try_emplace /
// erase / for_each — not a drop-in std::unordered_map.
// Iteration order is the slot order (arbitrary but deterministic for a
// given insertion/deletion history); callers that need a canonical order
// (checkpoints) sort keys themselves.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "orion/netbase/simd.hpp"

#if ORION_SIMD_ENABLED && defined(__x86_64__)
#include <immintrin.h>
#endif
#if ORION_SIMD_ENABLED && defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace orion::net {

template <typename K, typename V, typename Hash = std::hash<K>>
class FlatMap {
 public:
  FlatMap() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Pre-sizes the table for `n` elements without exceeding the maximum
  /// load factor (3/4).
  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap * 3 < n * 4) cap <<= 1;
    if (cap > slots_.size()) rehash(cap);
  }

  /// Drops all elements but keeps the allocated table.
  void clear() {
    for (auto& slot : slots_) slot.reset();
    tags_.assign(tags_.size(), kEmptyTag);
    size_ = 0;
  }

  /// The raw Hash of a key, for the precomputed-hash entry points below.
  /// Batch consumers hash a whole batch of keys up front, prefetch() each
  /// home slot, then probe — by the time find_hashed() runs, the bucket
  /// line is already in flight.
  static std::size_t hash_of(const K& key) { return Hash{}(key); }

  /// Issues a software prefetch for the home slot (and its tag group) of a
  /// key with precomputed hash `h`. No-op on an empty table or without
  /// builtins.
  void prefetch(std::size_t h) const {
#if defined(__GNUC__) || defined(__clang__)
    if (!slots_.empty()) {
      const std::size_t i = index_of_hash(h);
      __builtin_prefetch(&slots_[i], 0, 1);
      __builtin_prefetch(&tags_[i], 0, 1);
    }
#else
    (void)h;
#endif
  }

  V* find(const K& key) { return find_hashed(key, Hash{}(key)); }
  const V* find(const K& key) const {
    return const_cast<FlatMap*>(this)->find(key);
  }

  /// find() with the Hash{}(key) value already computed by the caller.
  V* find_hashed(const K& key, std::size_t h) {
    if (slots_.empty()) return nullptr;
    if (use_group_probe()) {
      const auto [i, found] = group_locate(key, h);
      return found ? &slots_[i]->second : nullptr;
    }
    for (std::size_t i = index_of_hash(h);; i = next(i)) {
      if (!slots_[i]) return nullptr;
      if (slots_[i]->first == key) return &slots_[i]->second;
    }
  }
  const V* find_hashed(const K& key, std::size_t h) const {
    return const_cast<FlatMap*>(this)->find_hashed(key, h);
  }

  /// Current slot index of a key, or npos if absent. Only meaningful until
  /// the next mutation — erase's backward shift and rehash both move
  /// elements — but that transient index is exactly what the aggregator's
  /// slot-ordered expiry needs (see EventAggregator::sweep_wheel).
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t slot_index_hashed(const K& key, std::size_t h) const {
    if (slots_.empty()) return npos;
    if (use_group_probe()) {
      const auto [i, found] = group_locate(key, h);
      return found ? i : npos;
    }
    for (std::size_t i = index_of_hash(h);; i = next(i)) {
      if (!slots_[i]) return npos;
      if (slots_[i]->first == key) return i;
    }
  }

  /// Inserts `key` with a value constructed from `args` unless present.
  /// Returns the value slot and whether an insertion happened. Pointers
  /// are invalidated by any later insertion (the table may grow).
  template <typename... Args>
  std::pair<V*, bool> try_emplace(const K& key, Args&&... args) {
    return try_emplace_hashed(key, Hash{}(key), std::forward<Args>(args)...);
  }

  /// try_emplace() with the Hash{}(key) value already computed.
  template <typename... Args>
  std::pair<V*, bool> try_emplace_hashed(const K& key, std::size_t h,
                                         Args&&... args) {
    if (slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3) {
      rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
    if (use_group_probe()) {
      const auto [i, found] = group_locate(key, h);
      if (found) return {&slots_[i]->second, false};
      emplace_at(i, key, h, std::forward<Args>(args)...);
      return {&slots_[i]->second, true};
    }
    for (std::size_t i = index_of_hash(h);; i = next(i)) {
      if (!slots_[i]) {
        emplace_at(i, key, h, std::forward<Args>(args)...);
        return {&slots_[i]->second, true};
      }
      if (slots_[i]->first == key) return {&slots_[i]->second, false};
    }
  }

  bool erase(const K& key) { return erase_hashed(key, Hash{}(key)); }

  /// erase() with the Hash{}(key) value already computed.
  bool erase_hashed(const K& key, std::size_t h) {
    const std::size_t i = slot_index_hashed(key, h);
    if (i == npos) return false;
    erase_slot(i);
    return true;
  }

  template <typename F>
  void for_each(F&& f) {
    for (auto& slot : slots_) {
      if (slot) f(slot->first, slot->second);
    }
  }
  template <typename F>
  void for_each(F&& f) const {
    for (const auto& slot : slots_) {
      if (slot) f(slot->first, slot->second);
    }
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;
  static constexpr std::size_t kGroupWidth = 16;
  /// Empty tag has the high bit set; occupied tags are 7 hash bits, so a
  /// sign-bit movemask over a group is exactly its empty-slot mask.
  static constexpr std::uint8_t kEmptyTag = 0x80;

  using Slot = std::optional<std::pair<K, V>>;

  static std::uint64_t spread_of_hash(std::size_t h) {
    // Fibonacci spreading tolerates weak (even identity) Hash.
    return static_cast<std::uint64_t>(h) * 0x9E3779B97F4A7C15ull;
  }
  std::size_t index_of(const K& key) const { return index_of_hash(Hash{}(key)); }
  std::size_t index_of_hash(std::size_t h) const {
    return static_cast<std::size_t>(spread_of_hash(h) >> shift_);
  }
  /// 7 control bits per slot, taken from the low spread bits — disjoint
  /// from the index bits (top of the spread), so within one probe chain
  /// the tags still discriminate.
  static std::uint8_t tag_of_hash(std::size_t h) {
    return static_cast<std::uint8_t>(spread_of_hash(h) & 0x7F);
  }
  std::size_t next(std::size_t i) const { return (i + 1) & mask_; }

  static bool use_group_probe() {
#if ORION_SIMD_ENABLED && (defined(__x86_64__) || defined(__aarch64__))
    return simd::active_level() != simd::Level::Scalar;
#else
    return false;
#endif
  }

  /// Writes a tag, keeping the wrap-around mirror bytes past the end in
  /// sync so a 16-byte group load at any index never wraps.
  void set_tag(std::size_t i, std::uint8_t t) {
    tags_[i] = t;
    if (i < kGroupWidth - 1) tags_[slots_.size() + i] = t;
  }

  template <typename... Args>
  void emplace_at(std::size_t i, const K& key, std::size_t h, Args&&... args) {
    slots_[i].emplace(std::piecewise_construct, std::forward_as_tuple(key),
                      std::forward_as_tuple(std::forward<Args>(args)...));
    set_tag(i, tag_of_hash(h));
    ++size_;
  }

#if ORION_SIMD_ENABLED && defined(__x86_64__)
  /// Bits per slot in the group masks (SSE2 movemask: 1 bit per byte).
  static constexpr unsigned kLaneBits = 1;
  void load_group(std::size_t base, std::uint8_t tag, std::uint64_t& match,
                  std::uint64_t& empty) const {
    const __m128i g =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(tags_.data() + base));
    match = static_cast<std::uint32_t>(_mm_movemask_epi8(
        _mm_cmpeq_epi8(g, _mm_set1_epi8(static_cast<char>(tag)))));
    empty = static_cast<std::uint32_t>(_mm_movemask_epi8(g));
  }
#elif ORION_SIMD_ENABLED && defined(__aarch64__)
  /// NEON has no movemask; vshrn narrows each byte-compare to a nibble,
  /// giving 4 mask bits per slot in a 64-bit lane.
  static constexpr unsigned kLaneBits = 4;
  void load_group(std::size_t base, std::uint8_t tag, std::uint64_t& match,
                  std::uint64_t& empty) const {
    const uint8x16_t g = vld1q_u8(tags_.data() + base);
    const uint8x16_t eq = vceqq_u8(g, vdupq_n_u8(tag));
    match = vget_lane_u64(
        vreinterpret_u64_u8(vshrn_n_u16(vreinterpretq_u16_u8(eq), 4)), 0);
    const uint8x16_t emp =
        vcltq_s8(vreinterpretq_s8_u8(g), vdupq_n_s8(0));
    empty = vget_lane_u64(
        vreinterpret_u64_u8(vshrn_n_u16(vreinterpretq_u16_u8(emp), 4)), 0);
  }
#else
  static constexpr unsigned kLaneBits = 1;
  void load_group(std::size_t, std::uint8_t, std::uint64_t&, std::uint64_t&)
      const {}
#endif

  /// Group-probed walk of the key's probe sequence. Returns {index, true}
  /// when the key is present, else {first-empty-slot index, false} — the
  /// exact slot the scalar linear probe would stop at either way. Only
  /// candidates *before* the first empty are key-compared, preserving the
  /// linear probe's stop-at-empty semantics.
  std::pair<std::size_t, bool> group_locate(const K& key, std::size_t h) const {
    const std::uint64_t spread = spread_of_hash(h);
    const std::size_t home = static_cast<std::size_t>(spread >> shift_);
    const std::uint8_t tag = static_cast<std::uint8_t>(spread & 0x7F);
    constexpr std::uint64_t kLaneMask = (std::uint64_t{1} << kLaneBits) - 1;
    for (std::size_t base = home;; base = (base + kGroupWidth) & mask_) {
      std::uint64_t match = 0;
      std::uint64_t empty = 0;
      load_group(base, tag, match, empty);
      // Candidates past the first empty are unreachable for the scalar
      // probe; mask them off. (kLaneBits*16 == 64 on NEON, so guard the
      // full-width shift.)
      std::uint64_t limit = ~std::uint64_t{0};
      unsigned first_empty = kGroupWidth;
      if (empty != 0) {
        const unsigned tz = static_cast<unsigned>(std::countr_zero(empty));
        first_empty = tz / kLaneBits;
        if (first_empty * kLaneBits < 64) {
          limit = (std::uint64_t{1} << (first_empty * kLaneBits)) - 1;
        }
      }
      for (std::uint64_t m = match & limit; m != 0;) {
        const unsigned pos = static_cast<unsigned>(std::countr_zero(m)) / kLaneBits;
        const std::size_t i = (base + pos) & mask_;
        if (slots_[i]->first == key) return {i, true};
        m &= ~(kLaneMask << (pos * kLaneBits));
      }
      if (first_empty < kGroupWidth) {
        return {(base + first_empty) & mask_, false};
      }
    }
  }

  void rehash(std::size_t new_capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_capacity, std::nullopt);
    tags_.assign(new_capacity + kGroupWidth - 1, kEmptyTag);
    mask_ = new_capacity - 1;
    shift_ = 64;
    for (std::size_t c = new_capacity; c > 1; c >>= 1) --shift_;
    size_ = 0;
    for (auto& slot : old) {
      if (!slot) continue;
      const std::size_t h = Hash{}(slot->first);
      for (std::size_t i = index_of_hash(h);; i = next(i)) {
        if (!slots_[i]) {
          slots_[i] = std::move(slot);
          set_tag(i, tag_of_hash(h));
          ++size_;
          break;
        }
      }
    }
  }

  /// Backward-shift deletion: pulls displaced probe-chain members back
  /// over the hole so lookups never need tombstones.
  void erase_slot(std::size_t pos) {
    std::size_t hole = pos;
    for (std::size_t j = next(hole);; j = next(j)) {
      if (!slots_[j]) break;
      const std::size_t h = Hash{}(slots_[j]->first);
      const std::size_t home = index_of_hash(h);
      // j may move into the hole only if the hole lies on j's probe path.
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = std::move(slots_[j]);
        set_tag(hole, tag_of_hash(h));
        hole = j;
      }
    }
    slots_[hole].reset();
    set_tag(hole, kEmptyTag);
    --size_;
  }

  std::vector<Slot> slots_;
  /// One control byte per slot plus kGroupWidth-1 mirror bytes of the
  /// table head, so group loads near the end read the wrapped tags
  /// without a second load.
  std::vector<std::uint8_t> tags_;
  std::size_t mask_ = 0;
  int shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace orion::net
