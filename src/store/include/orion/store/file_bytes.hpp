// FileBytes — the read-only bytes of one archive, and their owner, plus
// the parts of the ODE2/FDE1 frame (DESIGN.md §10.1) both stores and both
// salvage readers hold: the checked header and the salvage status.
//
// A file is mmapped where the platform allows, else read whole into an
// 8-aligned heap buffer, so typed column spans over the bytes work either
// way (the ODE2/FDE1 alignment invariant, store/ode2.hpp); an archive
// image built in memory takes the heap form directly (adopt). Both mapped
// stores and both salvage readers get their bytes here. Moves are the
// defaulted ones: the mapping is released by its one owner.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace orion::store {

namespace detail {
/// munmap()s a FileBytes mapping of `bytes` bytes.
struct Unmap {
  std::size_t bytes = 0;
  void operator()(const std::uint8_t* map) const noexcept;
};

/// A column archive's header (ODE2 or FDE1) whose magic, CRC, counts and
/// geometry checked out.
struct FrameHeader {
  std::uint64_t param = 0;  // ODE2: darknet size; FDE1: sampling rate
  std::uint64_t row_count = 0;
  std::uint64_t block_size = 0;  // rows per full block
  std::uint64_t footer_offset = 0;

  std::uint64_t block_count() const {
    return row_count == 0 ? 0 : (row_count + block_size - 1) / block_size;
  }
  /// Rows in block `k` (every block is full but the last).
  std::uint64_t block_rows(std::uint64_t k) const {
    return std::min(block_size, row_count - k * block_size);
  }
  /// Calls fn(k, lo, hi) for each block k that holds rows of the global
  /// range [begin, end): its rows [lo, hi).
  template <typename Fn>
  void for_each_slice(std::uint64_t begin, std::uint64_t end, Fn&& fn) const {
    if (begin >= end) return;
    for (std::uint64_t k = begin / block_size; k * block_size < end; ++k) {
      const std::uint64_t first = k * block_size;
      fn(static_cast<std::size_t>(k), begin > first ? begin - first : 0,
         std::min(block_rows(k), end - first));
    }
  }
};
}  // namespace detail

/// What a salvage read reports beside the rows it recovered
/// (read_events_ode2_salvage, read_flows_fde1_salvage).
struct SalvageStatus {
  std::uint64_t declared_count = 0;   // header's row count (0: bad header)
  std::uint64_t recovered_count = 0;  // rows recovered
  bool footer_intact = false;         // footer parsed and CRC-verified
  bool complete = false;              // whole file verified clean
  std::string error;                  // first error when !complete
};

class FileBytes {
 public:
  FileBytes() = default;

  /// Maps or reads `path`. On failure returns an empty owner and sets
  /// `error` to "cannot open <path>" or "short read of <path>".
  static FileBytes open(const std::string& path, std::string& error);

  /// Takes over `size` bytes built in memory (store::fde1_image), held
  /// in `words` zero-padded to a whole word: the heap form with no file
  /// behind it. std::invalid_argument when `words` is too short.
  static FileBytes adopt(std::vector<std::uint64_t> words, std::uint64_t size);

  const std::uint8_t* data() const {
    return map_ ? map_.get() : reinterpret_cast<const std::uint8_t*>(heap_.data());
  }
  std::uint64_t size() const { return size_; }
  std::span<const std::uint8_t> bytes() const {
    return {data(), static_cast<std::size_t>(size_)};
  }
  /// False when the read-into-buffer fallback holds the bytes.
  bool mapped() const { return map_ != nullptr; }

 private:
  std::unique_ptr<const std::uint8_t, detail::Unmap> map_;
  std::vector<std::uint64_t> heap_;  // the bytes when !mapped()
  std::uint64_t size_ = 0;
};

}  // namespace orion::store
