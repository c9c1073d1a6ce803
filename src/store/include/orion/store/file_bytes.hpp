// FileBytes — the read-only bytes of one archive, and their owner.
//
// A file is mmapped where the platform allows, else read whole into an
// 8-aligned heap buffer, so typed column spans over the bytes work either
// way (the ODE2/FDE1 alignment invariant, store/ode2.hpp); an archive
// image built in memory takes the heap form directly (adopt). Both mapped
// stores and both salvage readers get their bytes here. Moves are the
// defaulted ones: the mapping is released by its one owner.
#pragma once

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
}  // namespace detail

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
