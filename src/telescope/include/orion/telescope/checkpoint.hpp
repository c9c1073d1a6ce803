// Checkpoint container: the versioned, CRC-guarded binary envelope every
// live-pipeline component snapshots into ("OCP1" format). A killed
// process restores from the latest snapshot and resumes with state
// identical to the moment of the snapshot — the crash-resume equivalence
// tests pin that daily AH lists come out byte-identical.
//
// Wire layout (little-endian):
//   magic   "OCP1"                     4 bytes
//   version u64                        (currently 1)
//   length  u64                        payload bytes
//   payload length bytes               component sections, see below
//   crc     u32                        CRC-32 (IEEE) of the payload
//
// Components write a 4-char section tag (as a u64) followed by their own
// fields, so a reader immediately detects a snapshot being restored into
// the wrong component. Static configuration (timeouts, thresholds,
// reservoir capacities) is echoed into the payload and verified against
// the restoring object's configuration: resuming under a different
// configuration would silently change results, so it is an error.
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "orion/netbase/io.hpp"
#include "orion/telescope/event.hpp"

namespace orion::telescope {

/// Thrown when a snapshot's configuration echo (timeouts, thresholds,
/// shard counts, seeds...) does not match the restoring component's
/// configuration. Distinct from generic corruption so callers (e.g.
/// live_monitor --resume) can tell the operator "your flags changed"
/// instead of "checkpoint corrupt" — resuming under a different
/// configuration would silently change results, so it is refused.
class ConfigMismatchError : public std::runtime_error {
 public:
  explicit ConfigMismatchError(const std::string& what)
      : std::runtime_error("checkpoint: " + what) {}
};

/// Packs a 4-character section tag into the u64 the container stores.
constexpr std::uint64_t checkpoint_tag(char a, char b, char c, char d) {
  return std::uint64_t{static_cast<unsigned char>(a)} |
         std::uint64_t{static_cast<unsigned char>(b)} << 8 |
         std::uint64_t{static_cast<unsigned char>(c)} << 16 |
         std::uint64_t{static_cast<unsigned char>(d)} << 24;
}

/// Accumulates a snapshot payload in memory, then streams the framed,
/// CRC-trailed container: header, payload chunks, trailer. The trailer
/// is written last and readers check length and CRC before serving a
/// field, so a torn write can only lose the snapshot, never yield a
/// silently-wrong one.
///
/// The payload is a list of chunks. Fields are appended in place to the
/// open chunk; a full chunk is sealed and a twice-larger one opened, so
/// a growing payload is never copied, and splice() adopts another
/// writer's chunks whole (the pipeline's shard workers write their
/// sections in parallel and the dispatcher splices them in shard order).
class CheckpointWriter {
 public:
  void u64(std::uint64_t v) {
    if (capacity_ - used_ < 8) open_chunk(8);
    store_u64(open_.get() + used_, v);
    used_ += 8;
  }
  /// The same bytes as u64() per value, appended in one copy.
  void u64s(std::span<const std::uint64_t> values);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void u8(std::uint8_t v) {
    if (capacity_ == used_) open_chunk(1);
    open_[used_++] = v;
  }
  void bytes(std::span<const std::uint8_t> data);
  void tag(std::uint64_t section_tag) { u64(section_tag); }

  /// Appends `other`'s payload by adopting its chunks, without copying
  /// them. `other` is left empty.
  void splice(CheckpointWriter&& other);

  /// Writes the container through the io::File seam; returns total bytes
  /// written. One counted write syscall for the header, one per payload
  /// chunk and one for the trailer, errors as net::io::IoError. The one
  /// path by which a checkpoint reaches a file.
  std::uint64_t finish(net::io::File& out) const;

  /// Appends the container to `out`: an in-memory frame for a
  /// CheckpointReader over a byte span.
  std::uint64_t finish(std::vector<std::uint8_t>& out) const;

  std::size_t payload_size() const { return sealed_bytes_ + used_; }

 private:
  struct Chunk {
    std::unique_ptr<std::uint8_t[]> bytes;
    std::size_t size = 0;
  };

  static void store_u64(std::uint8_t* p, std::uint64_t v) {
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(p, &v, 8);
    } else {
      for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
  /// Seals the open chunk and opens one with room for `need` more bytes.
  void open_chunk(std::size_t need);
  /// Seals the open chunk (if it holds anything) onto chunks_.
  void seal();
  /// Calls write(span) for the header, each chunk and the trailer.
  template <typename Write>
  std::uint64_t stream(Write&& write) const;

  std::vector<Chunk> chunks_;  // sealed, in payload order, before open_
  std::size_t sealed_bytes_ = 0;
  std::unique_ptr<std::uint8_t[]> open_;
  std::size_t used_ = 0;
  std::size_t capacity_ = 0;
};

/// Reads and validates a whole container up front (magic, version,
/// length, CRC), then serves typed reads from the verified payload.
/// Every failure mode — truncation, bad magic, version or CRC mismatch,
/// reading past the payload, a wrong section tag — throws
/// std::runtime_error with context.
class CheckpointReader {
 public:
  /// Validates the container at the front of `frame` and serves fields
  /// from it in place: `frame` must outlive the reader.
  explicit CheckpointReader(std::span<const std::uint8_t> frame);

  std::uint64_t u64(const char* what);
  std::int64_t i64(const char* what) {
    return static_cast<std::int64_t>(u64(what));
  }

  /// Reads a u64 field that holds a narrower value (an address, a port)
  /// and throws unless it fits in T: the one read for every such field,
  /// so no lie is truncated into a different, valid-looking value.
  template <std::unsigned_integral T>
  T narrow(const char* what) {
    const std::uint64_t v = u64(what);
    if (v > std::numeric_limits<T>::max()) {
      fail(std::string("field out of range: ") + what);
    }
    return static_cast<T>(v);
  }

  /// Reads the next key of a list its writer emits strictly ascending
  /// (as narrow<T>) and throws unless it is above `prev`, the list's
  /// previous key (none before the first): a repeat would restore two
  /// entries as one.
  template <std::unsigned_integral T>
  T ascending(std::optional<T> prev, const char* what) {
    const T key = narrow<T>(what);
    if (prev && key <= *prev) fail(std::string("not strictly ascending: ") + what);
    return key;
  }
  double f64(const char* what);
  std::uint8_t u8(const char* what);
  std::vector<std::uint8_t> bytes(std::size_t n, const char* what);

  /// Reads an element count and throws unless that many entries of at
  /// least `min_entry_bytes` each fit in the unread payload, so a lying
  /// count fails here instead of sizing an allocation.
  std::uint64_t count(const char* what, std::size_t min_entry_bytes);

  /// Reads a section tag and throws unless it matches `expected`.
  void expect_tag(std::uint64_t expected, const char* component);

  /// True once the payload is fully consumed.
  bool done() const { return pos_ == payload_.size(); }
  std::size_t remaining() const { return payload_.size() - pos_; }

 private:
  [[noreturn]] void fail(const std::string& why) const;

  std::span<const std::uint8_t> payload_;
  std::size_t pos_ = 0;
};

/// The DarknetEvent list codec shared by every section that snapshots
/// closed events (CAP1, PPL2, SSH1): a count, then each event's fields.
void put_events(CheckpointWriter& writer, const std::vector<DarknetEvent>& events);
std::vector<DarknetEvent> get_events(CheckpointReader& reader);

}  // namespace orion::telescope
