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

#include <cstdint>
#include <iosfwd>
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

/// Accumulates a snapshot payload in memory, then writes the framed,
/// CRC-trailed container in one shot (a torn write can only lose the
/// snapshot, never yield a silently-wrong one).
class CheckpointWriter {
 public:
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void u8(std::uint8_t v) { payload_.push_back(v); }
  void bytes(std::span<const std::uint8_t> data);
  void tag(std::uint64_t section_tag) { u64(section_tag); }

  /// Frames and writes the container; returns total bytes written.
  /// Throws std::runtime_error if the stream reports a write failure
  /// (checked after an explicit flush — a buffered failure must not
  /// surface only in the ofstream destructor, which cannot throw).
  std::uint64_t finish(std::ostream& out) const;

  /// Failpoint-instrumented variant through the io::File seam: one
  /// counted write syscall for the whole frame, errors as
  /// net::io::IoError. The archive publication path for checkpoints.
  std::uint64_t finish(net::io::File& out) const;

  std::size_t payload_size() const { return payload_.size(); }

 private:
  std::vector<std::uint8_t> payload_;
};

/// Reads and validates a whole container up front (magic, version,
/// length, CRC), then serves typed reads from the verified payload.
/// Every failure mode — truncation, bad magic, version or CRC mismatch,
/// reading past the payload, a wrong section tag — throws
/// std::runtime_error with context.
class CheckpointReader {
 public:
  explicit CheckpointReader(std::istream& in);

  std::uint64_t u64(const char* what);
  std::int64_t i64(const char* what) {
    return static_cast<std::int64_t>(u64(what));
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

  std::vector<std::uint8_t> payload_;
  std::size_t pos_ = 0;
};

/// The DarknetEvent list codec shared by every section that snapshots
/// closed events (CAP1, PPL2, SSH1): a count, then each event's fields.
void put_events(CheckpointWriter& writer, const std::vector<DarknetEvent>& events);
std::vector<DarknetEvent> get_events(CheckpointReader& reader);

}  // namespace orion::telescope
