// CRC-32 helpers for the suites that pin serialized bytes to constants.
//
// OCP1 frames, ODE2 files and FDE1 files all end with the CRC-32 of what
// precedes them, and the CRC-32 of any message followed by its own CRC-32
// is a constant. A pin over the whole frame or file would therefore see
// only its length. These helpers hash the bytes the trailing CRC seals.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "orion/netbase/crc32.hpp"
#include "orion/telescope/checkpoint.hpp"

namespace orion::test_pins {

inline std::uint32_t crc_of(const std::string& bytes, std::size_t begin = 0,
                            std::size_t trim = 0) {
  return net::Crc32::of(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(bytes.data()) + begin,
      bytes.size() - begin - trim));
}

/// An OCP1 frame held in a std::string, as the span CheckpointReader reads.
inline std::span<const std::uint8_t> frame_bytes(const std::string& frame) {
  return {reinterpret_cast<const std::uint8_t*>(frame.data()), frame.size()};
}

/// The OCP1 frame a component's checkpoint() produces.
template <typename Component>
std::string checkpoint_bytes(Component& component) {
  telescope::CheckpointWriter writer;
  component.checkpoint(writer);
  std::vector<std::uint8_t> out;
  writer.finish(out);
  return {out.begin(), out.end()};
}

/// CRC-32 of an OCP1 frame's payload. Frame: magic(4) version(8)
/// length(8) payload crc(4).
inline std::uint32_t payload_crc(const std::string& frame) {
  return crc_of(frame, 20, 4);
}

/// CRC-32 of an ODE2 or FDE1 file without its trailing footer CRC.
inline std::uint32_t archive_crc(const std::string& file) {
  return crc_of(file, 0, 4);
}

}  // namespace orion::test_pins
