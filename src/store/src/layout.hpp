// ODE2's own side of the frame (frame.hpp), shared by the writer and
// salvage reader (ode2.cpp) and the mapped reader (mapped.cpp): its
// schema, its column layout and its footer parse. Not installed.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "frame.hpp"
#include "orion/store/mapped.hpp"

namespace orion::store::detail {

static_assert(kOde2HeaderBytes == kHeaderBytes);
inline constexpr Schema kOde2{{'O', 'D', 'E', '2'}, &ode2_block_bytes,
                              kOde2BlockMetaBytes, "event", "ode2 store"};

/// Byte offsets of each column inside a block of `m` rows.
struct ColumnLayout {
  std::uint64_t start, end, packets, dests, tool[4], src, port, type;

  constexpr explicit ColumnLayout(std::uint64_t m)
      : start(0),
        end(8 * m),
        packets(16 * m),
        dests(24 * m),
        tool{32 * m, 40 * m, 48 * m, 56 * m},
        src(64 * m),
        port(68 * m),
        type(70 * m) {}
};

/// Checks the footer `header` locates — its extent, CRC, day window,
/// day index and block metadata — into `footer`; false with the reason in
/// `error`, as parse_header. Every count is bounded before it sizes
/// arithmetic or memory.
bool parse_ode2_footer(std::span<const std::uint8_t> file,
                       const FrameHeader& header, Ode2Footer& footer,
                       std::string& error);

/// The column spans of a block of `rows` rows whose first byte is `base`
/// (8-aligned) and whose row 0 is global row `first_row`.
BlockView ode2_block_view(const std::uint8_t* base, std::uint64_t rows,
                          std::size_t first_row);

}  // namespace orion::store::detail
