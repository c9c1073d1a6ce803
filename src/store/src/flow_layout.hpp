// FDE1's own side of the frame (frame.hpp), shared by the writer and
// salvage reader (fde1.cpp) and the mapped reader (mapped_flow.cpp): its
// schema, its column layout, its segment-index bounds and its footer
// parse. Not installed.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "frame.hpp"
#include "orion/store/mapped_flow.hpp"

namespace orion::store::detail {

static_assert(kFde1HeaderBytes == kHeaderBytes);
inline constexpr Schema kFde1{{'F', 'D', 'E', '1'}, &fde1_block_bytes,
                              kFde1BlockMetaBytes, "flow", "fde1 store"};

/// Byte offsets of each flow column inside a block of `m` rows. Widest
/// columns first so every 8-byte column starts 8-aligned; the u32/u16/u8
/// tails only need their own natural alignment, which the descending
/// widths guarantee.
struct FlowColumnLayout {
  std::uint64_t ts, packets, bytes, src, dst, src_port, dst_port, router,
      proto;

  constexpr explicit FlowColumnLayout(std::uint64_t m)
      : ts(0),
        packets(8 * m),
        bytes(16 * m),
        src(24 * m),
        dst(28 * m),
        src_port(32 * m),
        dst_port(34 * m),
        router(36 * m),
        proto(38 * m) {}
};

constexpr std::uint64_t kMaxSegmentCount = std::uint64_t{1} << 22;
/// Widest [start_day, end_day) window (~179 years). Nothing in the file
/// is sized by the window, but a consumer may walk it day by day or size
/// a per-day table by it, so a footer may not claim an unbounded one (the
/// writer refuses the same windows).
constexpr std::uint64_t kMaxWindowDays = std::uint64_t{1} << 16;

/// Checks the footer `header` locates — its extent, CRC, day window,
/// segment index and block metadata — into `footer`; false with the
/// reason in `error`, as parse_header. Every count is bounded before it
/// sizes arithmetic or memory.
bool parse_fde1_footer(std::span<const std::uint8_t> file,
                       const FrameHeader& header, Fde1Footer& footer,
                       std::string& error);

/// The column spans of a block of `rows` rows whose first byte is `base`
/// (8-aligned) and whose row 0 is global row `first_row`.
FlowView fde1_block_view(const std::uint8_t* base, std::uint64_t rows,
                         std::size_t first_row);

constexpr std::int64_t kNanosPerDay = std::int64_t{86'400'000'000'000};

/// Day bucket of a flow timestamp — the same truncating division
/// SimTime::day() performs, so segment days agree with the simulator's.
constexpr std::int64_t flow_day_of(std::int64_t ts_ns) {
  return ts_ns / kNanosPerDay;
}

}  // namespace orion::store::detail
