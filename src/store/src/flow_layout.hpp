// Internal FDE1 byte-layout helpers shared by the writer and salvage
// reader (fde1.cpp) and the mapped reader (mapped_flow.cpp), including the
// one header parse and the one footer parse both readers call. Not
// installed. The flow-side sibling of layout.hpp; the little-endian
// zero-copy contract asserted there covers these views too (both headers
// are store-internal).
#pragma once

#include <cstdint>

#include "layout.hpp"
#include "orion/store/mapped_flow.hpp"

namespace orion::store::detail {

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

constexpr std::uint64_t kMaxFlowCount = std::uint64_t{1} << 27;
constexpr std::uint64_t kMaxBlockFlows = std::uint64_t{1} << 24;
constexpr std::uint64_t kMaxSegmentCount = std::uint64_t{1} << 22;
/// Widest [start_day, end_day) window (~179 years). Nothing in the file
/// is sized by the window, but to_dataset() allocates a cell per
/// (router, day) of it, so a footer may not claim an unbounded one.
constexpr std::uint64_t kMaxWindowDays = std::uint64_t{1} << 16;

/// Where the footer of `n` rows cut into blocks of `b` starts.
inline std::uint64_t fde1_footer_offset(std::uint64_t n, std::uint64_t b) {
  return kFde1HeaderBytes + n / b * fde1_block_bytes(b) +
         (n % b ? fde1_block_bytes(n % b) : 0);
}

/// Checks an FDE1 file's magic, header CRC, counts and geometry into
/// `header`. Returns false with the reason in `error` (unprefixed; the
/// strict open throws it, salvage reports it) instead of throwing.
bool parse_fde1_header(std::span<const std::uint8_t> file, Fde1Header& header,
                       std::string& error);

/// Checks the footer `header` locates — its extent, CRC, day window,
/// segment index and block metadata — into `footer`; false with `error`
/// as above. Every count is bounded before it sizes arithmetic or memory.
bool parse_fde1_footer(std::span<const std::uint8_t> file,
                       const Fde1Header& header, Fde1Footer& footer,
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
