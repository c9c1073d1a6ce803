// Internal ODE2 byte-layout helpers shared by the writer and salvage
// reader (ode2.cpp) and the mapped reader (mapped.cpp), including the one
// header parse and the one footer parse both readers call. Not installed.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "orion/store/mapped.hpp"

namespace orion::store::detail {

// The zero-copy contract: column bytes are reinterpreted as host
// integers, so the on-disk little-endian layout must be the host layout.
// (The portable fallback in file_bytes.cpp covers hosts without mmap, not
// big-endian hosts — those would need a byte-swapping decode pass.)
static_assert(std::endian::native == std::endian::little,
              "ODE2 zero-copy reads require a little-endian host");

inline std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline std::int64_t get_i64(const std::uint8_t* p) {
  std::int64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

template <typename T>
void append(std::vector<std::uint8_t>& out, T v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &v, sizeof(T));
}

/// Stores `v` as row `row` of the column of `T`s that starts at byte
/// `column` of `block`: the in-place form of append's native-endian copy.
template <typename T>
void put(std::uint8_t* block, std::uint64_t column, std::uint64_t row, T v) {
  std::memcpy(block + column + row * sizeof(T), &v, sizeof(T));
}

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

constexpr std::uint64_t kMaxEventCount = std::uint64_t{1} << 27;  // ~9 GB of rows
constexpr std::uint64_t kMaxBlockEvents = std::uint64_t{1} << 24;

/// Where the footer of `n` rows cut into blocks of `b` starts.
inline std::uint64_t ode2_footer_offset(std::uint64_t n, std::uint64_t b) {
  return kOde2HeaderBytes + n / b * ode2_block_bytes(b) +
         (n % b ? ode2_block_bytes(n % b) : 0);
}

/// Sets `error` and returns false: the parse functions' failure exit.
inline bool reject(std::string& error, const char* why) {
  error = why;
  return false;
}

/// Checks an ODE2 file's magic, header CRC, counts and geometry into
/// `header`. Returns false with the reason in `error` (unprefixed; the
/// strict open throws it, salvage reports it) instead of throwing.
bool parse_ode2_header(std::span<const std::uint8_t> file, Ode2Header& header,
                       std::string& error);

/// Checks the footer `header` locates — its extent, CRC, day window,
/// day index and block metadata — into `footer`; false with `error` as
/// above. Every count is bounded before it sizes arithmetic or memory.
bool parse_ode2_footer(std::span<const std::uint8_t> file,
                       const Ode2Header& header, Ode2Footer& footer,
                       std::string& error);

/// The column spans of a block of `rows` rows whose first byte is `base`
/// (8-aligned) and whose row 0 is global row `first_row`.
BlockView ode2_block_view(const std::uint8_t* base, std::uint64_t rows,
                          std::size_t first_row);

}  // namespace orion::store::detail
