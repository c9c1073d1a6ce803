// Internal ODE2 byte-layout helpers shared by the writer (ode2.cpp) and
// the mapped reader (mapped.cpp). Not installed.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "orion/telescope/event.hpp"

namespace orion::store::detail {

// The zero-copy contract: column bytes are reinterpreted as host
// integers, so the on-disk little-endian layout must be the host layout.
// (The portable fallback in mapped.cpp covers hosts without mmap, not
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

/// Gathers row `i` of a block at `base` holding `m` rows into a full
/// DarknetEvent. Does NOT validate the traffic type — callers that read
/// unverified bytes (salvage) must check it first.
inline telescope::DarknetEvent decode_row(const std::uint8_t* base,
                                          std::uint64_t m, std::uint64_t i) {
  const ColumnLayout at(m);
  telescope::DarknetEvent e;
  e.key.src = net::Ipv4Address(get_u32(base + at.src + 4 * i));
  std::uint16_t port;
  std::memcpy(&port, base + at.port + 2 * i, 2);
  e.key.dst_port = port;
  e.key.type = static_cast<pkt::TrafficType>(base[at.type + i]);
  e.start = net::SimTime::at(net::Duration::nanos(get_i64(base + at.start + 8 * i)));
  e.end = net::SimTime::at(net::Duration::nanos(get_i64(base + at.end + 8 * i)));
  e.packets = get_u64(base + at.packets + 8 * i);
  e.unique_dests = get_u64(base + at.dests + 8 * i);
  for (std::size_t t = 0; t < e.packets_by_tool.size(); ++t) {
    e.packets_by_tool[t] = get_u64(base + at.tool[t] + 8 * i);
  }
  return e;
}

constexpr std::uint64_t kMaxEventCount = std::uint64_t{1} << 27;  // ~9 GB of rows
constexpr std::uint64_t kMaxBlockEvents = std::uint64_t{1} << 24;

}  // namespace orion::store::detail
