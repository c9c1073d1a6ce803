// Darknet events ("logical scans"), the unit of analysis of the whole paper:
// the activity of one source IP toward one destination port and traffic
// type, delimited by an inactivity timeout.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <functional>

#include "orion/netbase/five_tuple.hpp"
#include "orion/netbase/ipv4.hpp"
#include "orion/netbase/simtime.hpp"
#include "orion/packet/fingerprint.hpp"
#include "orion/packet/packet.hpp"

namespace orion::telescope {

/// The logical-scan key: (source IP, darknet destination port, traffic
/// type). ICMP events carry port 0.
struct EventKey {
  net::Ipv4Address src;
  std::uint16_t dst_port = 0;
  pkt::TrafficType type = pkt::TrafficType::TcpSyn;

  friend constexpr auto operator<=>(const EventKey&, const EventKey&) = default;
};

struct EventKeyHash {
  std::size_t operator()(const EventKey& k) const noexcept {
    std::uint64_t h = (std::uint64_t{k.src.value()} << 24) |
                      (std::uint64_t{k.dst_port} << 8) |
                      static_cast<std::uint64_t>(k.type);
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
    return static_cast<std::size_t>(h ^ (h >> 31));
  }
};

/// Per-tool packet attribution recorded on every event (drives Figure 4).
using ToolPackets = std::array<std::uint64_t, 4>;  // indexed by ScanTool

constexpr std::size_t tool_index(pkt::ScanTool t) {
  return static_cast<std::size_t>(t);
}

/// A completed darknet event. `unique_dests` is the exact number of
/// distinct dark-space addresses the event touched, never more than the
/// darknet size, so dispersion() is at most 1.
struct DarknetEvent {
  EventKey key;
  net::SimTime start;
  net::SimTime end;
  std::uint64_t packets = 0;
  std::uint64_t unique_dests = 0;
  ToolPackets packets_by_tool{};

  /// Fraction of the dark space touched — Definition 1's statistic.
  double dispersion(std::uint64_t darknet_size) const {
    return darknet_size == 0 ? 0.0
                             : static_cast<double>(unique_dests) /
                                   static_cast<double>(darknet_size);
  }

  /// The tool that contributed the most packets.
  pkt::ScanTool dominant_tool() const;

  /// Zero-based scenario day the event is attributed to (its start day) —
  /// the paper computes daily statistics from event start times.
  std::int64_t day() const { return start.day(); }

  friend bool operator==(const DarknetEvent&, const DarknetEvent&) = default;
};

/// The event dataset's total order, (start, key): unique, since a key has
/// at most one live event at a time, so a sorted list does not depend on
/// the order the events were emitted in.
inline bool start_key_less(const DarknetEvent& a, const DarknetEvent& b) {
  if (a.start != b.start) return a.start < b.start;
  return a.key < b.key;
}

using EventSink = std::function<void(const DarknetEvent&)>;

}  // namespace orion::telescope
