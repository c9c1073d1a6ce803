// The paper's core contribution: identification of aggressive Internet-wide
// scanners ("aggressive hitters", AH) from darknet events, under three
// definitions (Section 3):
//   #1 Address dispersion — an event touches >= 10% of the dark IP space.
//   #2 Packet volume      — an event's packets exceed the top-alpha
//                           quantile of the per-event packet ECDF.
//   #3 Distinct ports     — a source's distinct darknet ports in one day
//                           exceed the top-alpha quantile of the daily
//                           port-count ECDF.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "orion/netbase/ipv4.hpp"
#include "orion/telescope/capture.hpp"
#include "orion/telescope/event.hpp"

namespace orion::store {
class MappedEventStore;
}

namespace orion::detect {

enum class Definition : std::uint8_t {
  AddressDispersion = 0,
  PacketVolume = 1,
  DistinctPorts = 2,
};

constexpr std::array<Definition, 3> kAllDefinitions = {
    Definition::AddressDispersion, Definition::PacketVolume,
    Definition::DistinctPorts};

constexpr const char* to_string(Definition d) {
  switch (d) {
    case Definition::AddressDispersion: return "D1 (address dispersion)";
    case Definition::PacketVolume: return "D2 (packet volume)";
    case Definition::DistinctPorts: return "D3 (distinct ports)";
  }
  return "?";
}

struct DetectorConfig {
  double dispersion_threshold = 0.10;  // Definition 1: fraction of dark IPs
  double packet_volume_alpha = 1e-4;   // Definition 2: ECDF tail mass
  double port_count_alpha = 1e-4;      // Definition 3: ECDF tail mass

  friend constexpr bool operator==(const DetectorConfig&,
                                   const DetectorConfig&) = default;
};

/// Throws std::invalid_argument unless 0 < dispersion_threshold <= 1 and
/// both alphas lie in (0, 1); a NaN field fails. Every detector
/// constructor (batch, streaming, shard slice) calls it.
void validate(const DetectorConfig& config);

using IpSet = std::unordered_set<net::Ipv4Address>;

/// Per-definition detection output, including the per-day accounting used
/// by Figure 3 and the flow joins.
struct DefinitionResult {
  IpSet ips;  // all AH under this definition, dataset-wide
  /// Calibrated threshold: packets/event for D2, ports/day for D3,
  /// unused (0) for D1 whose threshold is the scale-free 10% rule.
  std::uint64_t threshold = 0;
  std::uint64_t qualifying_events = 0;

  /// Day-indexed vectors (index = day - first_day, one slot per day of the
  /// dataset window). "daily" AH started qualifying that day; "active" AH
  /// have a qualifying event interval covering the day.
  std::vector<std::vector<net::Ipv4Address>> daily;   // sorted, unique
  std::vector<std::vector<net::Ipv4Address>> active;  // sorted, unique
  /// Packets sent (to the darknet) on each day by that day's daily AH —
  /// the paper can only compute packet statistics for daily scanners.
  std::vector<std::uint64_t> daily_ah_packets;

  double mean_daily_count() const;
  double mean_active_count() const;
};

struct DetectionResult {
  std::array<DefinitionResult, 3> by_definition;
  std::int64_t first_day = 0;
  std::int64_t last_day = -1;
  /// Total darknet scanning packets per day (denominator of Fig 3 right,
  /// before non-scanning noise is added by the caller).
  std::vector<std::uint64_t> total_event_packets_per_day;
  std::uint64_t total_events = 0;
  std::uint64_t darknet_size = 0;

  const DefinitionResult& of(Definition d) const {
    return by_definition[static_cast<std::size_t>(d)];
  }
  DefinitionResult& of(Definition d) {
    return by_definition[static_cast<std::size_t>(d)];
  }
};

class AggressiveScannerDetector {
 public:
  explicit AggressiveScannerDetector(DetectorConfig config = {});

  /// Runs all three definitions over a dataset. Threshold calibration
  /// (ECDF quantiles) and detection happen on the same dataset, exactly as
  /// in the paper.
  DetectionResult detect(const telescope::EventDataset& dataset) const;

  /// Same algorithm fed by zero-copy column scans of an mmap'ed ODE2
  /// archive — no per-event materialization. Produces a result identical
  /// to detecting on the materialized dataset (tests/store_test.cpp).
  DetectionResult detect(const store::MappedEventStore& store) const;

  const DetectorConfig& config() const { return config_; }

 private:
  DetectorConfig config_;
};

}  // namespace orion::detect
