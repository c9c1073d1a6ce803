// Online AH detection for live telescope deployments.
//
// The batch AggressiveScannerDetector calibrates its ECDF thresholds over
// the whole dataset — fine for retrospective studies, impossible for the
// daily published lists the paper proposes. StreamingDetector consumes
// events in start-time order, keeps bounded-memory rolling ECDFs over
// months of traffic, and emits each day's list using only thresholds
// calibrated on data seen BEFORE that day ends.
//
// The D1–D3 day rule exists once, as two pieces that the serial detector
// and the sharded merge (shard_detector.hpp) both use: DayPartial folds a
// day's events and is sealed by its owner once the day is over, and
// DayCloser turns a closed day's sealed partials into its published
// result. The rolling ECDFs are bottom-k samples
// (stats/bottomk.hpp), not reservoirs: a bottom-k sample is a pure
// function of the events seen, so per-day and per-shard samples merge
// into exactly the sample one serial pass draws — the root of the
// pipeline's byte-identical-results guarantee (DESIGN.md §9).
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "orion/detect/detector.hpp"
#include "orion/detect/port_set.hpp"
#include "orion/netbase/flat_map.hpp"
#include "orion/stats/bottomk.hpp"
#include "orion/telescope/event.hpp"

namespace orion::telescope {
class CheckpointReader;
class CheckpointWriter;
}  // namespace orion::telescope

namespace orion::detect {

struct StreamingConfig {
  DetectorConfig base;
  /// Bottom-k sample capacity for each rolling ECDF.
  std::size_t ecdf_reservoir = 200000;
  /// Days emit no list until this many packet samples accumulated
  /// (threshold estimates are garbage on a cold start).
  std::uint64_t warmup_samples = 5000;
  std::uint64_t seed = 71;
  /// Live-deployment hardening: an event whose start day precedes the
  /// open day is folded into the open day (and counted in
  /// late_events_folded()) instead of throwing. Off by default — batch
  /// replays of sorted datasets should still fail loudly on disorder.
  bool tolerate_late_events = false;

  friend constexpr bool operator==(const StreamingConfig&,
                                   const StreamingConfig&) = default;
};

/// One emitted day of results.
struct StreamingDayResult {
  std::int64_t day = 0;
  bool calibrated = false;  // false during warm-up: lists withheld
  /// Per definition: the sources that newly qualified this day.
  std::array<std::vector<net::Ipv4Address>, 3> daily;
  /// Thresholds in force when the day closed (D2 packets, D3 ports).
  std::uint64_t packet_threshold = 0;
  std::uint64_t port_threshold = 0;

  friend bool operator==(const StreamingDayResult&,
                         const StreamingDayResult&) = default;
};

/// One day's fold of its events. Every field is keyed by source (or is a
/// bottom-k sample), so the fold is order-independent and a source
/// partition splits it into disjoint partials. Its owner seals it once,
/// after the day's last event: seal() turns the live tables into the
/// compact form DayCloser::close reads, and releases them.
struct DayPartial {
  /// (count, source) rows, count descending then source ascending: a
  /// day list is the prefix of its table above the threshold.
  using Ranked = std::vector<std::pair<std::uint64_t, net::Ipv4Address>>;

  /// What close() reads of a sealed day.
  struct Sealed {
    std::vector<net::Ipv4Address> d1;  // ascending
    Ranked best_packets;               // each source's max event packets
    Ranked port_counts;                // each source's distinct ports
    /// The day's port-count samples, identity (day, source): a bottom-k
    /// partial of DayCloser::port_samples.
    stats::BottomKSampler port_samples;
  };

  /// D1 qualifiers (dispersion is scale-free: decidable per event).
  IpSet d1;
  /// Per-source max event packets — D2 candidates for the day. Flat
  /// tables: the checkpoint and the seal walk them whole.
  net::FlatMap<net::Ipv4Address, std::uint64_t> best_packets;
  /// Per-source distinct darknet ports — D3 candidates for the day.
  net::FlatMap<net::Ipv4Address, PortSet> ports;
  /// The day's per-event packet-volume samples. Day-local truncation to
  /// k is lossless: an entry outside its own day's bottom-k is outside
  /// every cumulative bottom-k that includes that day.
  stats::BottomKSampler packet_samples;
  /// Set by seal(); the three live tables above are empty from then on.
  std::optional<Sealed> sealed;

  explicit DayPartial(const StreamingConfig& config);

  /// Folds one event: the D1 dispersion test, the source's max packets
  /// and port set, and the event's packet sample.
  void add(const telescope::DarknetEvent& event, const StreamingConfig& config,
           std::uint64_t darknet_size);

  /// Seals the partial of `day` (no-op when already sealed).
  void seal(std::int64_t day, const StreamingConfig& config);
};

/// What outlives a day: the rolling packet-volume and port-count samples
/// behind the D2/D3 thresholds, and the cumulative AH sets.
struct DayCloser {
  StreamingConfig config;
  stats::BottomKSampler packet_samples;
  stats::BottomKSampler port_samples;
  std::array<IpSet, 3> ips;

  explicit DayCloser(const StreamingConfig& config);

  /// Closes `day` over sealed partials with disjoint sources: merges
  /// their packet samples into the rolling sample (today's events inform
  /// today's threshold — the list is published after the day ends),
  /// calibrates, takes the D1–D3 lists and sorts them, then merges the
  /// day's port-count samples in for later days' thresholds. An unsealed
  /// partial throws std::logic_error.
  StreamingDayResult close(std::int64_t day,
                           const std::vector<const DayPartial*>& partials);
};

class StreamingDetector {
 public:
  StreamingDetector(StreamingConfig config, std::uint64_t darknet_size);

  /// Feeds one event (events must arrive ordered by start time; a
  /// regression throws std::invalid_argument). Returns the completed
  /// day's result whenever the event's start crosses a day boundary.
  std::vector<StreamingDayResult> observe(const telescope::DarknetEvent& event);

  /// Flushes the final partial day.
  std::optional<StreamingDayResult> finish();

  /// Dataset-wide AH so far, per definition.
  const IpSet& ips(Definition d) const {
    return closer_.ips[static_cast<std::size_t>(d)];
  }
  std::uint64_t events_seen() const { return events_seen_; }
  /// Late events folded into the open day (tolerate_late_events mode).
  std::uint64_t late_events_folded() const { return late_events_folded_; }

  /// Snapshots the full detector state — bottom-k ECDF samples, the open
  /// day's working sets, cumulative AH sets — so a killed deployment
  /// resumes and publishes daily lists identical to an uninterrupted
  /// run. Restore verifies the snapshot was taken under the same
  /// configuration and darknet size (std::runtime_error otherwise).
  /// Snapshots are byte-deterministic: all tables serialize in sorted
  /// key order.
  void checkpoint(telescope::CheckpointWriter& writer) const;
  void restore(telescope::CheckpointReader& reader);

 private:
  std::uint64_t darknet_size_;
  DayCloser closer_;
  DayPartial open_;
  bool day_open_ = false;
  std::int64_t current_day_ = 0;
  std::uint64_t events_seen_ = 0;
  std::uint64_t late_events_folded_ = 0;
};

}  // namespace orion::detect
