// Per-shard slice of the streaming AH detector, and the deterministic
// merge that recombines slices into exactly the serial detector's output.
//
// Why this decomposes: every quantity StreamingDetector tracks per day is
// keyed by source IP (D1 qualifiers, per-source packet maxima for D2,
// per-source distinct-port sets for D3), so a hash-of-source partition
// puts each source's whole state in one shard. The only cross-source
// state — the rolling ECDF samples behind the D2/D3 thresholds — is kept
// as bottom-k samples, which merge exactly (stats/bottomk.hpp). A slice
// therefore never calibrates or publishes anything; it folds events into
// per-day DayPartials in ANY order, its owner seals them after the last
// event (in the pipeline, each shard worker at its stop batch, in
// parallel), and merge_shard_slices closes every day with the serial
// detector's DayCloser, producing StreamingDayResults
// byte-identical to a serial StreamingDetector fed the same events in
// start order — for any shard count and any interleaving (DESIGN.md §9).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "orion/detect/streaming.hpp"

namespace orion::detect {

class ShardDetectorSlice {
 public:
  ShardDetectorSlice(StreamingConfig config, std::uint64_t darknet_size);

  /// Feeds one closed event. Order does not matter — state is bucketed by
  /// the event's start day and order-independent within a day. Throws
  /// std::logic_error once the slice is sealed.
  void observe(const telescope::DarknetEvent& event);

  /// Seals every day's partial for merge_shard_slices: the slice's last
  /// step, run by the shard's owner after its last event.
  void seal();
  bool sealed() const { return sealed_; }

  std::uint64_t events_seen() const { return events_seen_; }
  const StreamingConfig& config() const { return config_; }
  std::uint64_t darknet_size() const { return darknet_size_; }

  /// Days this shard saw events for, in day order.
  const std::map<std::int64_t, DayPartial>& days() const { return days_; }

  /// Snapshots the slice (config-echoed, sorted/byte-deterministic);
  /// restore rejects a mismatched configuration or darknet size. A sealed
  /// slice has no live tables left to snapshot (std::logic_error).
  void checkpoint(telescope::CheckpointWriter& writer) const;
  void restore(telescope::CheckpointReader& reader);

 private:
  StreamingConfig config_;
  std::uint64_t darknet_size_;
  std::map<std::int64_t, DayPartial> days_;
  std::uint64_t events_seen_ = 0;
  bool sealed_ = false;
};

/// The merged detection output: what a serial StreamingDetector would
/// have returned from observe()/finish() plus its cumulative AH sets.
struct MergedDetection {
  std::vector<StreamingDayResult> days;
  std::array<IpSet, 3> ips;
  std::uint64_t events_seen = 0;
};

/// Deterministically merges sealed shard slices (which must share config
/// and darknet size — std::invalid_argument otherwise). Runs the serial
/// day-close schedule: every day from the earliest to the latest seen,
/// empty ones included, closes over that day's per-shard partials.
MergedDetection merge_shard_slices(
    const std::vector<const ShardDetectorSlice*>& slices);

}  // namespace orion::detect
