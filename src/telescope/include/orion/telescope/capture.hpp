// Telescope capture façade: aggregator + dataset-level counters, i.e. the
// "ORION NT" box of the paper, and the event-dataset container the
// detection/characterization layers consume.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "orion/netbase/prefix.hpp"
#include "orion/telescope/aggregator.hpp"
#include "orion/telescope/event.hpp"

namespace orion::telescope {

/// An immutable collection of darknet events plus the darknet context,
/// corresponding to one of the paper's datasets (Darknet-1, Darknet-2).
class EventDataset {
 public:
  EventDataset(std::vector<DarknetEvent> events, std::uint64_t darknet_size);

  const std::vector<DarknetEvent>& events() const { return events_; }
  std::uint64_t darknet_size() const { return darknet_size_; }

  std::size_t event_count() const { return events_.size(); }
  std::uint64_t total_packets() const { return total_packets_; }
  std::size_t unique_sources() const { return unique_sources_; }
  std::int64_t first_day() const { return first_day_; }
  std::int64_t last_day() const { return last_day_; }

 private:
  std::vector<DarknetEvent> events_;  // sorted by start time
  std::uint64_t darknet_size_;
  std::uint64_t total_packets_ = 0;
  std::size_t unique_sources_ = 0;
  std::int64_t first_day_ = 0;
  std::int64_t last_day_ = -1;
};

/// Live capture front-end: feed packets, read counters, take the dataset.
class TelescopeCapture {
 public:
  TelescopeCapture(net::PrefixSet dark_space, AggregatorConfig config);

  /// Feeds one packet; a rejected one (timestamp regression) leaves the
  /// capture unchanged.
  void observe(const pkt::Packet& packet);
  /// Batched equivalent of observe() — identical state for any batch size
  /// (the per-record work is delegated to EventAggregator::observe_batch).
  /// On an invalid batch (timestamp regression) nothing is applied.
  void observe_batch(const pkt::PacketBatch& batch);
  /// Closes all live events and returns the accumulated dataset.
  EventDataset finish();

  std::uint64_t packets_captured() const { return packets_captured_; }
  std::size_t unique_sources() const { return sources_.size(); }
  const EventAggregator& aggregator() const { return aggregator_; }

  /// Snapshots the whole capture (aggregator state, collected-but-not-
  /// taken events, source set, counters). A capture restored from the
  /// snapshot finishes with a dataset identical to an uninterrupted run.
  void checkpoint(CheckpointWriter& writer) const;
  void restore(CheckpointReader& reader);

 private:
  EventCollector collector_;
  EventAggregator aggregator_;
  std::uint64_t darknet_size_;
  std::uint64_t packets_captured_ = 0;
  std::unordered_set<net::Ipv4Address> sources_;
};

}  // namespace orion::telescope
