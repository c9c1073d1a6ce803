#include "orion/detect/shard_detector.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace orion::detect {

ShardDetectorSlice::ShardDetectorSlice(StreamingConfig config,
                                       std::uint64_t darknet_size)
    : config_(config), darknet_size_(darknet_size) {
  validate(config.base);
  if (darknet_size == 0) {
    throw std::invalid_argument("ShardDetectorSlice: zero darknet size");
  }
}

void ShardDetectorSlice::observe(const telescope::DarknetEvent& event) {
  if (sealed_) {
    throw std::logic_error("ShardDetectorSlice::observe after seal");
  }
  ++events_seen_;
  days_.try_emplace(event.day(), config_)
      .first->second.add(event, config_, darknet_size_);
}

void ShardDetectorSlice::seal() {
  for (auto& [day, partial] : days_) partial.seal(day, config_);
  sealed_ = true;
}

MergedDetection merge_shard_slices(
    const std::vector<const ShardDetectorSlice*>& slices) {
  MergedDetection merged;
  if (slices.empty()) return merged;
  const StreamingConfig& config = slices.front()->config();
  const std::uint64_t darknet_size = slices.front()->darknet_size();
  std::int64_t first_day = std::numeric_limits<std::int64_t>::max();
  std::int64_t last_day = std::numeric_limits<std::int64_t>::min();
  for (const ShardDetectorSlice* slice : slices) {
    if (!(slice->config() == config) ||
        slice->darknet_size() != darknet_size) {
      throw std::invalid_argument(
          "merge_shard_slices: slices disagree on configuration");
    }
    if (!slice->sealed()) {
      throw std::logic_error("merge_shard_slices: slice not sealed");
    }
    merged.events_seen += slice->events_seen();
    if (slice->days().empty()) continue;
    first_day = std::min(first_day, slice->days().begin()->first);
    last_day = std::max(last_day, slice->days().rbegin()->first);
  }

  // The slices hold every sample the rolling ones will take in: size
  // them once instead of growing them day by day.
  DayCloser closer(config);
  std::size_t packet_samples = 0;
  std::size_t port_samples = 0;
  for (const ShardDetectorSlice* slice : slices) {
    for (const auto& [day, partial] : slice->days()) {
      packet_samples += partial.packet_samples.sample_size();
      port_samples += partial.sealed->port_samples.sample_size();
    }
  }
  closer.packet_samples.reserve(packet_samples);
  closer.port_samples.reserve(port_samples);
  for (std::int64_t day = first_day; day <= last_day; ++day) {
    std::vector<const DayPartial*> partials;
    for (const ShardDetectorSlice* slice : slices) {
      const auto it = slice->days().find(day);
      if (it != slice->days().end()) partials.push_back(&it->second);
    }
    merged.days.push_back(closer.close(day, partials));
  }
  merged.ips = std::move(closer.ips);
  return merged;
}

}  // namespace orion::detect
