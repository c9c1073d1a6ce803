#include "orion/telescope/capture.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "orion/telescope/checkpoint.hpp"

namespace orion::telescope {

namespace {

constexpr std::uint64_t kCaptureTag = checkpoint_tag('C', 'A', 'P', '1');

/// Distinct sources by open addressing over the sources themselves (0
/// marks an empty slot; 0.0.0.0 is counted apart). The table doubles
/// whenever it is half full, so it is sized by the distinct count, far
/// below the event count, and stays in cache; no copy is sorted.
std::size_t distinct_sources(const std::vector<DarknetEvent>& events) {
  int bits = 10;
  std::vector<std::uint32_t> slots(std::size_t{1} << bits);
  std::size_t distinct = 0;
  bool zero = false;
  // Fibonacci hashing: the product's top bits pick the home slot.
  const auto insert = [&](std::uint32_t src) {
    const std::size_t mask = slots.size() - 1;
    auto slot = static_cast<std::size_t>((src * 0x9E3779B97F4A7C15ull) >> (64 - bits));
    while (slots[slot] != 0 && slots[slot] != src) slot = (slot + 1) & mask;
    if (slots[slot] != 0) return false;
    slots[slot] = src;
    return true;
  };
  for (const DarknetEvent& e : events) {
    const std::uint32_t src = e.key.src.value();
    if (src == 0) {
      zero = true;
    } else if (insert(src) && 2 * ++distinct > slots.size()) {
      std::vector<std::uint32_t> old(std::size_t{1} << ++bits);
      old.swap(slots);
      for (const std::uint32_t kept : old) {
        if (kept != 0) insert(kept);
      }
    }
  }
  return distinct + (zero ? 1 : 0);
}

}  // namespace

EventDataset::EventDataset(std::vector<DarknetEvent> events,
                           std::uint64_t darknet_size)
    : events_(std::move(events)), darknet_size_(darknet_size) {
  // Total order (start, key), which the sharded pipeline relies on for
  // byte-identical merges. Input already in it (the pipeline's merged
  // shard runs, ODE2 readers) costs one pass.
  if (!std::is_sorted(events_.begin(), events_.end(), start_key_less)) {
    std::sort(events_.begin(), events_.end(), start_key_less);
  }
  unique_sources_ = distinct_sources(events_);
  for (const DarknetEvent& e : events_) total_packets_ += e.packets;
  if (events_.empty()) return;
  first_day_ = events_.front().day();
  // Days follow starts, so the last event's is the latest (never below 0).
  last_day_ = std::max<std::int64_t>(0, events_.back().day());
}

TelescopeCapture::TelescopeCapture(net::PrefixSet dark_space,
                                   AggregatorConfig config)
    : aggregator_(dark_space, config, collector_.sink()),
      darknet_size_(dark_space.total_addresses()) {}

void TelescopeCapture::observe(const pkt::Packet& packet) {
  // Aggregator first, so a rejected packet leaves this capture untouched.
  aggregator_.observe(packet);
  ++packets_captured_;
  sources_.insert(packet.tuple.src);
}

void TelescopeCapture::observe_batch(const pkt::PacketBatch& batch) {
  // Aggregator first: it validates the whole batch before applying any
  // record, so a throw leaves this capture untouched too.
  aggregator_.observe_batch(batch);
  packets_captured_ += batch.size();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    sources_.insert(batch.src(i));
  }
}

EventDataset TelescopeCapture::finish() {
  aggregator_.finish();
  return EventDataset(collector_.take(), darknet_size_);
}

void TelescopeCapture::checkpoint(CheckpointWriter& writer) const {
  writer.tag(kCaptureTag);
  writer.u64(darknet_size_);
  writer.u64(packets_captured_);
  // Sorted: the set's iteration order depends on its insertion and rehash
  // history, which a restore does not reproduce.
  std::vector<std::uint32_t> sources;
  sources.reserve(sources_.size());
  for (const net::Ipv4Address src : sources_) sources.push_back(src.value());
  std::sort(sources.begin(), sources.end());
  writer.u64(sources.size());
  for (const std::uint32_t src : sources) writer.u64(src);
  put_events(writer, collector_.events());
  aggregator_.checkpoint(writer);
}

void TelescopeCapture::restore(CheckpointReader& reader) {
  reader.expect_tag(kCaptureTag, "TelescopeCapture");
  if (reader.u64("darknet size") != darknet_size_) {
    throw ConfigMismatchError("TelescopeCapture darknet mismatch");
  }
  packets_captured_ = reader.u64("packets captured");
  const std::uint64_t source_count = reader.count("source count", 8);
  sources_.clear();
  sources_.reserve(static_cast<std::size_t>(source_count));
  std::optional<std::uint32_t> source;
  for (std::uint64_t i = 0; i < source_count; ++i) {
    source = reader.ascending(source, "source");
    sources_.insert(net::Ipv4Address(*source));
  }
  collector_.restore(get_events(reader));
  aggregator_.restore(reader);
}

}  // namespace orion::telescope
