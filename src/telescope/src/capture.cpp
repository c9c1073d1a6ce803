#include "orion/telescope/capture.hpp"

#include <algorithm>
#include <vector>

#include "orion/telescope/checkpoint.hpp"

namespace orion::telescope {

namespace {

constexpr std::uint64_t kCaptureTag = checkpoint_tag('C', 'A', 'P', '1');

}  // namespace

EventDataset::EventDataset(std::vector<DarknetEvent> events,
                           std::uint64_t darknet_size)
    : events_(std::move(events)), darknet_size_(darknet_size) {
  // Total order (start, key): (start, key) is unique — one live event per
  // key at a time — so dataset order is independent of emission order,
  // which the sharded pipeline relies on for byte-identical merges.
  std::sort(events_.begin(), events_.end(),
            [](const DarknetEvent& a, const DarknetEvent& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.key < b.key;
            });
  std::vector<std::uint32_t> sources;
  sources.reserve(events_.size());
  for (const DarknetEvent& e : events_) {
    total_packets_ += e.packets;
    sources.push_back(e.key.src.value());
  }
  std::sort(sources.begin(), sources.end());
  unique_sources_ = static_cast<std::size_t>(
      std::unique(sources.begin(), sources.end()) - sources.begin());
  if (!events_.empty()) {
    first_day_ = events_.front().day();
    last_day_ = 0;
    for (const DarknetEvent& e : events_) {
      last_day_ = std::max(last_day_, e.day());
    }
  }
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
  for (std::uint64_t i = 0; i < source_count; ++i) {
    sources_.insert(net::Ipv4Address(static_cast<std::uint32_t>(reader.u64("source"))));
  }
  collector_.restore(get_events(reader));
  aggregator_.restore(reader);
}

}  // namespace orion::telescope
