// The SDT2 (StreamingDetector) and SDS1 (ShardDetectorSlice) checkpoint
// sections. Both echo the configuration and store day tables through the
// same helpers; every table serializes in sorted key order, so snapshots
// are byte-deterministic.
#include <algorithm>
#include <bit>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "orion/detect/shard_detector.hpp"
#include "orion/telescope/checkpoint.hpp"

namespace orion::detect {

namespace {

using telescope::CheckpointReader;
using telescope::CheckpointWriter;

constexpr std::uint64_t kDetectorTag = telescope::checkpoint_tag('S', 'D', 'T', '2');
constexpr std::uint64_t kSliceTag = telescope::checkpoint_tag('S', 'D', 'S', '1');

// Configuration echo, verified on restore: resuming under different
// thresholds or sampler parameters would silently change the lists.
void put_config(CheckpointWriter& w, const StreamingConfig& config,
                std::uint64_t darknet_size) {
  w.f64(config.base.dispersion_threshold);
  w.f64(config.base.packet_volume_alpha);
  w.f64(config.base.port_count_alpha);
  w.u64(config.ecdf_reservoir);
  w.u64(config.warmup_samples);
  w.u64(config.seed);
  w.u64(darknet_size);
}

void expect_config(CheckpointReader& r, const StreamingConfig& config,
                   std::uint64_t darknet_size, const std::string& component) {
  const auto same = [&](const char* what, double want) {
    return std::bit_cast<std::uint64_t>(r.f64(what)) ==
           std::bit_cast<std::uint64_t>(want);
  };
  const bool config_matches =
      same("dispersion threshold", config.base.dispersion_threshold) &&
      same("packet alpha", config.base.packet_volume_alpha) &&
      same("port alpha", config.base.port_count_alpha) &&
      r.u64("sampler capacity") == config.ecdf_reservoir &&
      r.u64("warmup samples") == config.warmup_samples &&
      r.u64("seed") == config.seed;
  if (!config_matches) {
    throw telescope::ConfigMismatchError(component + " configuration mismatch");
  }
  if (r.u64("darknet size") != darknet_size) {
    throw telescope::ConfigMismatchError(component + " darknet mismatch");
  }
}

void put_sampler(CheckpointWriter& w, const stats::BottomKSampler& sampler) {
  w.u64(sampler.seen());
  const auto entries = sampler.sorted_entries();
  w.u64(entries.size());
  for (const auto& e : entries) {
    w.u64(e.rank);
    w.u64(e.value);
  }
}

void get_sampler(CheckpointReader& r, stats::BottomKSampler& sampler) {
  const std::uint64_t seen = r.u64("sampler seen");
  const std::uint64_t size = r.count("sampler size", 16);
  if (size > sampler.capacity()) {
    throw std::runtime_error("checkpoint: bottom-k sample over capacity");
  }
  std::vector<stats::BottomKSampler::Entry> entries(static_cast<std::size_t>(size));
  for (auto& e : entries) {
    e.rank = r.u64("sampler rank");
    e.value = r.u64("sampler value");
  }
  sampler.restore(seen, std::move(entries));
}

void put_ip_set(CheckpointWriter& w, const IpSet& ips) {
  std::vector<net::Ipv4Address> sorted(ips.begin(), ips.end());
  std::sort(sorted.begin(), sorted.end());
  w.u64(sorted.size());
  for (const net::Ipv4Address ip : sorted) w.u64(ip.value());
}

/// Every keyed list below is written in ascending key order, so each
/// reader takes its keys through CheckpointReader::ascending.
IpSet get_ip_set(CheckpointReader& r) {
  const std::uint64_t count = r.count("ip set size", 8);
  IpSet ips;
  ips.reserve(static_cast<std::size_t>(count));
  std::optional<std::uint32_t> ip;
  for (std::uint64_t i = 0; i < count; ++i) {
    ip = r.ascending(ip, "ip");
    ips.insert(net::Ipv4Address(*ip));
  }
  return ips;
}

/// A day table's (source, entry) rows in ascending source order, sorted
/// once, so writing them looks nothing up again. Entry is the mapped
/// value or a pointer to it.
template <typename Entry, typename Map>
std::vector<std::pair<net::Ipv4Address, Entry>> rows_by_source(const Map& map) {
  std::vector<std::pair<net::Ipv4Address, Entry>> rows;
  rows.reserve(map.size());
  map.for_each([&](net::Ipv4Address src, const auto& entry) {
    if constexpr (std::is_pointer_v<Entry>) {
      rows.emplace_back(src, &entry);
    } else {
      rows.emplace_back(src, entry);
    }
  });
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return rows;
}

void put_ports(CheckpointWriter& w, const DayPartial& partial) {
  w.u64(partial.ports.size());
  for (const auto& [src, ports] : rows_by_source<const PortSet*>(partial.ports)) {
    w.u64(src.value());
    w.u64(ports->size());
    ports->for_each([&](std::uint16_t port) { w.u64(port); });
  }
}

void get_ports(CheckpointReader& r, DayPartial& partial) {
  const std::uint64_t sources = r.count("port source count", 16);
  partial.ports.reserve(static_cast<std::size_t>(sources));
  std::optional<std::uint32_t> src;
  for (std::uint64_t i = 0; i < sources; ++i) {
    src = r.ascending(src, "port source");
    const std::uint64_t port_count = r.u64("port count");
    PortSet& ports = *partial.ports.try_emplace(net::Ipv4Address(*src)).first;
    std::optional<std::uint16_t> port;
    for (std::uint64_t p = 0; p < port_count; ++p) {
      port = r.ascending(port, "port");
      ports.insert(*port);
    }
  }
}

void put_best_packets(CheckpointWriter& w, const DayPartial& partial) {
  w.u64(partial.best_packets.size());
  for (const auto& [src, packets] :
       rows_by_source<std::uint64_t>(partial.best_packets)) {
    w.u64(src.value());
    w.u64(packets);
  }
}

void get_best_packets(CheckpointReader& r, DayPartial& partial) {
  const std::uint64_t sources = r.count("best source count", 16);
  partial.best_packets.reserve(static_cast<std::size_t>(sources));
  std::optional<std::uint32_t> src;
  for (std::uint64_t i = 0; i < sources; ++i) {
    src = r.ascending(src, "best source");
    *partial.best_packets.try_emplace(net::Ipv4Address(*src), 0).first =
        r.u64("best packets");
  }
}

}  // namespace

void StreamingDetector::checkpoint(CheckpointWriter& writer) const {
  writer.tag(kDetectorTag);
  put_config(writer, closer_.config, darknet_size_);
  // SDT2 stores one packet sample: the rolling one with the open day's
  // merged in (exact for bottom-k). restore() loads it as the rolling one.
  stats::BottomKSampler packet_samples = closer_.packet_samples;
  packet_samples.merge(open_.packet_samples);
  put_sampler(writer, packet_samples);
  put_sampler(writer, closer_.port_samples);
  writer.u8(day_open_ ? 1 : 0);
  writer.i64(current_day_);
  // The open day's D1–D3 sets; D2 and D3 qualify only at the close.
  put_ip_set(writer, open_.d1);
  put_ip_set(writer, {});
  put_ip_set(writer, {});
  put_ports(writer, open_);
  put_best_packets(writer, open_);
  for (const IpSet& ips : closer_.ips) put_ip_set(writer, ips);
  writer.u64(events_seen_);
  writer.u64(late_events_folded_);
}

void StreamingDetector::restore(CheckpointReader& reader) {
  reader.expect_tag(kDetectorTag, "StreamingDetector");
  expect_config(reader, closer_.config, darknet_size_, "StreamingDetector");
  get_sampler(reader, closer_.packet_samples);
  get_sampler(reader, closer_.port_samples);
  day_open_ = reader.u8("day open") != 0;
  current_day_ = reader.i64("current day");
  open_ = DayPartial(closer_.config);
  open_.d1 = get_ip_set(reader);
  if (!get_ip_set(reader).empty() || !get_ip_set(reader).empty()) {
    throw std::runtime_error("checkpoint: open day holds D2/D3 qualifiers");
  }
  get_ports(reader, open_);
  get_best_packets(reader, open_);
  for (IpSet& ips : closer_.ips) ips = get_ip_set(reader);
  events_seen_ = reader.u64("events seen");
  late_events_folded_ = reader.u64("late events folded");
}

void ShardDetectorSlice::checkpoint(CheckpointWriter& writer) const {
  if (sealed_) {
    throw std::logic_error("ShardDetectorSlice::checkpoint after seal");
  }
  writer.tag(kSliceTag);
  put_config(writer, config_, darknet_size_);
  writer.u64(events_seen_);
  writer.u64(days_.size());
  for (const auto& [day, partial] : days_) {
    writer.i64(day);
    put_sampler(writer, partial.packet_samples);
    put_ip_set(writer, partial.d1);
    put_best_packets(writer, partial);
    put_ports(writer, partial);
  }
}

void ShardDetectorSlice::restore(CheckpointReader& reader) {
  reader.expect_tag(kSliceTag, "ShardDetectorSlice");
  expect_config(reader, config_, darknet_size_, "ShardDetectorSlice");
  events_seen_ = reader.u64("events seen");
  // A day is at least its day number, sampler header and three counts.
  const std::uint64_t day_count = reader.count("day count", 6 * 8);
  days_.clear();
  for (std::uint64_t d = 0; d < day_count; ++d) {
    const auto [it, inserted] = days_.try_emplace(reader.i64("day"), config_);
    if (!inserted) {
      throw std::runtime_error("checkpoint: duplicate slice day");
    }
    DayPartial& partial = it->second;
    get_sampler(reader, partial.packet_samples);
    partial.d1 = get_ip_set(reader);
    get_best_packets(reader, partial);
    get_ports(reader, partial);
  }
}

}  // namespace orion::detect
