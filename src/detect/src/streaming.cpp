#include "orion/detect/streaming.hpp"

#include <algorithm>
#include <stdexcept>

#include "orion/stats/ecdf.hpp"

namespace orion::detect {

namespace {

/// Stable per-event identity that ranks packet-volume samples.
std::uint64_t packet_sample_id(const telescope::EventKey& key) {
  return (std::uint64_t{key.src.value()} << 24) |
         (std::uint64_t{key.dst_port} << 8) |
         static_cast<std::uint64_t>(key.type);
}

}  // namespace

DayPartial::DayPartial(const StreamingConfig& config)
    : packet_samples(config.ecdf_reservoir, config.seed) {}

void DayPartial::add(const telescope::DarknetEvent& event,
                     const StreamingConfig& config, std::uint64_t darknet_size) {
  packet_samples.add(packet_sample_id(event.key),
                     static_cast<std::uint64_t>(event.start.since_epoch().total_nanos()),
                     event.packets);
  if (event.key.type != pkt::TrafficType::IcmpEchoReq) {
    ports[event.key.src].insert(event.key.dst_port);
  }
  if (event.dispersion(darknet_size) >= config.base.dispersion_threshold) {
    d1.insert(event.key.src);
  }
  auto& best = best_packets[event.key.src];
  best = std::max(best, event.packets);
}

DayCloser::DayCloser(const StreamingConfig& config)
    : config(config),
      packet_samples(config.ecdf_reservoir, config.seed),
      // The port sampler's seed is derived so its ranks differ from the
      // packet sampler's.
      port_samples(config.ecdf_reservoir, config.seed ^ 0xF00Dull) {}

StreamingDayResult DayCloser::close(std::int64_t day,
                                    const std::vector<const DayPartial*>& partials) {
  StreamingDayResult result;
  result.day = day;
  for (const DayPartial* partial : partials) {
    packet_samples.merge(partial->packet_samples);
  }
  result.calibrated = packet_samples.seen() >= config.warmup_samples;
  if (result.calibrated) {
    // One selection per threshold: the sample grows all window long and
    // only one order statistic of it is read each day.
    result.packet_threshold = stats::top_alpha_threshold(
        packet_samples.values(), config.base.packet_volume_alpha);
    if (port_samples.seen() > 0) {
      result.port_threshold = stats::top_alpha_threshold(
          port_samples.values(), config.base.port_count_alpha);
    }
    auto& [d1, d2, d3] = result.daily;
    for (const DayPartial* partial : partials) {
      d1.insert(d1.end(), partial->d1.begin(), partial->d1.end());
      for (const auto& [src, packets] : partial->best_packets) {
        if (packets > result.packet_threshold) d2.push_back(src);
      }
      if (result.port_threshold == 0) continue;
      for (const auto& [src, set] : partial->ports) {
        if (set.size() >= result.port_threshold) d3.push_back(src);
      }
    }
    for (std::size_t d = 0; d < 3; ++d) {
      std::sort(result.daily[d].begin(), result.daily[d].end());
      ips[d].insert(result.daily[d].begin(), result.daily[d].end());
    }
  }
  // Sample identity (day, src): the same across any source partition.
  for (const DayPartial* partial : partials) {
    for (const auto& [src, set] : partial->ports) {
      port_samples.add(static_cast<std::uint64_t>(day), src.value(), set.size());
    }
  }
  return result;
}

StreamingDetector::StreamingDetector(StreamingConfig config,
                                     std::uint64_t darknet_size)
    : darknet_size_(darknet_size), closer_(config), open_(config) {
  validate(config.base);
  if (darknet_size == 0) {
    throw std::invalid_argument("StreamingDetector: zero darknet size");
  }
}

std::vector<StreamingDayResult> StreamingDetector::observe(
    const telescope::DarknetEvent& event) {
  std::vector<StreamingDayResult> out;
  const std::int64_t day = event.day();
  if (day_open_ && day < current_day_) {
    if (!closer_.config.tolerate_late_events) {
      throw std::invalid_argument(
          "StreamingDetector::observe: events must be day-ordered");
    }
    // Hardened live mode: the late event's day already closed (its list
    // may be published). Fold it into the open day — its samples still
    // feed the rolling ECDFs — and account for the redirect.
    ++late_events_folded_;
  } else if (!day_open_) {
    current_day_ = day;
    day_open_ = true;
  }
  for (; current_day_ < day; ++current_day_) {
    out.push_back(closer_.close(current_day_, {&open_}));
    open_ = DayPartial(closer_.config);
  }
  ++events_seen_;
  open_.add(event, closer_.config, darknet_size_);
  return out;
}

std::optional<StreamingDayResult> StreamingDetector::finish() {
  if (!day_open_) return std::nullopt;
  day_open_ = false;
  StreamingDayResult result = closer_.close(current_day_, {&open_});
  open_ = DayPartial(closer_.config);
  return result;
}

}  // namespace orion::detect
