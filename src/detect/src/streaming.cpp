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

/// The port-count sampler; its seed is derived so its ranks differ from
/// the packet sampler's.
stats::BottomKSampler port_sampler(const StreamingConfig& config) {
  return stats::BottomKSampler(config.ecdf_reservoir, config.seed ^ 0xF00Dull);
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
    ports.try_emplace(event.key.src).first->insert(event.key.dst_port);
  }
  if (event.dispersion(darknet_size) >= config.base.dispersion_threshold) {
    d1.insert(event.key.src);
  }
  std::uint64_t& best = *best_packets.try_emplace(event.key.src, 0).first;
  best = std::max(best, event.packets);
}

void DayPartial::seal(std::int64_t day, const StreamingConfig& config) {
  if (sealed) return;
  Sealed& out = sealed.emplace(Sealed{{}, {}, {}, port_sampler(config)});
  out.d1.assign(d1.begin(), d1.end());
  std::sort(out.d1.begin(), out.d1.end());
  out.best_packets.reserve(best_packets.size());
  best_packets.for_each([&](net::Ipv4Address src, std::uint64_t packets) {
    out.best_packets.emplace_back(packets, src);
  });
  out.port_counts.reserve(ports.size());
  ports.for_each([&](net::Ipv4Address src, const PortSet& set) {
    out.port_counts.emplace_back(set.size(), src);
    // Sample identity (day, src): the same across any source partition.
    out.port_samples.add(static_cast<std::uint64_t>(day), src.value(), set.size());
  });
  const auto ranked = [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  };
  std::sort(out.best_packets.begin(), out.best_packets.end(), ranked);
  std::sort(out.port_counts.begin(), out.port_counts.end(), ranked);
  d1 = {};
  best_packets = {};
  ports = {};
}

DayCloser::DayCloser(const StreamingConfig& config)
    : config(config),
      packet_samples(config.ecdf_reservoir, config.seed),
      port_samples(port_sampler(config)) {}

StreamingDayResult DayCloser::close(std::int64_t day,
                                    const std::vector<const DayPartial*>& partials) {
  StreamingDayResult result;
  result.day = day;
  for (const DayPartial* partial : partials) {
    if (!partial->sealed) {
      throw std::logic_error("DayCloser::close: day partial not sealed");
    }
    packet_samples.merge(partial->packet_samples);
  }
  result.calibrated = packet_samples.seen() >= config.warmup_samples;
  if (result.calibrated) {
    // One selection per threshold: the sample grows all window long and
    // only one order statistic of it is read each day.
    result.packet_threshold =
        packet_samples.top_alpha_threshold(config.base.packet_volume_alpha);
    if (port_samples.seen() > 0) {
      result.port_threshold =
          port_samples.top_alpha_threshold(config.base.port_count_alpha);
    }
    auto& [d1, d2, d3] = result.daily;
    for (const DayPartial* partial : partials) {
      const DayPartial::Sealed& day_rows = *partial->sealed;
      d1.insert(d1.end(), day_rows.d1.begin(), day_rows.d1.end());
      for (const auto& [packets, src] : day_rows.best_packets) {
        if (packets <= result.packet_threshold) break;
        d2.push_back(src);
      }
      if (result.port_threshold == 0) continue;
      for (const auto& [ports, src] : day_rows.port_counts) {
        if (ports < result.port_threshold) break;
        d3.push_back(src);
      }
    }
    for (std::size_t d = 0; d < 3; ++d) {
      std::sort(result.daily[d].begin(), result.daily[d].end());
      ips[d].insert(result.daily[d].begin(), result.daily[d].end());
    }
  }
  for (const DayPartial* partial : partials) {
    port_samples.merge(partial->sealed->port_samples);
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
    open_.seal(current_day_, closer_.config);
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
  open_.seal(current_day_, closer_.config);
  StreamingDayResult result = closer_.close(current_day_, {&open_});
  open_ = DayPartial(closer_.config);
  return result;
}

}  // namespace orion::detect
