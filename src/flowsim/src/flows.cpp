#include "orion/flowsim/flows.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "orion/scangen/arrivals.hpp"

namespace orion::flowsim {

FlowBatch canonical_rows(std::vector<KeyedCount> counts, std::uint16_t router,
                         std::int64_t day) {
  std::sort(counts.begin(), counts.end(),
            [](const KeyedCount& a, const KeyedCount& b) {
              return a.first < b.first;
            });
  std::size_t keys = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    keys += i == 0 || counts[i].first != counts[i - 1].first;
  }
  FlowBatch rows(keys);
  FlowRecord row;
  row.ts_ns = day * std::int64_t{86'400} * std::int64_t{1'000'000'000};
  row.router = router;
  for (std::size_t i = 0; i < counts.size();) {
    const FlowKey key = counts[i].first;
    row.packets = 0;
    for (; i < counts.size() && counts[i].first == key; ++i) {
      row.packets += counts[i].second;
    }
    row.src = key.src;
    row.dst_port = key.dst_port;
    row.proto = protocol_number_of(key.type);
    row.bytes = row.packets * 40;  // SYN-sized, matching the exporter
    rows.push_back(row);
  }
  return rows;
}

FlowDataset::FlowDataset(FlowSimConfig config, std::vector<RouterDay> cells)
    : config_(std::move(config)), cells_(std::move(cells)) {
  const auto days = static_cast<std::size_t>(
      std::max<std::int64_t>(0, config_.end_day - config_.start_day));
  bool tiled = cells_.size() == kRouterCount * days;
  for (std::size_t i = 0; tiled && i < cells_.size(); ++i) {
    tiled = cells_[i].router == i / days &&
            cells_[i].day == config_.start_day + static_cast<std::int64_t>(i % days);
  }
  if (!tiled) {
    throw std::invalid_argument(
        "FlowDataset: cells are not the window's (router, day) grid");
  }
}

const RouterDay& FlowDataset::at(std::size_t router, std::int64_t day) const {
  if (router >= kRouterCount || day < config_.start_day ||
      day >= config_.end_day) {
    throw std::out_of_range("FlowDataset::at: no such router-day");
  }
  const auto days = static_cast<std::size_t>(config_.end_day - config_.start_day);
  return cells_[router * days + static_cast<std::size_t>(day - config_.start_day)];
}

namespace {

/// Splits `total` arrivals across the days a session overlaps,
/// proportionally to per-day overlap, via successive binomial splits (the
/// parts are exchangeable and sum exactly to `total`).
template <typename PerDay>
void split_across_days(net::SimTime start, net::SimTime end, std::uint64_t total,
                       std::int64_t window_start, std::int64_t window_end,
                       net::Rng& rng, PerDay per_day) {
  const double total_seconds = (end - start).total_seconds();
  if (total_seconds <= 0 || total == 0) return;
  std::uint64_t remaining = total;
  double remaining_seconds = total_seconds;
  const std::int64_t first_day = start.day();
  const std::int64_t last_day = (end - net::Duration::nanos(1)).day();
  for (std::int64_t day = first_day; day <= last_day && remaining > 0; ++day) {
    const net::SimTime day_begin = net::SimTime::at(net::Duration::days(day));
    const net::SimTime day_end = day_begin + net::Duration::days(1);
    const double overlap =
        (std::min(end, day_end) - std::max(start, day_begin)).total_seconds();
    if (overlap <= 0) continue;
    std::uint64_t count;
    if (overlap >= remaining_seconds) {
      count = remaining;
    } else {
      count = rng.binomial(remaining, overlap / remaining_seconds);
    }
    remaining -= count;
    remaining_seconds -= overlap;
    if (count > 0 && day >= window_start && day < window_end) {
      per_day(day, count);
    }
  }
}

}  // namespace

FlowDataset generate_flows(const scangen::Population& population,
                           const asdb::Registry& registry,
                           const PeeringPolicy& policy, FlowSimConfig config) {
  if (config.end_day <= config.start_day) {
    throw std::invalid_argument("generate_flows: empty day window");
  }
  const auto day_count =
      static_cast<std::size_t>(config.end_day - config.start_day);
  std::vector<RouterDay> cells(kRouterCount * day_count);
  // Each cell's sampled counts in arrival order (keys repeat across
  // sessions and ports); sealed into canonical rows once at the end.
  std::vector<std::vector<KeyedCount>> pending(cells.size());

  const std::uint64_t space_size = config.isp_space.total_addresses();
  net::Rng base(config.seed);
  PacketSampler sampler(config.sampling_mode, config.sampling_rate,
                        config.seed ^ 0xF10Eull);

  const net::SimTime window_start =
      net::SimTime::at(net::Duration::days(config.start_day));
  const net::SimTime window_end =
      net::SimTime::at(net::Duration::days(config.end_day));

  for (const scangen::ScannerProfile& scanner : population.scanners) {
    // Skip scanners whose sessions can't touch the window.
    const bool overlaps = std::any_of(
        scanner.sessions.begin(), scanner.sessions.end(),
        [&](const scangen::SessionSpec& s) {
          return s.end() > window_start && s.start < window_end;
        });
    if (!overlaps) continue;

    net::Rng rng = base.fork(scanner.rng_stream ^ 0x1507ull);
    const asdb::AsRecord* as = registry.lookup(scanner.source);
    const asdb::Region region = as ? as->region : asdb::Region::Other;

    for (const scangen::SessionSpec& session : scanner.sessions) {
      if (session.end() <= window_start || session.start >= window_end) continue;

      // Port plan: explicit ports, or the sweep treated as one aggregate
      // TCP flow (per-port flow keys for sweeps would dominate memory for
      // no analytical gain — their ISP footprint is negligible).
      struct PortPlan {
        scangen::PortSpec port;
        std::uint64_t arrivals;
      };
      std::vector<PortPlan> plans;
      if (session.sweep_port_count > 0) {
        const std::uint64_t nominal =
            static_cast<std::uint64_t>(session.sweep_port_count) * space_size;
        const std::uint64_t arrivals = rng.binomial(nominal, session.coverage);
        plans.push_back({{1, pkt::TrafficType::TcpSyn}, arrivals});
      } else {
        for (const scangen::PortSpec& port : session.ports) {
          const std::uint64_t uniques =
              scangen::sample_unique_targets(space_size, session.coverage, rng);
          plans.push_back(
              {port, scangen::session_packets_for_port(uniques, session.repeats)});
        }
      }

      for (const PortPlan& plan : plans) {
        split_across_days(
            session.start, session.end(), plan.arrivals, config.start_day,
            config.end_day, rng, [&](std::int64_t day, std::uint64_t count) {
              // Destination-dependent paths spread one source's packets
              // across all border routers per the peering matrix.
              const auto per_router =
                  policy.split(scanner.source, count, region, rng);
              for (std::size_t router = 0; router < kRouterCount; ++router) {
                if (per_router[router] == 0) continue;
                const std::size_t cell =
                    router * day_count +
                    static_cast<std::size_t>(day - config.start_day);
                cells[cell].scanner_packets += per_router[router];
                cells[cell].total_packets += per_router[router];
                const std::uint64_t sampled =
                    sampler.sample_batch(per_router[router], rng);
                if (sampled > 0) {
                  pending[cell].push_back(
                      {{scanner.source, plan.port.port, plan.port.type},
                       sampled});
                }
              }
            });
      }
    }
  }

  // User traffic denominator, and each cell sealed in FDE1's form.
  const UserTrafficModel user(config.user);
  for (std::size_t router = 0; router < kRouterCount; ++router) {
    for (std::size_t i = 0; i < day_count; ++i) {
      const std::int64_t day = config.start_day + static_cast<std::int64_t>(i);
      const auto user_packets = static_cast<std::uint64_t>(
          static_cast<double>(user.packets_on_day(day)) *
          config.user_router_share[router]);
      RouterDay& rd = cells[router * day_count + i];
      rd.router = static_cast<std::uint16_t>(router);
      rd.day = day;
      rd.user_packets = user_packets;
      rd.total_packets += user_packets;
      rd.rows = canonical_rows(std::move(pending[router * day_count + i]),
                               rd.router, day);
    }
  }

  return FlowDataset(std::move(config), std::move(cells));
}

}  // namespace orion::flowsim
