// Figure 5 — Ports observed in Flow vs Darknet on 2022-10-01 for the day's
// daily AH (definitions 1 and 2): per-port packet shares agree across the
// two vantage points, confirming the AH flow traffic is scanning.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "common.hpp"
#include "orion/impact/flow_join.hpp"
#include "orion/store/fde1.hpp"
#include "orion/store/mapped_flow.hpp"

namespace {

/// Pearson correlation of log-shares over the union of ports.
double log_share_correlation(
    const std::vector<std::pair<double, double>>& pairs) {
  if (pairs.size() < 2) return 0.0;
  double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
  const auto n = static_cast<double>(pairs.size());
  for (const auto& [x, y] : pairs) {
    sx += x;
    sy += y;
    sxx += x * x;
    syy += y * y;
    sxy += x * y;
  }
  const double cov = sxy / n - (sx / n) * (sy / n);
  const double vx = sxx / n - (sx / n) * (sx / n);
  const double vy = syy / n - (sy / n) * (sy / n);
  return vx <= 0 || vy <= 0 ? 0.0 : cov / std::sqrt(vx * vy);
}

}  // namespace

int main() {
  using namespace orion;
  const bench::World& world = bench::World::instance();

  bench::print_header(
      "Figure 5: Ports in Flow vs Darknet, 2022-10-01 (daily AH, D1 & D2)",
      "per-port packet shares line up on the diagonal for both "
      "definitions — the AH's ISP traffic targets the same services they "
      "scan in the darknet");

  const std::int64_t day = bench::flows2_day();
  const auto flows = bench::merit_flows(world, 2022, day, day + 1);
  const store::MappedFlowStore image(store::fde1_image(flows));
  const impact::FlowImpactAnalyzer analyzer(&image);
  const detect::DetectionResult& detection = world.detection(2022);
  const auto index = static_cast<std::size_t>(day - detection.first_day);

  for (const auto definition :
       {detect::Definition::AddressDispersion, detect::Definition::PacketVolume}) {
    // Daily AH for the day.
    detect::IpSet ah;
    for (const net::Ipv4Address ip : detection.of(definition).daily[index]) {
      ah.insert(ip);
    }
    // Single-sweep per-day mixes instead of a full rescan per (day, set).
    const impact::DailyDarknetMix mix(world.dataset(2022), ah);
    const auto& dark = mix.ports(day);
    const auto flow = analyzer.query(0, day, ah).ports;
    const double dark_total = static_cast<double>(dark.total());
    const double flow_total = static_cast<double>(flow.total());

    report::Table table({"port", "darknet %", "flow %"});
    std::vector<std::pair<double, double>> log_pairs;
    for (const auto& [port, packets] : dark.top(15)) {
      const double d_share = static_cast<double>(packets) / dark_total;
      const double f_share =
          flow_total == 0 ? 0.0 : static_cast<double>(flow.count(port)) / flow_total;
      table.add_row({port == 0 ? "echo" : std::to_string(port),
                     report::fmt_double(d_share * 100, 2),
                     report::fmt_double(f_share * 100, 2)});
      if (d_share > 0 && f_share > 0) {
        log_pairs.emplace_back(std::log(d_share), std::log(f_share));
      }
    }
    const double corr = log_share_correlation(log_pairs);
    std::cout << to_string(definition) << " — " << ah.size() << " daily AH:\n"
              << table.to_ascii() << "log-share correlation (top darknet ports): "
              << report::fmt_double(corr, 3) << "\n\n";

    std::cout << "shape check: darknet and flow port profiles agree (r > 0.6):  "
              << (corr > 0.6 ? "yes" : "NO") << "\n\n";
  }
  return 0;
}
