// Table 3 — Protocol mix (TCP-SYN / UDP / ICMP echo) of AH traffic on
// 2022-10-01, in the darknet (D) vs router-1 flows (F), per definition.
// The agreement between the two columns is the paper's evidence that the
// AH flow traffic really is scanning.
#include <iostream>

#include "common.hpp"
#include "orion/impact/flow_join.hpp"
#include "orion/store/fde1.hpp"
#include "orion/store/mapped_flow.hpp"

int main() {
  using namespace orion;
  const bench::World& world = bench::World::instance();

  bench::print_header(
      "Table 3: Protocols in Darknet (D) and Flow (F), 2022-10-01, router-1",
      "D1: TCP-SYN 90.4/90.4, UDP 9.4/8.6, ICMP 0.2/0.1; D3 is almost all "
      "TCP; darknet and flow mixes agree per definition");

  const std::int64_t day = bench::flows2_day();
  const auto flows = bench::merit_flows(world, 2022, day, day + 1);
  const store::MappedFlowStore image(store::fde1_image(flows));
  const impact::FlowImpactAnalyzer analyzer(&image);

  const auto percentages = [](const impact::ProtocolMix& mix) {
    const double total = static_cast<double>(mix[0] + mix[1] + mix[2]);
    std::array<double, 3> out{};
    for (std::size_t i = 0; i < 3; ++i) {
      out[i] = total == 0 ? 0.0 : 100.0 * static_cast<double>(mix[i]) / total;
    }
    return out;
  };

  report::Table table({"Protocol", "D1: D% / F%", "D2: D% / F%", "D3: D% / F%"});
  std::array<std::array<double, 3>, 3> dark{};
  std::array<std::array<double, 3>, 3> flow{};
  for (std::size_t d = 0; d < 3; ++d) {
    const detect::IpSet& ah =
        world.detection(2022).of(static_cast<detect::Definition>(d)).ips;
    // One dataset sweep gives every day's mix; the day query is then O(1).
    const impact::DailyDarknetMix mix(world.dataset(2022), ah);
    dark[d] = percentages(mix.protocols(day));
    flow[d] = percentages(analyzer.query(0, day, ah).protocols);
  }
  const std::array<const char*, 3> names = {"TCP-SYN", "UDP", "ICMP Ech Rqst"};
  for (std::size_t proto = 0; proto < 3; ++proto) {
    std::vector<std::string> row{names[proto]};
    for (std::size_t d = 0; d < 3; ++d) {
      row.push_back(report::fmt_double(dark[d][proto], 1) + " / " +
                    report::fmt_double(flow[d][proto], 1));
    }
    table.add_row(std::move(row));
  }
  std::cout << table.to_ascii();

  double max_gap = 0;
  for (std::size_t d = 0; d < 3; ++d) {
    for (std::size_t proto = 0; proto < 3; ++proto) {
      max_gap = std::max(max_gap, std::abs(dark[d][proto] - flow[d][proto]));
    }
  }
  std::cout << "\nshape checks vs paper:\n"
            << "  TCP-SYN dominates (> 80%) everywhere:  "
            << (dark[0][0] > 80 && flow[0][0] > 80 ? "yes" : "NO") << "\n"
            << "  darknet/flow mixes agree (max gap "
            << report::fmt_double(max_gap, 1) << " pts, paper <= ~1 pt):  "
            << (max_gap < 6.0 ? "yes" : "NO") << "\n";
  return 0;
}
