// Table 2 — Network impact of definition-1 AH at the three border routers:
// per-day AH packets (NetFlow estimate) and share of all routed packets.
#include <iostream>

#include "common.hpp"
#include "orion/impact/flow_join.hpp"
#include "orion/store/fde1.hpp"
#include "orion/store/mapped_flow.hpp"

int main() {
  using namespace orion;
  const bench::World& world = bench::World::instance();

  bench::print_header(
      "Table 2: Network impact of def-1 AH at the top-3 routers",
      "daily AH share 1.1-5.85% of all routed packets; router-1 highest "
      "(Europe/Asia peering); weekends higher than weekdays; Oct 1 lower "
      "than the January week");

  // Hash the definition list once; every router-day cell reuses it.
  const impact::SourceSet ah(
      world.detection(2022).of(detect::Definition::AddressDispersion).ips);

  const auto flows1 =
      bench::merit_flows(world, 2022, bench::flows1_start(), bench::flows1_end());
  const auto flows2 =
      bench::merit_flows(world, 2022, bench::flows2_day(), bench::flows2_day() + 1);

  report::Table table({"Date", "Router-1", "Router-2", "Router-3"});
  std::array<double, flowsim::kRouterCount> pct_sum{};
  std::array<std::uint64_t, flowsim::kRouterCount> pkt_sum{};
  std::size_t day_count = 0;

  const auto add_days = [&](const flowsim::FlowDataset& flows) {
    const store::MappedFlowStore image(store::fde1_image(flows));
    const impact::FlowImpactAnalyzer analyzer(&image);
    for (std::int64_t day = flows.start_day(); day < flows.end_day(); ++day) {
      std::vector<std::string> row{net::day_label(day) + " (" +
                                   to_string(net::weekday_of(day)) + ")"};
      for (std::size_t router = 0; router < flowsim::kRouterCount; ++router) {
        const impact::RouterDayImpact cell =
            analyzer.query(router, day, ah).impact;
        row.push_back(report::fmt_double(cell.matched_packets / 1e6, 1) + "M (" +
                      report::fmt_double(cell.percentage(), 2) + "%)");
        pct_sum[router] += cell.percentage();
        pkt_sum[router] += cell.matched_packets;
      }
      ++day_count;
      table.add_row(std::move(row));
    }
  };
  add_days(flows1);
  add_days(flows2);

  std::vector<std::string> avg{"Avg"};
  for (std::size_t router = 0; router < flowsim::kRouterCount; ++router) {
    avg.push_back(
        report::fmt_double(static_cast<double>(pkt_sum[router]) /
                               static_cast<double>(day_count) / 1e6, 1) +
        "M (" + report::fmt_double(pct_sum[router] / static_cast<double>(day_count), 2) +
        "%)");
  }
  table.add_row(std::move(avg));
  std::cout << table.to_ascii();

  const bool r1_highest = pct_sum[0] > pct_sum[1] && pct_sum[1] > pct_sum[2];
  std::cout << "\nshape checks vs paper:\n"
            << "  router-1 > router-2 > router-3 average impact:  "
            << (r1_highest ? "yes" : "NO") << "\n"
            << "  all averages within ~0.5-8% band:  "
            << ((pct_sum[0] / day_count) < 8.0 && (pct_sum[2] / day_count) > 0.5
                    ? "yes"
                    : "NO")
            << "\n";
  return 0;
}
