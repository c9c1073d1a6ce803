// Table 4 — Network impact attributed to Acknowledged (disclosed research)
// scanners on 2022-10-01 (Flows-2): even "seemingly benign" scanning takes
// a real toll at the border routers.
#include <iostream>

#include "common.hpp"
#include "orion/impact/flow_join.hpp"
#include "orion/store/fde1.hpp"
#include "orion/store/mapped_flow.hpp"

int main() {
  using namespace orion;
  const bench::World& world = bench::World::instance();

  bench::print_header(
      "Table 4: Network impact of ACKed scanners (Flows-2, 2022-10-01)",
      "D1: 1.01/0.92/2.52%; D2: 1.06/1.19/2.56%; D3: 0.16/1.08/0.27% — "
      "ACKed impact is a sizable fraction of total AH impact");

  const std::int64_t day = bench::flows2_day();
  const auto flows = bench::merit_flows(world, 2022, day, day + 1);
  const store::MappedFlowStore image(store::fde1_image(flows));
  const impact::FlowImpactAnalyzer analyzer(&image);

  report::Table table({"", "Router-1", "Router-2", "Router-3"});
  std::array<double, 3> d1_pct{};
  for (std::size_t d = 0; d < 3; ++d) {
    const auto definition = static_cast<detect::Definition>(d);
    // ACKed members of this definition's AH set.
    detect::IpSet acked_ah;
    for (const net::Ipv4Address ip : world.detection(2022).of(definition).ips) {
      if (world.acked().match(ip, world.rdns())) acked_ah.insert(ip);
    }
    std::vector<std::string> row{std::string("Definition #") +
                                 std::to_string(d + 1) + " (" +
                                 std::to_string(acked_ah.size()) + " IPs)"};
    const impact::SourceSet acked_set(acked_ah);
    for (std::size_t router = 0; router < flowsim::kRouterCount; ++router) {
      const impact::RouterDayImpact cell =
          analyzer.query(router, day, acked_set).impact;
      row.push_back(report::fmt_double(cell.matched_packets / 1e6, 2) + "M (" +
                    report::fmt_double(cell.percentage(), 2) + "%)");
      if (d == 0) d1_pct[router] = cell.percentage();
    }
    table.add_row(std::move(row));
  }
  std::cout << table.to_ascii();

  // Compare against the full-AH impact from Table 2's machinery.
  const detect::IpSet& all_ah =
      world.detection(2022).of(detect::Definition::AddressDispersion).ips;
  const double all_r1 = analyzer.query(0, day, all_ah).impact.percentage();
  std::cout << "\nshape checks vs paper:\n"
            << "  ACKed D1 impact at router-1 is a nontrivial share of all-AH "
               "impact ("
            << report::fmt_double(d1_pct[0], 2) << "% of "
            << report::fmt_double(all_r1, 2) << "%):  "
            << (d1_pct[0] > 0.1 * all_r1 && d1_pct[0] < all_r1 ? "yes" : "NO")
            << "\n"
            << "  ACKed impact below total impact at every router:  "
            << (d1_pct[0] < all_r1 ? "yes" : "NO") << "\n";
  return 0;
}
