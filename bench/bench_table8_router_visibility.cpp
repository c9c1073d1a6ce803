// Table 8 — How many of the darknet-identified active AH are actually seen
// at each border router's flows on each day, per definition: router-1/2
// see nearly all of them, router-3 sees roughly half.
#include <iostream>

#include "common.hpp"
#include "orion/impact/flow_join.hpp"
#include "orion/store/fde1.hpp"
#include "orion/store/mapped_flow.hpp"

int main() {
  using namespace orion;
  const bench::World& world = bench::World::instance();

  bench::print_header(
      "Table 8: Active AH visibility per router (Flows-1 week + Flows-2)",
      "router-1 sees 95-100% of active AH, router-2 91-98%, router-3 "
      "~20-52% (D1/D2); D3's handful of sweepers are widely visible; "
      "counts: ~4.7-5.5k D1, ~7-7.9k D2, 50-92 D3 per day (paper scale)");

  const auto flows1 =
      bench::merit_flows(world, 2022, bench::flows1_start(), bench::flows1_end());
  const auto flows2 =
      bench::merit_flows(world, 2022, bench::flows2_day(), bench::flows2_day() + 1);
  const detect::DetectionResult& detection = world.detection(2022);

  report::Table table({"Date", "#D1", "#D2", "#D3", "R1: D1/D2/D3 %",
                       "R2: D1/D2/D3 %", "R3: D1/D2/D3 %"});

  double r1_d1_sum = 0, r3_d1_sum = 0;
  std::size_t day_count = 0;
  const auto add_days = [&](const flowsim::FlowDataset& flows) {
    const store::MappedFlowStore image(store::fde1_image(flows));
    const impact::FlowImpactAnalyzer analyzer(&image);
    for (std::int64_t day = flows.start_day(); day < flows.end_day(); ++day) {
      const auto index = static_cast<std::size_t>(day - detection.first_day);
      std::vector<std::string> row{net::day_label(day)};
      // One pre-hashed SourceSet per definition, reused across routers.
      std::array<impact::SourceSet, 3> active;
      for (std::size_t d = 0; d < 3; ++d) {
        active[d] = impact::SourceSet(
            detection.of(static_cast<detect::Definition>(d)).active[index]);
        row.push_back(report::fmt_count(active[d].size()));
      }
      for (std::size_t router = 0; router < flowsim::kRouterCount; ++router) {
        std::string cell;
        for (std::size_t d = 0; d < 3; ++d) {
          const double pct =
              analyzer.query(router, day, active[d]).visibility_percent();
          if (d) cell += " / ";
          cell += report::fmt_double(pct, 1);
          if (router == 0 && d == 0) r1_d1_sum += pct;
          if (router == 2 && d == 0) r3_d1_sum += pct;
        }
        row.push_back(std::move(cell));
      }
      ++day_count;
      table.add_row(std::move(row));
    }
  };
  add_days(flows1);
  add_days(flows2);
  std::cout << table.to_ascii();

  const double r1_avg = r1_d1_sum / static_cast<double>(day_count);
  const double r3_avg = r3_d1_sum / static_cast<double>(day_count);
  std::cout << "\nshape checks vs paper:\n"
            << "  router-1 sees most active D1 AH (avg "
            << report::fmt_double(r1_avg, 1) << "%, paper ~94-99%):  "
            << (r1_avg > 80 ? "yes" : "NO") << "\n"
            << "  router-3 sees materially fewer (avg "
            << report::fmt_double(r3_avg, 1) << "%, paper ~20-52%):  "
            << (r3_avg < r1_avg - 10 ? "yes" : "NO") << "\n";
  return 0;
}
