// Network-impact study: joins detected AH lists against simulated border
// NetFlow, printing the Table-2-style per-router per-day impact an ISP
// operator would compute for their own network.
//
//   $ ./impact_study
#include <iostream>

#include "orion/detect/detector.hpp"
#include "orion/impact/flow_join.hpp"
#include "orion/report/table.hpp"
#include "orion/scangen/event_synth.hpp"
#include "orion/scangen/scenario.hpp"
#include "orion/store/fde1.hpp"
#include "orion/store/mapped_flow.hpp"

int main() {
  using namespace orion;

  const scangen::Scenario scenario{scangen::tiny()};

  // Detect AH from the darknet's perspective.
  const telescope::EventDataset dataset(
      scangen::synthesize_events(
          scenario.population_2021(),
          {.darknet_size = scenario.darknet().total_addresses(), .seed = 1}),
      scenario.darknet().total_addresses());
  const detect::DetectionResult detection =
      detect::AggressiveScannerDetector(
          {.dispersion_threshold = scenario.config().def1_dispersion,
           .packet_volume_alpha = scenario.config().def2_alpha,
           .port_count_alpha = scenario.config().def3_alpha})
          .detect(dataset);
  const detect::IpSet& ah =
      detection.of(detect::Definition::AddressDispersion).ips;
  std::cout << ah.size() << " definition-1 AH detected in the darknet\n\n";

  // Simulate a week of sampled NetFlow at the ISP border.
  flowsim::FlowSimConfig config;
  config.isp_space = scenario.merit();
  config.start_day = 2;
  config.end_day = 9;
  config.sampling_rate = 100;
  config.user.base_pps = 4000;
  config.user.cache_fraction = 0.55;  // in-net content caches
  const flowsim::FlowDataset flows =
      generate_flows(scenario.population_2021(), scenario.registry(),
                     flowsim::PeeringPolicy::merit_like(), config);

  // Join: AH packets vs all packets, per router per day, over the flows'
  // in-memory FDE1 image. One pre-hashed SourceSet serves every cell.
  const store::MappedFlowStore image(store::fde1_image(flows));
  const impact::FlowImpactAnalyzer analyzer(&image);
  const impact::SourceSet ah_set(ah);
  report::Table table({"date", "router-1", "router-2", "router-3"});
  for (std::int64_t day = config.start_day; day < config.end_day; ++day) {
    std::vector<std::string> row{net::day_label(day) + " (" +
                                 to_string(net::weekday_of(day)) + ")"};
    for (std::size_t router = 0; router < flowsim::kRouterCount; ++router) {
      const impact::RouterDayImpact cell =
          analyzer.query(router, day, ah_set).impact;
      row.push_back(report::fmt_count(cell.matched_packets) + " (" +
                    report::fmt_double(cell.percentage(), 2) + "%)");
    }
    table.add_row(std::move(row));
  }
  std::cout << "AH packets (NetFlow estimate) and share of all routed packets:\n"
            << table.to_ascii();
  return 0;
}
