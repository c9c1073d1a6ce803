#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <stdexcept>

namespace orion::bench {

namespace {

telescope::EventDataset build_dataset(const scangen::Scenario& scenario,
                                      const scangen::Population& population,
                                      std::uint64_t seed) {
  return telescope::EventDataset(
      scangen::synthesize_events(
          population,
          {.darknet_size = scenario.darknet().total_addresses(), .seed = seed}),
      scenario.darknet().total_addresses());
}

}  // namespace

World::World()
    : scenario_(scangen::paper_scaled()),
      d1_(build_dataset(scenario_, scenario_.population_2021(),
                        scenario_.config().seed)),
      d2_(build_dataset(scenario_, scenario_.population_2022(),
                        scenario_.config().seed + 1)),
      r1_(detect::AggressiveScannerDetector(detector_config()).detect(d1_)),
      r2_(detect::AggressiveScannerDetector(detector_config()).detect(d2_)),
      rdns_(&scenario_.registry()),
      acked_(intel::AckedScannerList::from_orgs(scenario_.population_2021().orgs,
                                                rdns_, intel::AckedConfig{})) {
  // The 2022 population's research orgs carry distinct IPs; register their
  // PTR records too so Darknet-2 validation can match them. The published
  // LIST stays the 2021 one (lists lag reality — exactly the paper's
  // experience of finding unlisted org IPs via rDNS).
  intel::AckedScannerList::from_orgs(scenario_.population_2022().orgs, rdns_,
                                     intel::AckedConfig{});
}

const World& World::instance() {
  const auto start = std::chrono::steady_clock::now();
  static const World world;
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (elapsed > 0.5) {
    std::fprintf(stderr, "[world built in %.1f s]\n", elapsed);
  }
  return world;
}

const telescope::EventDataset& World::dataset(int year) const {
  if (year == 2021) return d1_;
  if (year == 2022) return d2_;
  throw std::invalid_argument("World::dataset: year must be 2021 or 2022");
}

const detect::DetectionResult& World::detection(int year) const {
  if (year == 2021) return r1_;
  if (year == 2022) return r2_;
  throw std::invalid_argument("World::detection: year must be 2021 or 2022");
}

const scangen::Population& World::population(int year) const {
  if (year == 2021) return scenario_.population_2021();
  if (year == 2022) return scenario_.population_2022();
  throw std::invalid_argument("World::population: year must be 2021 or 2022");
}

detect::DetectorConfig World::detector_config() const {
  return {.dispersion_threshold = scenario_.config().def1_dispersion,
          .packet_volume_alpha = scenario_.config().def2_alpha,
          .port_count_alpha = scenario_.config().def3_alpha};
}

std::vector<std::uint64_t> World::noise_series(int year) const {
  const detect::DetectionResult& result = detection(year);
  std::vector<std::uint64_t> noise;
  for (std::int64_t day = result.first_day; day <= result.last_day; ++day) {
    noise.push_back(scenario_.noise_packets_on_day(day));
  }
  return noise;
}

flowsim::UserTrafficConfig merit_user_config() {
  flowsim::UserTrafficConfig config;
  // Calibrated so definition-1 AH land in the paper's 1-6% band at the
  // border routers (Table 2): heavy in-network content caching shrinks the
  // border denominator.
  config.base_pps = 23000.0;
  config.cache_fraction = 0.55;
  config.weekend_factor = 0.72;
  config.diurnal_amplitude = 0.35;
  config.growth_per_year = 0.10;
  config.seed = 4242;
  return config;
}

flowsim::UserTrafficConfig cu_user_config() {
  flowsim::UserTrafficConfig config;
  // No caching at the campus: all the video traffic crosses the monitor,
  // so the AH share lands an order of magnitude below Merit's (Fig 1).
  config.base_pps = 2200.0;
  config.cache_fraction = 0.0;
  config.weekend_factor = 0.80;
  config.diurnal_amplitude = 0.45;
  config.growth_per_year = 0.10;
  config.seed = 2424;
  return config;
}

flowsim::FlowDataset merit_flows(const World& world, int year,
                                 std::int64_t start_day, std::int64_t end_day) {
  flowsim::FlowSimConfig config;
  config.isp_space = world.scenario().merit();
  config.start_day = start_day;
  config.end_day = end_day;
  config.sampling_rate = 100;  // paper: 1:1000 on a 10x larger universe
  config.sampling_mode = flowsim::SamplingMode::Random;
  config.seed = 9000 + static_cast<std::uint64_t>(start_day);
  config.user = merit_user_config();
  return generate_flows(world.population(year), world.scenario().registry(),
                        flowsim::PeeringPolicy::merit_like(), config);
}

impact::RouterDayReport reference_report(const flowsim::FlowDataset& flows,
                                         std::size_t router, std::int64_t day,
                                         const detect::IpSet& sources) {
  const flowsim::RouterDay& cell = flows.at(router, day);
  impact::FlowSourceIndex index;
  index.append(cell.rows);
  index.finalize();
  return impact::join_flow_index_scalar(index, sources, flows.sampling_rate(),
                                        cell.total_packets, router, day);
}

void print_header(const std::string& title, const std::string& paper_summary) {
  std::cout << "==============================================================\n"
            << title << "\n"
            << "paper: " << paper_summary << "\n"
            << "==============================================================\n\n";
}

Timing time_reps(int reps, const std::function<void()>& run) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    run();
    const auto t1 = std::chrono::steady_clock::now();
    samples.push_back(std::chrono::duration<double>(t1 - t0).count());
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return {samples.front(),
          samples.size() % 2 == 1 ? samples[mid]
                                  : (samples[mid - 1] + samples[mid]) / 2,
          samples.back()};
}

}  // namespace orion::bench
