#include <gtest/gtest.h>

#include <algorithm>

#include "orion/impact/flow_join.hpp"
#include "orion/impact/stream_join.hpp"
#include "orion/scangen/scenario.hpp"

#include "flow_fixtures.hpp"

// Every per-cell number comes from query(): since the serve redesign the
// one-probe API is the analyzer's only per-cell surface (the wrappers are
// gone; tests/flowjoin_test.cpp pins query() against the scalar join).

namespace orion::impact {
namespace {

net::Ipv4Address ip(const char* text) { return *net::Ipv4Address::parse(text); }

// Hand-built flow dataset: 1 day, deterministic numbers.
flowsim::FlowDataset hand_dataset() {
  flowsim::FlowSimConfig config;
  config.isp_space = net::PrefixSet({*net::Prefix::parse("20.0.0.0/16")});
  config.start_day = 10;
  config.end_day = 11;
  config.sampling_rate = 100;

  std::vector<flowsim::RouterDay> cells = test_flows::grid(10, 11);
  flowsim::RouterDay& rd = cells[0];
  rd.user_packets = 900000;
  rd.scanner_packets = 100000;
  rd.total_packets = 1000000;
  test_flows::set_rows(
      rd, {// AH source: 400 sampled packets over two flows -> estimate 40,000.
           {{ip("203.0.113.1"), 23, pkt::TrafficType::TcpSyn}, 300},
           {{ip("203.0.113.1"), 53, pkt::TrafficType::Udp}, 100},
           // Non-AH source.
           {{ip("203.0.113.2"), 80, pkt::TrafficType::TcpSyn}, 50}});

  cells[1].user_packets = cells[1].total_packets = 500000;
  cells[2].user_packets = cells[2].total_packets = 500000;
  return flowsim::FlowDataset(std::move(config), std::move(cells));
}

TEST(FlowImpact, PercentagesFromSampledEstimates) {
  const test_flows::ImageAnalyzer hand(hand_dataset());
  const FlowImpactAnalyzer& analyzer = hand.analyzer;
  const detect::IpSet ah = {ip("203.0.113.1")};

  const RouterDayImpact impact = analyzer.query(0, 10, ah).impact;
  EXPECT_EQ(impact.matched_packets, 40000u);
  EXPECT_EQ(impact.total_packets, 1000000u);
  EXPECT_DOUBLE_EQ(impact.percentage(), 4.0);
  EXPECT_EQ(impact.matched_sources, 1u);

  // Router with no AH flows.
  EXPECT_EQ(analyzer.query(1, 10, ah).impact.matched_packets, 0u);
  EXPECT_DOUBLE_EQ(analyzer.query(1, 10, ah).impact.percentage(), 0.0);
}

TEST(FlowImpact, ImpactTableCoversAllRouterDays) {
  const test_flows::ImageAnalyzer hand(hand_dataset());
  const FlowImpactAnalyzer& analyzer = hand.analyzer;
  const auto table = analyzer.impact_table({ip("203.0.113.1")});
  EXPECT_EQ(table.size(), flowsim::kRouterCount * 1);
}

TEST(FlowImpact, VisibilityPercent) {
  const test_flows::ImageAnalyzer hand(hand_dataset());
  const FlowImpactAnalyzer& analyzer = hand.analyzer;
  const detect::IpSet ah = {ip("203.0.113.1"), ip("203.0.113.9")};
  EXPECT_DOUBLE_EQ(analyzer.query(0, 10, ah).visibility_percent(), 50.0);
  EXPECT_DOUBLE_EQ(analyzer.query(1, 10, ah).visibility_percent(), 0.0);
  EXPECT_DOUBLE_EQ(analyzer.query(0, 10, detect::IpSet{}).visibility_percent(),
                   0.0);
}

TEST(FlowImpact, ProtocolMixScalesSampledCounts) {
  const test_flows::ImageAnalyzer hand(hand_dataset());
  const FlowImpactAnalyzer& analyzer = hand.analyzer;
  const ProtocolMix mix = analyzer.query(0, 10, {ip("203.0.113.1")}).protocols;
  EXPECT_EQ(mix[0], 30000u);  // TCP-SYN
  EXPECT_EQ(mix[1], 10000u);  // UDP
  EXPECT_EQ(mix[2], 0u);      // ICMP
}

TEST(FlowImpact, PortMix) {
  const test_flows::ImageAnalyzer hand(hand_dataset());
  const FlowImpactAnalyzer& analyzer = hand.analyzer;
  const auto ports = analyzer.query(0, 10, {ip("203.0.113.1")}).ports;
  EXPECT_EQ(ports.count(23), 30000u);
  EXPECT_EQ(ports.count(53), 10000u);
  EXPECT_EQ(ports.count(80), 0u);  // non-AH source excluded
}

TEST(DarknetMixes, ProtocolAndPortFromEvents) {
  std::vector<telescope::DarknetEvent> events;
  telescope::DarknetEvent e;
  e.key.src = ip("203.0.113.1");
  e.key.dst_port = 23;
  e.key.type = pkt::TrafficType::TcpSyn;
  e.start = net::SimTime::at(net::Duration::days(10));
  e.end = e.start;
  e.packets = 900;
  e.unique_dests = 100;
  events.push_back(e);
  e.key.dst_port = 53;
  e.key.type = pkt::TrafficType::Udp;
  e.packets = 100;
  events.push_back(e);
  e.start = net::SimTime::at(net::Duration::days(11));  // the next day
  e.packets = 5000;
  events.push_back(e);
  const telescope::EventDataset dataset(std::move(events), 1000);

  const detect::IpSet ah = {ip("203.0.113.1")};
  const DailyDarknetMix mixes(dataset, ah);
  EXPECT_EQ(mixes.protocols(10)[0], 900u);
  EXPECT_EQ(mixes.protocols(10)[1], 100u);
  EXPECT_EQ(mixes.ports(10).count(23), 900u);
  EXPECT_EQ(mixes.ports(10).count(53), 100u);
  // Day 11's UDP packets land on day 11 only.
  EXPECT_EQ(mixes.protocols(11)[0], 0u);
  EXPECT_EQ(mixes.protocols(11)[1], 5000u);
  EXPECT_EQ(mixes.ports(11).count(23), 0u);
  EXPECT_EQ(mixes.ports(11).count(53), 5000u);
}

// ------------------------------------------------------------- stream study

TEST(StreamStudy, TinyScenarioEndToEnd) {
  const scangen::Scenario scenario{scangen::tiny()};
  detect::IpSet ah;
  // Declare all cloud scanners AH for the purpose of the stream test.
  for (const auto& s : scenario.population_2021().scanners) {
    if (s.category == scangen::Category::CloudScanner) ah.insert(s.source);
  }

  flowsim::UserTrafficConfig user;
  user.base_pps = 50;
  StreamStudyConfig config;
  config.start = net::SimTime::at(net::Duration::days(1));
  config.hours = 6;
  const flowsim::StreamMonitor monitor = run_stream_study(
      scenario.population_2021(), scenario.registry(),
      flowsim::PeeringPolicy::merit_like(), scenario.merit(), ah,
      flowsim::UserTrafficModel(user), config);

  EXPECT_EQ(monitor.ah_bins().bin_count(), 6u * 3600);
  EXPECT_GT(monitor.user_bins().total(), 0u);
  const auto impact = monitor.cumulative_impact();
  EXPECT_EQ(impact.size(), 6u * 3600);
  // Impact is a fraction.
  for (const double v : impact) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(StreamStudy, RouterFilterReducesMirroredTraffic) {
  const scangen::Scenario scenario{scangen::tiny()};
  detect::IpSet ah;
  for (const auto& s : scenario.population_2021().scanners) ah.insert(s.source);

  flowsim::UserTrafficConfig user;
  user.base_pps = 10;
  StreamStudyConfig all_config;
  all_config.start = net::SimTime::at(net::Duration::days(1));
  all_config.hours = 6;
  StreamStudyConfig filtered_config = all_config;
  filtered_config.router_filter = 0;

  const auto all = run_stream_study(scenario.population_2021(), scenario.registry(),
                                    flowsim::PeeringPolicy::merit_like(),
                                    scenario.merit(), ah,
                                    flowsim::UserTrafficModel(user), all_config);
  const auto filtered = run_stream_study(
      scenario.population_2021(), scenario.registry(),
      flowsim::PeeringPolicy::merit_like(), scenario.merit(), ah,
      flowsim::UserTrafficModel(user), filtered_config);
  EXPECT_LT(filtered.ah_bins().total(), all.ah_bins().total());
  EXPECT_GT(filtered.ah_bins().total(), 0u);
}

}  // namespace
}  // namespace orion::impact

// NOTE: appended suite — blocklist effectiveness evaluation.
#include "orion/impact/blocklist.hpp"
#include "orion/scangen/event_synth.hpp"

namespace orion::impact {
namespace {

TEST(Blocklist, CurveMatchesHandComputedShares) {
  // Three AH with 60/30/10 packets plus 100 packets of non-AH scanning.
  std::vector<telescope::DarknetEvent> events;
  const auto add = [&](const char* src, std::uint64_t packets) {
    telescope::DarknetEvent e;
    e.key.src = *net::Ipv4Address::parse(src);
    e.key.dst_port = 23;
    e.start = net::SimTime::epoch();
    e.end = e.start;
    e.packets = packets;
    e.unique_dests = 10;
    events.push_back(e);
  };
  add("203.0.113.1", 60);
  add("203.0.113.2", 30);
  add("203.0.113.3", 10);
  add("10.0.0.1", 100);
  const telescope::EventDataset dataset(std::move(events), 1000);
  const detect::IpSet ah = {*net::Ipv4Address::parse("203.0.113.1"),
                            *net::Ipv4Address::parse("203.0.113.2"),
                            *net::Ipv4Address::parse("203.0.113.3")};

  const BlocklistCurve curve =
      evaluate_blocklist(dataset, ah, {1, 2, 3, 100}, nullptr, nullptr);
  ASSERT_EQ(curve.points.size(), 4u);
  EXPECT_EQ(curve.total_scanning_packets, 200u);
  EXPECT_EQ(curve.total_ah_packets, 100u);

  EXPECT_EQ(curve.points[0].blocked_ips, 1u);
  EXPECT_DOUBLE_EQ(curve.points[0].scanning_traffic_removed, 0.30);
  EXPECT_DOUBLE_EQ(curve.points[0].ah_traffic_removed, 0.60);
  EXPECT_DOUBLE_EQ(curve.points[1].ah_traffic_removed, 0.90);
  EXPECT_DOUBLE_EQ(curve.points[2].ah_traffic_removed, 1.0);
  // Requesting more than available clamps.
  EXPECT_EQ(curve.points[3].blocked_ips, 3u);
}

TEST(Blocklist, CountsAckedCollateral) {
  const scangen::Scenario scenario{scangen::tiny()};
  asdb::ReverseDns rdns(&scenario.registry());
  const auto acked = intel::AckedScannerList::from_orgs(
      scenario.population_2021().orgs, rdns, intel::AckedConfig{});
  const telescope::EventDataset dataset(
      scangen::synthesize_events(
          scenario.population_2021(),
          {.darknet_size = scenario.darknet().total_addresses(), .seed = 3}),
      scenario.darknet().total_addresses());
  const detect::DetectionResult detection =
      detect::AggressiveScannerDetector(
          {.dispersion_threshold = 0.10,
           .packet_volume_alpha = scenario.config().def2_alpha,
           .port_count_alpha = scenario.config().def3_alpha})
          .detect(dataset);
  const detect::IpSet& ah = detection.of(detect::Definition::AddressDispersion).ips;

  const BlocklistCurve curve =
      evaluate_blocklist(dataset, ah, {10, ah.size()}, &acked, &rdns);
  ASSERT_EQ(curve.points.size(), 2u);
  // Monotone: traffic removed and collateral grow with list size.
  EXPECT_LE(curve.points[0].ah_traffic_removed, curve.points[1].ah_traffic_removed);
  EXPECT_LE(curve.points[0].acked_blocked, curve.points[1].acked_blocked);
  // Blocking the whole AH list removes all AH traffic and catches some
  // research scanners.
  EXPECT_DOUBLE_EQ(curve.points[1].ah_traffic_removed, 1.0);
  EXPECT_GT(curve.points[1].acked_blocked, 0u);
  // Heavy-tailed: the top 10 remove far more than 10/|AH| of AH traffic.
  EXPECT_GT(curve.points[0].ah_traffic_removed,
            3.0 * 10.0 / static_cast<double>(ah.size()));
}

}  // namespace
}  // namespace orion::impact
