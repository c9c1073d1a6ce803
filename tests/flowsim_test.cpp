#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <unordered_set>

#include "orion/flowsim/flows.hpp"
#include "orion/flowsim/routing.hpp"
#include "orion/flowsim/sampler.hpp"
#include "orion/flowsim/stream.hpp"
#include "orion/flowsim/user_traffic.hpp"
#include "orion/scangen/scenario.hpp"

namespace orion::flowsim {
namespace {

// ------------------------------------------------------------- user traffic

TEST(UserTrafficModel, WeekendsAreQuieter) {
  UserTrafficConfig config;
  config.base_pps = 1000;
  config.weekend_factor = 0.7;
  config.growth_per_year = 0.0;
  const UserTrafficModel model(config);
  // Day 1 (2021-01-02) is a Saturday, day 4 a Tuesday.
  EXPECT_LT(model.packets_on_day(1), model.packets_on_day(4));
  const double ratio = static_cast<double>(model.packets_on_day(1)) /
                       static_cast<double>(model.packets_on_day(4));
  EXPECT_NEAR(ratio, 0.7, 0.08);
}

TEST(UserTrafficModel, CacheFractionShrinksBorderTraffic) {
  UserTrafficConfig merit;
  merit.base_pps = 1000;
  merit.cache_fraction = 0.6;
  UserTrafficConfig campus = merit;
  campus.cache_fraction = 0.0;
  EXPECT_NEAR(static_cast<double>(UserTrafficModel(merit).packets_on_day(4)),
              0.4 * static_cast<double>(UserTrafficModel(campus).packets_on_day(4)),
              1.0);
}

TEST(UserTrafficModel, DiurnalPeaksMidDay) {
  UserTrafficConfig config;
  config.base_pps = 1000;
  config.diurnal_amplitude = 0.4;
  const UserTrafficModel model(config);
  const net::SimTime afternoon =
      net::SimTime::at(net::Duration::days(4) + net::Duration::hours(15));
  const net::SimTime night =
      net::SimTime::at(net::Duration::days(4) + net::Duration::hours(3));
  EXPECT_GT(model.rate_pps(afternoon), model.rate_pps(night));
}

TEST(UserTrafficModel, DayTotalIntegratesRate) {
  UserTrafficConfig config;
  config.base_pps = 500;
  const UserTrafficModel model(config);
  double integral = 0;
  for (int hour = 0; hour < 24; ++hour) {
    integral += model.rate_pps(net::SimTime::at(net::Duration::days(4) +
                                                net::Duration::hours(hour))) *
                3600;
  }
  EXPECT_NEAR(integral, static_cast<double>(model.packets_on_day(4)),
              0.02 * integral);
}

TEST(UserTrafficModel, GrowthRaisesLaterDays) {
  UserTrafficConfig config;
  config.base_pps = 1000;
  config.growth_per_year = 0.2;
  const UserTrafficModel model(config);
  // Compare same weekday a year apart (day 4 and day 368 are both Tuesdays).
  EXPECT_GT(model.packets_on_day(368), model.packets_on_day(4));
}

// ------------------------------------------------------------------ routing

TEST(PeeringPolicy, RowsMustSumToOne) {
  PeeringPolicy::Matrix bad{{{{0.5, 0.2, 0.2}},
                             {{0.55, 0.30, 0.15}},
                             {{0.62, 0.25, 0.13}},
                             {{0.40, 0.35, 0.25}}}};
  EXPECT_THROW(PeeringPolicy{bad}, std::invalid_argument);
}

TEST(PeeringPolicy, RouteIsStablePerSource) {
  const PeeringPolicy policy = PeeringPolicy::merit_like();
  const net::Ipv4Address src = *net::Ipv4Address::parse("77.1.2.3");
  const std::size_t router = policy.route(src, asdb::Region::Europe);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(policy.route(src, asdb::Region::Europe), router);
  }
}

TEST(PeeringPolicy, DistributionMatchesMatrix) {
  // Full-reach policy: per-source routes follow the matrix row exactly.
  const PeeringPolicy policy(PeeringPolicy::Matrix{{
      {{0.42, 0.32, 0.26}},
      {{0.62, 0.24, 0.14}},
      {{0.68, 0.20, 0.12}},
      {{0.45, 0.32, 0.23}},
  }});
  std::array<int, kRouterCount> counts{};
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    ++counts[policy.route(net::Ipv4Address(static_cast<std::uint32_t>(i * 2654435761u)),
                          asdb::Region::Asia)];
  }
  const auto& asia = policy.row(asdb::Region::Asia);
  EXPECT_NEAR(counts[0], asia[0] * n, 0.02 * n);
  EXPECT_NEAR(counts[1], asia[1] * n, 0.02 * n);
  EXPECT_NEAR(counts[2], asia[2] * n, 0.02 * n);
}

TEST(PeeringPolicy, SplitSumsAndRespectsReachability) {
  const PeeringPolicy policy = PeeringPolicy::merit_like();
  net::Rng rng(77);
  int reach_r3 = 0;
  const int sources = 2000;
  for (int i = 0; i < sources; ++i) {
    const net::Ipv4Address src(static_cast<std::uint32_t>(0x50000000u + i * 977));
    const auto parts = policy.split(src, 10000, asdb::Region::Asia, rng);
    EXPECT_EQ(parts[0] + parts[1] + parts[2], 10000u);
    const bool r3_reachable = policy.reachable(src, asdb::Region::Asia, 2);
    if (!r3_reachable) {
      EXPECT_EQ(parts[2], 0u);
    }
    reach_r3 += r3_reachable;
    // Reachability is deterministic.
    EXPECT_EQ(policy.reachable(src, asdb::Region::Asia, 2), r3_reachable);
    EXPECT_TRUE(policy.reachable(src, asdb::Region::Asia, 0));
  }
  // Asia reach at router-3 is 0.45 in the merit-like policy.
  EXPECT_NEAR(reach_r3, 0.45 * sources, 0.05 * sources);
}

TEST(PeeringPolicy, RoutePacketVariesByDestinationButIsStable) {
  const PeeringPolicy policy = PeeringPolicy::merit_like();
  const net::Ipv4Address src = *net::Ipv4Address::parse("88.1.2.3");
  std::array<int, kRouterCount> counts{};
  for (int i = 0; i < 3000; ++i) {
    const net::Ipv4Address dst(static_cast<std::uint32_t>(0x14000000u + i * 256));
    const std::size_t router = policy.route_packet(src, dst, asdb::Region::Europe);
    EXPECT_EQ(policy.route_packet(src, dst, asdb::Region::Europe), router);
    ++counts[router];
  }
  // One source's packets reach several routers (destination-dependent paths).
  EXPECT_GT(counts[0], 0);
  EXPECT_GT(counts[1], 0);
}

// ------------------------------------------------------------------ sampler

TEST(PacketSampler, DeterministicSamplesExactlyOnePerN) {
  PacketSampler sampler(SamplingMode::Deterministic, 100, 1);
  int sampled = 0;
  for (int i = 0; i < 100000; ++i) sampled += sampler.sample();
  EXPECT_EQ(sampled, 1000);
}

TEST(PacketSampler, RandomSamplesApproximatelyOnePerN) {
  PacketSampler sampler(SamplingMode::Random, 100, 2);
  int sampled = 0;
  for (int i = 0; i < 100000; ++i) sampled += sampler.sample();
  EXPECT_NEAR(sampled, 1000, 150);
}

TEST(PacketSampler, BatchSamplingMatchesMean) {
  net::Rng rng(3);
  for (const SamplingMode mode :
       {SamplingMode::Deterministic, SamplingMode::Random}) {
    PacketSampler sampler(mode, 100, 4);
    double total = 0;
    for (int i = 0; i < 2000; ++i) {
      total += static_cast<double>(sampler.sample_batch(5000, rng));
    }
    EXPECT_NEAR(total / 2000, 50.0, 2.0);
  }
}

TEST(PacketSampler, ZeroRateThrows) {
  EXPECT_THROW(PacketSampler(SamplingMode::Random, 0, 1), std::invalid_argument);
}

// -------------------------------------------------------------------- flows

class FlowsTest : public testing::Test {
 protected:
  static const scangen::Scenario& scenario() {
    static const scangen::Scenario s{scangen::tiny()};
    return s;
  }

  static FlowSimConfig config() {
    FlowSimConfig c;
    c.isp_space = scenario().merit();
    c.start_day = 2;
    c.end_day = 5;
    c.sampling_rate = 100;
    c.user.base_pps = 2000;
    c.user.cache_fraction = 0.5;
    return c;
  }
};

TEST_F(FlowsTest, TotalsDecompose) {
  const FlowDataset flows =
      generate_flows(scenario().population_2021(), scenario().registry(),
                     PeeringPolicy::merit_like(), config());
  for (std::size_t router = 0; router < kRouterCount; ++router) {
    for (std::int64_t day = 2; day < 5; ++day) {
      const RouterDay& rd = flows.at(router, day);
      EXPECT_EQ(rd.total_packets, rd.user_packets + rd.scanner_packets);
      EXPECT_GT(rd.user_packets, 0u);
    }
  }
  EXPECT_THROW(flows.at(0, 5), std::out_of_range);
  EXPECT_THROW(flows.at(3, 2), std::out_of_range);
}

TEST_F(FlowsTest, SampledEstimatesTrackGroundTruth) {
  const FlowDataset flows =
      generate_flows(scenario().population_2021(), scenario().registry(),
                     PeeringPolicy::merit_like(), config());
  std::uint64_t truth = 0, estimate = 0;
  for (std::size_t router = 0; router < kRouterCount; ++router) {
    for (std::int64_t day = 2; day < 5; ++day) {
      const RouterDay& rd = flows.at(router, day);
      truth += rd.scanner_packets;
      for (const std::uint64_t sampled : rd.rows.packets_col()) {
        estimate += sampled * flows.sampling_rate();
      }
    }
  }
  ASSERT_GT(truth, 0u);
  EXPECT_NEAR(static_cast<double>(estimate), static_cast<double>(truth),
              0.15 * static_cast<double>(truth));
}

TEST_F(FlowsTest, FlowKeysBelongToPopulation) {
  const FlowDataset flows =
      generate_flows(scenario().population_2021(), scenario().registry(),
                     PeeringPolicy::merit_like(), config());
  std::unordered_set<net::Ipv4Address> sources;
  for (const auto& s : scenario().population_2021().scanners) {
    sources.insert(s.source);
  }
  for (std::size_t router = 0; router < kRouterCount; ++router) {
    for (std::int64_t day = 2; day < 5; ++day) {
      const FlowBatch& rows = flows.at(router, day).rows;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_TRUE(sources.contains(rows.src(i))) << rows.src(i).to_string();
        EXPECT_GT(rows.packets(i), 0u);
      }
    }
  }
}

TEST_F(FlowsTest, EmptyWindowThrows) {
  FlowSimConfig c = config();
  c.end_day = c.start_day;
  EXPECT_THROW(generate_flows(scenario().population_2021(), scenario().registry(),
                              PeeringPolicy::merit_like(), c),
               std::invalid_argument);
}

/// Every cell of `flows` holds its (router, day) and rows in canonical
/// form: strictly increasing (src, dst_port, type), stamped with the day
/// start, the cell's router and 40 bytes per packet.
void expect_canonical(const FlowDataset& flows) {
  const auto days = static_cast<std::size_t>(flows.end_day() - flows.start_day());
  ASSERT_EQ(flows.cells().size(), kRouterCount * days);
  std::size_t rows = 0;
  for (std::size_t c = 0; c < flows.cells().size(); ++c) {
    const RouterDay& cell = flows.cells()[c];
    EXPECT_EQ(cell.router, c / days);
    EXPECT_EQ(cell.day, flows.start_day() + static_cast<std::int64_t>(c % days));
    EXPECT_EQ(&flows.at(cell.router, cell.day), &cell);
    const FlowBatch& r = cell.rows;
    for (std::size_t i = 0; i < r.size(); ++i) {
      EXPECT_EQ(r.ts_ns(i), cell.day * std::int64_t{86'400'000'000'000});
      EXPECT_EQ(r.router(i), cell.router);
      EXPECT_EQ(r.bytes(i), 40 * r.packets(i));
      EXPECT_GT(r.packets(i), 0u);
      EXPECT_EQ(r.dst(i), net::Ipv4Address());
      EXPECT_EQ(r.src_port(i), 0u);
      if (i > 0) {
        EXPECT_LT(std::tuple(r.src(i - 1), r.dst_port(i - 1), r.traffic_type(i - 1)),
                  std::tuple(r.src(i), r.dst_port(i), r.traffic_type(i)))
            << "cell " << c << " row " << i;
      }
    }
    rows += r.size();
  }
  EXPECT_GT(rows, 0u);
}

TEST_F(FlowsTest, CellsAreCanonical) {
  expect_canonical(generate_flows(scenario().population_2021(),
                                  scenario().registry(),
                                  PeeringPolicy::merit_like(), config()));
  FlowSimConfig deterministic = config();
  deterministic.sampling_mode = SamplingMode::Deterministic;
  deterministic.sampling_rate = 10;
  expect_canonical(generate_flows(scenario().population_2021(),
                                  scenario().registry(),
                                  PeeringPolicy::merit_like(), deterministic));
}

TEST(CanonicalRows, SortsMergesAndStamps) {
  const net::Ipv4Address a(0x0A000001u);
  const net::Ipv4Address b(0x0A000002u);
  const FlowBatch rows = canonical_rows(
      {{{b, 80, pkt::TrafficType::TcpSyn}, 4},
       {{a, 53, pkt::TrafficType::Udp}, 2},
       {{b, 80, pkt::TrafficType::TcpSyn}, 5},
       {{a, 53, pkt::TrafficType::TcpSyn}, 1},
       {{a, 53, pkt::TrafficType::Udp}, 3}},
      2, 7);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows.src(0), a);
  EXPECT_EQ(rows.proto(0), 6);
  EXPECT_EQ(rows.packets(0), 1u);
  EXPECT_EQ(rows.src(1), a);
  EXPECT_EQ(rows.proto(1), 17);
  EXPECT_EQ(rows.packets(1), 5u);
  EXPECT_EQ(rows.bytes(1), 200u);
  EXPECT_EQ(rows.src(2), b);
  EXPECT_EQ(rows.packets(2), 9u);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows.router(i), 2u);
    EXPECT_EQ(rows.ts_ns(i), 7 * std::int64_t{86'400'000'000'000});
  }
  EXPECT_TRUE(canonical_rows({}, 0, 0).empty());
}

TEST(FlowDataset, CellsMustTileTheWindow) {
  FlowSimConfig c;
  c.start_day = 4;
  c.end_day = 6;
  const auto tiled = [] {
    std::vector<RouterDay> cells;
    for (std::uint16_t router = 0; router < kRouterCount; ++router) {
      for (std::int64_t day = 4; day < 6; ++day) {
        RouterDay cell;
        cell.router = router;
        cell.day = day;
        cells.push_back(std::move(cell));
      }
    }
    return cells;
  };
  const FlowDataset ok(c, tiled());
  EXPECT_EQ(&ok.at(1, 5), &ok.cells()[3]);
  EXPECT_THROW(ok.at(kRouterCount, 4), std::out_of_range);
  EXPECT_THROW(ok.at(0, 6), std::out_of_range);

  std::vector<RouterDay> short_grid = tiled();
  short_grid.pop_back();
  EXPECT_THROW(FlowDataset(c, std::move(short_grid)), std::invalid_argument);
  std::vector<RouterDay> swapped = tiled();
  std::swap(swapped[0], swapped[1]);
  EXPECT_THROW(FlowDataset(c, std::move(swapped)), std::invalid_argument);
}

// ------------------------------------------------------------------- stream

TEST(StreamMonitor, SeriesMathIsConsistent) {
  StreamMonitorConfig config;
  config.start = net::SimTime::epoch();
  config.bin_width = net::Duration::seconds(1);
  config.bin_count = 10;
  UserTrafficConfig user_config;
  user_config.base_pps = 100;
  user_config.diurnal_amplitude = 0;
  StreamMonitor monitor(config, UserTrafficModel(user_config));

  // 5 AH packets in bin 0; 5 non-AH in bin 1.
  for (int i = 0; i < 5; ++i) {
    monitor.observe_scanner_packet(net::SimTime::at(net::Duration::millis(100 * i)),
                                   true);
    monitor.observe_scanner_packet(
        net::SimTime::at(net::Duration::millis(1000 + 100 * i)), false);
  }
  EXPECT_THROW(monitor.user_bins(), std::logic_error);
  monitor.finalize();
  EXPECT_THROW(monitor.finalize(), std::logic_error);

  EXPECT_EQ(monitor.ah_bins().total(), 5u);
  EXPECT_EQ(monitor.other_scanner_bins().total(), 5u);

  const auto inst = monitor.instantaneous_impact();
  ASSERT_EQ(inst.size(), 10u);
  const double denom0 = static_cast<double>(monitor.total_bins().bin(0));
  EXPECT_DOUBLE_EQ(inst[0], 5.0 / denom0);
  EXPECT_DOUBLE_EQ(inst[2], 0.0);

  const auto cumulative = monitor.cumulative_impact();
  // Cumulative share never exceeds the max instantaneous share.
  EXPECT_LE(cumulative.back(), *std::max_element(inst.begin(), inst.end()));

  const auto per24 = monitor.ah_rate_per_slash24(5);
  EXPECT_DOUBLE_EQ(per24[0], 1.0);  // 5 pkts/s over 5 /24s
}

}  // namespace
}  // namespace orion::flowsim

// NOTE: appended suite — NetFlow v5 wire codec.
#include "orion/flowsim/netflow5.hpp"

namespace orion::flowsim {
namespace {

NetflowV5Record sample_record(std::uint32_t i) {
  NetflowV5Record r;
  r.src = net::Ipv4Address(0xC0000200u + i);
  r.dst = net::Ipv4Address(0x14000000u + i);
  r.packets = 100 + i;
  r.octets = 4000 + i;
  r.first_uptime_ms = 1000 * i;
  r.last_uptime_ms = 1000 * i + 500;
  r.src_port = static_cast<std::uint16_t>(40000 + i);
  r.dst_port = 6379;
  r.tcp_flags = 0x02;
  r.protocol = 6;
  r.src_as = static_cast<std::uint16_t>(1001 + i);
  r.dst_as = 64512;
  return r;
}

TEST(NetflowV5, EncodeDecodeRoundTrip) {
  std::vector<NetflowV5Record> records;
  for (std::uint32_t i = 0; i < 30; ++i) records.push_back(sample_record(i));
  NetflowV5Header header;
  header.sys_uptime_ms = 123456;
  header.unix_secs = 1664582400;
  header.flow_sequence = 42;
  header.engine_id = 7;
  header.sampling_interval = 1000;

  const auto wire = encode_netflow_v5(header, records);
  EXPECT_EQ(wire.size(), kNetflowV5HeaderSize + 30 * kNetflowV5RecordSize);

  const auto decoded = decode_netflow_v5(wire);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->header.sys_uptime_ms, header.sys_uptime_ms);
  EXPECT_EQ(decoded->header.unix_secs, header.unix_secs);
  EXPECT_EQ(decoded->header.flow_sequence, header.flow_sequence);
  EXPECT_EQ(decoded->header.engine_id, header.engine_id);
  EXPECT_EQ(decoded->header.sampling_interval, header.sampling_interval);
  ASSERT_EQ(decoded->records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(decoded->records[i], records[i]) << i;
  }
}

TEST(NetflowV5, RejectsOversizedExport) {
  std::vector<NetflowV5Record> records(31);
  EXPECT_THROW(encode_netflow_v5({}, records), std::invalid_argument);
}

TEST(NetflowV5, DecodeRejectsMalformedInput) {
  const auto wire = encode_netflow_v5({}, std::vector<NetflowV5Record>{sample_record(1)});
  // Truncated.
  EXPECT_FALSE(decode_netflow_v5({wire.data(), wire.size() - 1}));
  EXPECT_FALSE(decode_netflow_v5({wire.data(), 10}));
  // Wrong version.
  auto bad = wire;
  bad[1] = 9;
  EXPECT_FALSE(decode_netflow_v5(bad));
  // Count exceeding the packet size.
  bad = wire;
  bad[3] = 30;
  EXPECT_FALSE(decode_netflow_v5(bad));
}

TEST(NetflowV5, EmptyExportIsValid) {
  const auto wire = encode_netflow_v5({}, {});
  const auto decoded = decode_netflow_v5(wire);
  ASSERT_TRUE(decoded);
  EXPECT_TRUE(decoded->records.empty());
}

}  // namespace
}  // namespace orion::flowsim

// NOTE: appended suite — NetFlow v5 <-> flow-table bridge.
#include "orion/flowsim/netflow_bridge.hpp"

namespace orion::flowsim {
namespace {

/// A cell whose rows are the canonical form of `counts`.
RouterDay cell_of(std::vector<KeyedCount> counts, std::uint16_t router,
                  std::int64_t day) {
  RouterDay cell;
  cell.router = router;
  cell.day = day;
  cell.rows = canonical_rows(std::move(counts), router, day);
  return cell;
}

TEST(NetflowBridge, RouterDayRoundTrips) {
  std::vector<KeyedCount> counts;
  net::Rng rng(8);
  for (int i = 0; i < 500; ++i) {
    const FlowKey key{net::Ipv4Address(0x0B000000u + static_cast<std::uint32_t>(i)),
                      static_cast<std::uint16_t>(1 + rng.bounded(65000)),
                      static_cast<pkt::TrafficType>(rng.bounded(3))};
    counts.push_back({key, 1 + rng.bounded(100000)});
  }
  const RouterDay day = cell_of(std::move(counts), 2, 9);

  const auto packets = export_router_day(day, 100, 3);
  // 500 flows at 30 records per export packet.
  EXPECT_EQ(packets.size(), (500 + 29) / 30);

  std::size_t rejected = 0;
  const FlowBatch decoded = ingest_flow_batch(packets, rejected);
  EXPECT_EQ(rejected, 0u);
  ASSERT_EQ(decoded.size(), 500u);
  EXPECT_TRUE(fold_flow_batch(decoded, day.router, day.day) == day.rows);
}

TEST(NetflowBridge, SequenceNumbersChain) {
  std::vector<KeyedCount> counts;
  for (int i = 0; i < 70; ++i) {
    counts.push_back({{net::Ipv4Address(static_cast<std::uint32_t>(i)), 80,
                       pkt::TrafficType::TcpSyn},
                      1});
  }
  const auto packets = export_router_day(cell_of(std::move(counts), 0, 0), 1000, 1);
  ASSERT_EQ(packets.size(), 3u);
  std::uint32_t expected_sequence = 0;
  for (const auto& wire : packets) {
    const auto decoded = decode_netflow_v5(wire);
    ASSERT_TRUE(decoded);
    EXPECT_EQ(decoded->header.flow_sequence, expected_sequence);
    EXPECT_EQ(decoded->header.sampling_interval, 1000);
    expected_sequence += static_cast<std::uint32_t>(decoded->records.size());
  }
  EXPECT_EQ(expected_sequence, 70u);
}

TEST(NetflowBridge, CorruptPacketsAreCountedNotFatal) {
  const RouterDay day =
      cell_of({{{net::Ipv4Address(1), 80, pkt::TrafficType::TcpSyn}, 5}}, 0, 0);
  auto packets = export_router_day(day, 100, 1);
  packets.push_back({0xDE, 0xAD});  // garbage
  std::size_t rejected = 0;
  const FlowBatch decoded = ingest_flow_batch(packets, rejected);
  EXPECT_EQ(rejected, 1u);
  EXPECT_TRUE(fold_flow_batch(decoded, 0, 0) == day.rows);
}

}  // namespace
}  // namespace orion::flowsim
