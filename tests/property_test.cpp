// Randomized cross-module property tests: conservation laws and
// agreement between independent implementations, swept over seeds.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <unordered_set>

#include "orion/detect/streaming.hpp"
#include "orion/flowsim/flows.hpp"
#include "orion/scangen/event_synth.hpp"
#include "orion/scangen/packet_gen.hpp"
#include "orion/scangen/scenario.hpp"
#include "orion/store/mapped.hpp"
#include "orion/store/ode2.hpp"
#include "orion/telescope/aggregator.hpp"

namespace orion {
namespace {

class SeedSweep : public testing::TestWithParam<std::uint64_t> {};

// --- PrefixSet vs naive linear scan ------------------------------------------

TEST_P(SeedSweep, PrefixSetAgreesWithLinearScan) {
  net::Rng rng(GetParam());
  std::vector<net::Prefix> prefixes;
  net::PrefixSet set;
  // Random disjoint prefixes: carve /16s of distinct first octets.
  for (int i = 0; i < 12; ++i) {
    const auto octet = static_cast<std::uint8_t>(30 + i * 3 + rng.bounded(2));
    const int length = 14 + static_cast<int>(rng.bounded(7));
    const net::Prefix p(net::Ipv4Address::from_octets(octet, 0, 0, 0), length);
    if (std::any_of(prefixes.begin(), prefixes.end(), [&](const net::Prefix& q) {
          return q.contains(p) || p.contains(q);
        })) {
      continue;
    }
    prefixes.push_back(p);
    set.add(p);
  }
  for (int trial = 0; trial < 3000; ++trial) {
    const net::Ipv4Address a(static_cast<std::uint32_t>(rng.next()));
    const bool naive = std::any_of(prefixes.begin(), prefixes.end(),
                                   [&](const net::Prefix& p) { return p.contains(a); });
    ASSERT_EQ(set.contains(a), naive) << a.to_string();
  }
}

// --- packet path vs analytic path over random sessions ------------------------

TEST_P(SeedSweep, AggregatorMatchesSynthOnRandomSession) {
  net::Rng rng(GetParam() ^ 0xABCDull);
  const std::uint64_t darknet_size = 1024;
  net::PrefixSet space({*net::Prefix::parse("198.18.0.0/22")});

  scangen::ScannerProfile scanner;
  scanner.source = net::Ipv4Address(0x0B000000u + static_cast<std::uint32_t>(rng.next() & 0xFFFF));
  scanner.tool = static_cast<pkt::ScanTool>(rng.bounded(3));
  scanner.rng_stream = rng.next();
  scangen::SessionSpec session;
  session.start = net::SimTime::at(net::Duration::minutes(
      static_cast<std::int64_t>(rng.bounded(600))));
  session.duration =
      net::Duration::minutes(30 + static_cast<std::int64_t>(rng.bounded(180)));
  session.coverage = 0.05 + rng.uniform() * 0.95;
  session.repeats = 1 + static_cast<int>(rng.bounded(3));
  session.ports = {{static_cast<std::uint16_t>(1 + rng.bounded(65000)),
                    pkt::TrafficType::TcpSyn}};
  scanner.sessions.push_back(session);

  telescope::EventCollector collector;
  telescope::AggregatorConfig config;
  config.timeout = net::Duration::hours(2);
  telescope::EventAggregator agg(space, config, collector.sink());
  scangen::PacketStreamGenerator gen({scanner}, space, net::SimTime::epoch(),
                                     session.end() + net::Duration::hours(1),
                                     {.seed = GetParam(), .exact_targets = true});
  while (auto p = gen.next()) agg.observe(*p);
  agg.finish();

  ASSERT_EQ(collector.events().size(), 1u);
  const telescope::DarknetEvent& event = collector.events()[0];
  // Conservation: packets == repeats * uniques, uniques within 5 sigma of
  // Binomial(darknet, coverage), key preserved.
  EXPECT_EQ(event.packets,
            event.unique_dests * static_cast<std::uint64_t>(session.repeats));
  const double mean = session.coverage * static_cast<double>(darknet_size);
  const double sigma =
      std::sqrt(mean * (1.0 - session.coverage)) + 1.0;
  EXPECT_NEAR(static_cast<double>(event.unique_dests), mean, 5 * sigma);
  EXPECT_EQ(event.key.src, scanner.source);
  EXPECT_EQ(event.key.dst_port, session.ports[0].port);
  EXPECT_GE(event.start, session.start);
  EXPECT_LE(event.end, session.end());
}

// --- flow conservation ----------------------------------------------------------

TEST_P(SeedSweep, FlowTotalsConserveSessionArrivals) {
  // One scanner fully inside the flow window: the sum of scanner packets
  // across routers and days must be binomially consistent with the
  // session model, and sampled estimates must track ground truth.
  net::Rng rng(GetParam() ^ 0x99ull);
  scangen::Population population;
  scangen::ScannerProfile scanner;
  scanner.source = net::Ipv4Address(0x0B000000u + static_cast<std::uint32_t>(GetParam()));
  scanner.rng_stream = 5;
  scangen::SessionSpec session;
  session.start = net::SimTime::at(net::Duration::days(2) + net::Duration::hours(3));
  session.duration = net::Duration::hours(30);
  session.coverage = 0.2 + rng.uniform() * 0.8;
  session.ports = {{23, pkt::TrafficType::TcpSyn}};
  scanner.sessions.push_back(session);
  population.scanners.push_back(scanner);

  const scangen::Scenario scenario{scangen::tiny()};
  flowsim::FlowSimConfig config;
  config.isp_space = scenario.merit();
  config.start_day = 1;
  config.end_day = 6;
  config.sampling_rate = 10;
  config.seed = GetParam();
  config.user.base_pps = 100;
  const auto flows = generate_flows(population, scenario.registry(),
                                    flowsim::PeeringPolicy::merit_like(), config);

  std::uint64_t truth = 0, sampled = 0;
  for (std::size_t router = 0; router < flowsim::kRouterCount; ++router) {
    for (std::int64_t day = 1; day < 6; ++day) {
      const auto& rd = flows.at(router, day);
      truth += rd.scanner_packets;
      for (std::size_t i = 0; i < rd.rows.size(); ++i) {
        EXPECT_EQ(rd.rows.src(i), scanner.source);
        sampled += rd.rows.packets(i);
      }
    }
  }
  const double expected =
      session.coverage * static_cast<double>(scenario.merit().total_addresses());
  EXPECT_NEAR(static_cast<double>(truth), expected, 5 * std::sqrt(expected) + 10);
  EXPECT_NEAR(static_cast<double>(sampled) * config.sampling_rate,
              static_cast<double>(truth),
              5.0 * config.sampling_rate * std::sqrt(static_cast<double>(sampled) + 1));
}

// --- event store round-trip on synthesized data ----------------------------------

TEST_P(SeedSweep, EventStoreRoundTripsSynthesizedDatasets) {
  const scangen::Scenario scenario{scangen::tiny()};
  const telescope::EventDataset original(
      scangen::synthesize_events(
          scenario.population_2021(),
          {.darknet_size = scenario.darknet().total_addresses(),
           .seed = GetParam()}),
      scenario.darknet().total_addresses());
  // The PID keeps concurrently running test processes apart.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("orion_property_test_" + std::to_string(::getpid()) + "_" +
        std::to_string(GetParam()) + ".ode2"))
          .string();
  store::write_events_ode2_file(original, path);
  const telescope::EventDataset restored =
      store::MappedEventStore(path).to_dataset();
  std::remove(path.c_str());
  EXPECT_EQ(restored.darknet_size(), original.darknet_size());
  EXPECT_EQ(restored.events(), original.events());
}

// --- streaming vs batch daily lists -----------------------------------------------

TEST_P(SeedSweep, StreamingDailyD1ListsMatchBatch) {
  const scangen::Scenario scenario{scangen::tiny()};
  const telescope::EventDataset dataset(
      scangen::synthesize_events(
          scenario.population_2021(),
          {.darknet_size = scenario.darknet().total_addresses(),
           .seed = GetParam() ^ 0x777ull}),
      scenario.darknet().total_addresses());
  const detect::DetectorConfig config{
      .dispersion_threshold = 0.10,
      .packet_volume_alpha = scenario.config().def2_alpha,
      .port_count_alpha = scenario.config().def3_alpha};
  const detect::DetectionResult batch =
      detect::AggressiveScannerDetector(config).detect(dataset);

  detect::StreamingDetector streaming({.base = config, .warmup_samples = 0},
                                      scenario.darknet().total_addresses());
  std::map<std::int64_t, std::vector<net::Ipv4Address>> daily;
  const auto record = [&](const detect::StreamingDayResult& day) {
    daily[day.day] = day.daily[0];
  };
  for (const auto& e : dataset.events()) {
    for (const auto& day : streaming.observe(e)) record(day);
  }
  if (const auto last = streaming.finish()) record(*last);

  // Definition 1 is threshold-free: per-day lists must match exactly.
  const auto& d1 = batch.of(detect::Definition::AddressDispersion);
  for (std::size_t i = 0; i < d1.daily.size(); ++i) {
    const std::int64_t day = batch.first_day + static_cast<std::int64_t>(i);
    const auto it = daily.find(day);
    const std::vector<net::Ipv4Address> streamed =
        it == daily.end() ? std::vector<net::Ipv4Address>{} : it->second;
    EXPECT_EQ(streamed, d1.daily[i]) << "day " << day;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace orion
