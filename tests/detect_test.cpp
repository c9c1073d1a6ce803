#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <sstream>
#include <vector>

#include "orion/detect/detector.hpp"
#include "orion/detect/lists.hpp"
#include "orion/detect/port_set.hpp"
#include "orion/detect/shard_detector.hpp"
#include "orion/detect/streaming.hpp"
#include "orion/netbase/rng.hpp"

namespace orion::detect {
namespace {

constexpr std::uint64_t kDarknetSize = 1000;

telescope::DarknetEvent make_event(const char* src, std::uint16_t port,
                                   std::int64_t day, std::uint64_t packets,
                                   std::uint64_t uniques,
                                   pkt::TrafficType type = pkt::TrafficType::TcpSyn,
                                   std::int64_t end_day = -1) {
  telescope::DarknetEvent e;
  e.key.src = *net::Ipv4Address::parse(src);
  e.key.dst_port = port;
  e.key.type = type;
  e.start = net::SimTime::at(net::Duration::days(day) + net::Duration::hours(6));
  e.end = end_day < 0 ? e.start + net::Duration::hours(2)
                      : net::SimTime::at(net::Duration::days(end_day) +
                                         net::Duration::hours(6));
  e.packets = packets;
  e.unique_dests = uniques;
  e.packets_by_tool[telescope::tool_index(pkt::ScanTool::Other)] = packets;
  return e;
}

telescope::EventDataset background_plus(std::vector<telescope::DarknetEvent> extra) {
  // 200 background sources with 1..5 same-day single-port events each keep
  // both ECDFs (per-event packets, per-day distinct ports) well-populated
  // and non-degenerate.
  std::vector<telescope::DarknetEvent> events;
  for (int s = 0; s < 200; ++s) {
    const std::string src =
        net::Ipv4Address(0x0A000000u + static_cast<std::uint32_t>(s)).to_string();
    for (int k = 0; k <= s % 5; ++k) {
      events.push_back(make_event(src.c_str(),
                                  static_cast<std::uint16_t>(80 + k), s % 5,
                                  5 + static_cast<std::uint64_t>(s % 7), 5));
    }
  }
  for (auto& e : extra) events.push_back(std::move(e));
  return telescope::EventDataset(std::move(events), kDarknetSize);
}

DetectorConfig test_config() {
  DetectorConfig config;
  config.packet_volume_alpha = 0.005;  // top ~5 of 1000 background events
  config.port_count_alpha = 0.005;
  return config;
}

// ------------------------------------------------------------- definition 1

TEST(Detector, Definition1FlagsDispersedEvents) {
  const auto dataset = background_plus({
      make_event("203.0.113.1", 23, 2, 150, 120),  // 12% >= 10% -> AH
      make_event("203.0.113.2", 23, 2, 150, 80),   // 8% -> not AH
  });
  const DetectionResult result = AggressiveScannerDetector(test_config()).detect(dataset);
  const DefinitionResult& d1 = result.of(Definition::AddressDispersion);
  EXPECT_TRUE(d1.ips.contains(*net::Ipv4Address::parse("203.0.113.1")));
  EXPECT_FALSE(d1.ips.contains(*net::Ipv4Address::parse("203.0.113.2")));
  EXPECT_EQ(d1.qualifying_events, 1u);
  EXPECT_EQ(d1.threshold, 0u);
}

TEST(Detector, Definition1BoundaryIsInclusive) {
  const auto dataset = background_plus({
      make_event("203.0.113.1", 23, 2, 100, 100),  // exactly 10%
  });
  const DetectionResult result = AggressiveScannerDetector(test_config()).detect(dataset);
  EXPECT_TRUE(result.of(Definition::AddressDispersion)
                  .ips.contains(*net::Ipv4Address::parse("203.0.113.1")));
}

// ------------------------------------------------------------- definition 2

TEST(Detector, Definition2UsesEcdfTail) {
  const auto dataset = background_plus({
      make_event("203.0.113.1", 23, 2, 100000, 90),  // giant event
  });
  const DetectionResult result = AggressiveScannerDetector(test_config()).detect(dataset);
  const DefinitionResult& d2 = result.of(Definition::PacketVolume);
  EXPECT_TRUE(d2.ips.contains(*net::Ipv4Address::parse("203.0.113.1")));
  EXPECT_GE(d2.threshold, 11u);     // at/above every background event
  EXPECT_LT(d2.threshold, 100000u); // below the giant
  // Background sources stay out (qualification is strictly greater).
  EXPECT_LT(d2.ips.size(), 10u);
}

// ------------------------------------------------------------- definition 3

TEST(Detector, Definition3CountsDailyDistinctPorts) {
  std::vector<telescope::DarknetEvent> sweep;
  for (std::uint16_t p = 1; p <= 60; ++p) {
    sweep.push_back(make_event("203.0.113.3", p, 2, 2, 2));
  }
  const auto dataset = background_plus(std::move(sweep));
  const DetectionResult result = AggressiveScannerDetector(test_config()).detect(dataset);
  const DefinitionResult& d3 = result.of(Definition::DistinctPorts);
  EXPECT_TRUE(d3.ips.contains(*net::Ipv4Address::parse("203.0.113.3")));
  EXPECT_GT(d3.threshold, 3u);
  EXPECT_LE(d3.threshold, 60u);
  // Sources with a single daily port never qualify.
  EXPECT_FALSE(d3.ips.contains(net::Ipv4Address(0x0A000000u)));
}

TEST(Detector, Definition3SplitsAcrossDays) {
  // 30 ports on each of two days — each day's count is 30, not 60.
  std::vector<telescope::DarknetEvent> sweep;
  for (std::uint16_t p = 1; p <= 30; ++p) {
    sweep.push_back(make_event("203.0.113.3", p, 2, 2, 2));
    sweep.push_back(make_event("203.0.113.3", static_cast<std::uint16_t>(100 + p),
                               3, 2, 2));
  }
  const auto dataset = background_plus(std::move(sweep));
  DetectorConfig config = test_config();
  config.port_count_alpha = 0.0005;  // threshold lands above 30
  const DetectionResult result = AggressiveScannerDetector(config).detect(dataset);
  const DefinitionResult& d3 = result.of(Definition::DistinctPorts);
  if (d3.threshold > 30) {
    EXPECT_FALSE(d3.ips.contains(*net::Ipv4Address::parse("203.0.113.3")));
  }
}

TEST(Detector, IcmpEventsDoNotCountAsPorts) {
  std::vector<telescope::DarknetEvent> events;
  for (int i = 0; i < 50; ++i) {
    events.push_back(make_event("203.0.113.4", 0, 2, 3, 3,
                                pkt::TrafficType::IcmpEchoReq));
  }
  const auto dataset = background_plus(std::move(events));
  const DetectionResult result = AggressiveScannerDetector(test_config()).detect(dataset);
  EXPECT_FALSE(result.of(Definition::DistinctPorts)
                   .ips.contains(*net::Ipv4Address::parse("203.0.113.4")));
}

// ------------------------------------------------------- daily / active sets

TEST(Detector, DailyAndActiveAccounting) {
  const auto dataset = background_plus({
      // Qualifying D1 event spanning days 1..3.
      make_event("203.0.113.1", 23, 1, 400, 400, pkt::TrafficType::TcpSyn, 3),
  });
  const DetectionResult result = AggressiveScannerDetector(test_config()).detect(dataset);
  const DefinitionResult& d1 = result.of(Definition::AddressDispersion);
  const net::Ipv4Address src = *net::Ipv4Address::parse("203.0.113.1");
  const auto day_index = [&](std::int64_t day) {
    return static_cast<std::size_t>(day - result.first_day);
  };
  const auto in = [&](const std::vector<net::Ipv4Address>& v) {
    return std::binary_search(v.begin(), v.end(), src);
  };
  EXPECT_TRUE(in(d1.daily[day_index(1)]));
  EXPECT_FALSE(in(d1.daily[day_index(2)]));
  EXPECT_TRUE(in(d1.active[day_index(1)]));
  EXPECT_TRUE(in(d1.active[day_index(2)]));
  EXPECT_TRUE(in(d1.active[day_index(3)]));
  EXPECT_FALSE(in(d1.active[day_index(4)]));
}

TEST(Detector, DailyAhPacketsIncludeAllTheirEvents) {
  const auto dataset = background_plus({
      make_event("203.0.113.1", 23, 2, 400, 400),  // qualifying
      make_event("203.0.113.1", 80, 2, 7, 7),      // small event, same src+day
  });
  const DetectionResult result = AggressiveScannerDetector(test_config()).detect(dataset);
  const DefinitionResult& d1 = result.of(Definition::AddressDispersion);
  const auto index = static_cast<std::size_t>(2 - result.first_day);
  EXPECT_EQ(d1.daily_ah_packets[index], 407u);
}

TEST(Detector, TotalPacketsPerDayCoverEverything) {
  const auto dataset = background_plus({});
  const DetectionResult result = AggressiveScannerDetector(test_config()).detect(dataset);
  std::uint64_t total = 0;
  for (const std::uint64_t day : result.total_event_packets_per_day) total += day;
  EXPECT_EQ(total, dataset.total_packets());
}

TEST(Detector, EmptyDatasetYieldsEmptyResult) {
  const telescope::EventDataset dataset({}, kDarknetSize);
  const DetectionResult result = AggressiveScannerDetector(test_config()).detect(dataset);
  for (const Definition d : kAllDefinitions) {
    EXPECT_TRUE(result.of(d).ips.empty());
    EXPECT_TRUE(result.of(d).daily.empty());
  }
}

TEST(Detector, ConfigValidation) {
  DetectorConfig config;
  config.dispersion_threshold = 0;
  EXPECT_THROW(AggressiveScannerDetector{config}, std::invalid_argument);
  config = {};
  config.packet_volume_alpha = 1.0;
  EXPECT_THROW(AggressiveScannerDetector{config}, std::invalid_argument);
  config = {};
  config.port_count_alpha = 0.0;
  EXPECT_THROW(AggressiveScannerDetector{config}, std::invalid_argument);

  // NaN fails every range test, in every detector: the batch one, the
  // streaming one and a shard's slice.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto set : {&DetectorConfig::dispersion_threshold,
                         &DetectorConfig::packet_volume_alpha,
                         &DetectorConfig::port_count_alpha}) {
    StreamingConfig streaming;
    streaming.base.*set = nan;
    EXPECT_THROW(AggressiveScannerDetector{streaming.base}, std::invalid_argument);
    EXPECT_THROW(StreamingDetector(streaming, kDarknetSize), std::invalid_argument);
    EXPECT_THROW(ShardDetectorSlice(streaming, kDarknetSize), std::invalid_argument);
  }
  StreamingConfig streaming;
  streaming.base.packet_volume_alpha = 1.0;
  EXPECT_THROW(StreamingDetector(streaming, kDarknetSize), std::invalid_argument);
  EXPECT_THROW(ShardDetectorSlice(streaming, kDarknetSize), std::invalid_argument);
}

// -------------------------------------------------------------------- lists

TEST(Lists, BuildMergesDefinitions) {
  const auto dataset = background_plus({
      make_event("203.0.113.1", 23, 2, 100000, 400),  // D1 + D2
  });
  const DetectionResult result = AggressiveScannerDetector(test_config()).detect(dataset);
  const auto entries = build_daily_lists(result);
  const net::Ipv4Address src = *net::Ipv4Address::parse("203.0.113.1");
  const auto it = std::find_if(entries.begin(), entries.end(),
                               [&](const DailyListEntry& e) { return e.ip == src; });
  ASSERT_NE(it, entries.end());
  EXPECT_TRUE(it->matches(Definition::AddressDispersion));
  EXPECT_TRUE(it->matches(Definition::PacketVolume));
  EXPECT_EQ(it->day, 2);
}

TEST(Lists, CsvRoundTrip) {
  std::vector<DailyListEntry> entries = {
      {5, *net::Ipv4Address::parse("203.0.113.1"), 0b011},
      {6, *net::Ipv4Address::parse("203.0.113.2"), 0b100},
  };
  std::stringstream stream;
  EXPECT_EQ(write_daily_lists_csv(entries, stream), 2u);
  const auto read = read_daily_lists_csv(stream);
  ASSERT_EQ(read.size(), 2u);
  EXPECT_EQ(read[0], entries[0]);
  EXPECT_EQ(read[1], entries[1]);
}

TEST(Lists, CsvRejectsMalformedInput) {
  const auto expect_throw = [](const std::string& content) {
    std::istringstream in(content);
    EXPECT_THROW(read_daily_lists_csv(in), std::runtime_error) << content;
  };
  expect_throw("wrong,header,row\n");
  expect_throw("date,ip,definitions\nnot-a-date,1.2.3.4,1\n");
  expect_throw("date,ip,definitions\n2021-01-05,999.2.3.4,1\n");
  expect_throw("date,ip,definitions\n2021-01-05,1.2.3.4,9\n");
  expect_throw("date,ip,definitions\n2021-01-05,1.2.3.4,\n");
  expect_throw("date,ip,definitions\n2021-01-05\n");
}

TEST(Lists, CsvErrorsCarryLineNumberAndReason) {
  // Corpus of malformed files: every rejection must name the offending
  // line and the reason, so an operator can fix a multi-megabyte list
  // without bisecting it.
  const auto message_of = [](const std::string& content) -> std::string {
    std::istringstream in(content);
    try {
      read_daily_lists_csv(in);
    } catch (const std::runtime_error& err) {
      return err.what();
    }
    return "";
  };
  const std::string good = "2021-01-05,1.2.3.4,1\n";
  const struct {
    std::string content;
    const char* line;
    const char* reason;
  } corpus[] = {
      {"definitions,ip,date\n", "line 1", "header"},
      {"date,ip,definitions\n" + good + "2021-01,5.6.7.8,1\n", "line 3",
       "bad date"},
      // Numeric-looking but non-digit date: must not slip through via a
      // partial integer parse.
      {"date,ip,definitions\n" + good + good + "abcd-ef-gh,5.6.7.8,1\n",
       "line 4", "bad date"},
      {"date,ip,definitions\n" + good + "20x1-01-05,5.6.7.8,1\n", "line 3",
       "bad date"},
      {"date,ip,definitions\n" + good + "2021-01-05,999.1.2.3,1\n", "line 3",
       "bad IP"},
      {"date,ip,definitions\n" + good + "2021-01-05,5.6.7.8,4\n", "line 3",
       "bad definition"},
      {"date,ip,definitions\n" + good + "2021-01-05,5.6.7.8,+\n", "line 3",
       "empty definition"},
      {"date,ip,definitions\n" + good + "2021-01-05,5.6.7.8\n", "line 3",
       "3 fields"},
  };
  for (const auto& expectation : corpus) {
    const std::string message = message_of(expectation.content);
    EXPECT_NE(message.find(expectation.line), std::string::npos)
        << expectation.content << " -> " << message;
    EXPECT_NE(message.find(expectation.reason), std::string::npos)
        << expectation.content << " -> " << message;
  }
}

TEST(Lists, CsvUsesCalendarDates) {
  std::vector<DailyListEntry> entries = {
      {365, *net::Ipv4Address::parse("1.2.3.4"), 1}};
  std::stringstream stream;
  write_daily_lists_csv(entries, stream);
  EXPECT_NE(stream.str().find("2022-01-01"), std::string::npos);
}

}  // namespace
}  // namespace orion::detect

// NOTE: appended suite — online/streaming detection.
#include "orion/detect/streaming.hpp"

namespace orion::detect {
namespace {

StreamingConfig streaming_config() {
  StreamingConfig config;
  config.base = test_config();
  config.warmup_samples = 100;
  return config;
}

TEST(StreamingDetector, EmitsDayResultsAtBoundaries) {
  StreamingDetector detector(streaming_config(), kDarknetSize);
  // Day 0: background; day 1: one big dispersed event; day 3: trigger.
  for (int i = 0; i < 300; ++i) {
    EXPECT_TRUE(detector.observe(make_event("10.0.0.1", 80, 0, 5, 5)).empty());
  }
  const auto none = detector.observe(make_event("203.0.113.1", 23, 1, 400, 400));
  ASSERT_EQ(none.size(), 1u);  // day 0 closed
  EXPECT_EQ(none[0].day, 0);

  const auto results = detector.observe(make_event("10.0.0.2", 80, 3, 5, 5));
  ASSERT_EQ(results.size(), 2u);  // days 1 and 2 closed
  EXPECT_EQ(results[0].day, 1);
  EXPECT_TRUE(results[0].calibrated);
  const auto& d1_list = results[0].daily[0];
  EXPECT_TRUE(std::binary_search(d1_list.begin(), d1_list.end(),
                                 *net::Ipv4Address::parse("203.0.113.1")));
  // Day 2 had no events at all.
  EXPECT_TRUE(results[1].daily[0].empty());

  const auto last = detector.finish();
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->day, 3);
  EXPECT_FALSE(detector.finish().has_value());
}

TEST(StreamingDetector, WithholdsListsDuringWarmup) {
  StreamingConfig config = streaming_config();
  config.warmup_samples = 1000000;  // never warm
  StreamingDetector detector(config, kDarknetSize);
  detector.observe(make_event("203.0.113.1", 23, 0, 400, 400));
  const auto results = detector.observe(make_event("10.0.0.1", 80, 1, 5, 5));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].calibrated);
  EXPECT_TRUE(results[0].daily[0].empty());  // even D1 withheld pre-warmup
}

TEST(StreamingDetector, RejectsOutOfOrderDays) {
  StreamingDetector detector(streaming_config(), kDarknetSize);
  detector.observe(make_event("10.0.0.1", 80, 5, 5, 5));
  EXPECT_THROW(detector.observe(make_event("10.0.0.1", 80, 4, 5, 5)),
               std::invalid_argument);
}

TEST(StreamingDetector, AgreesWithBatchOnDefinition1) {
  // D1 is threshold-free, so streaming and batch must match exactly.
  std::vector<telescope::DarknetEvent> events;
  for (int s = 0; s < 200; ++s) {
    const std::string src =
        net::Ipv4Address(0x0A000000u + static_cast<std::uint32_t>(s)).to_string();
    events.push_back(make_event(src.c_str(), 80, s % 5, 5, s % 3 == 0 ? 150 : 5));
  }
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) { return a.start < b.start; });
  const telescope::EventDataset dataset(events, kDarknetSize);
  const DetectionResult batch =
      AggressiveScannerDetector(test_config()).detect(dataset);

  StreamingConfig config = streaming_config();
  config.warmup_samples = 0;
  StreamingDetector streaming(config, kDarknetSize);
  for (const auto& e : dataset.events()) streaming.observe(e);
  streaming.finish();
  EXPECT_EQ(streaming.ips(Definition::AddressDispersion),
            batch.of(Definition::AddressDispersion).ips);
}

TEST(StreamingDetector, RejectsZeroDarknet) {
  EXPECT_THROW(StreamingDetector(streaming_config(), 0), std::invalid_argument);
}

}  // namespace
}  // namespace orion::detect

// NOTE: appended suite — spoofing/misconfiguration filter.
#include "orion/detect/spoof_filter.hpp"
#include "orion/scangen/noise.hpp"

namespace orion::detect {
namespace {

net::PrefixSet filter_dark_space() {
  return net::PrefixSet({*net::Prefix::parse("198.18.0.0/22")});
}

TEST(SpoofFilter, BogonDetection) {
  EXPECT_TRUE(SpoofFilter::is_bogon(*net::Ipv4Address::parse("10.1.2.3")));
  EXPECT_TRUE(SpoofFilter::is_bogon(*net::Ipv4Address::parse("192.168.1.1")));
  EXPECT_TRUE(SpoofFilter::is_bogon(*net::Ipv4Address::parse("127.0.0.1")));
  EXPECT_TRUE(SpoofFilter::is_bogon(*net::Ipv4Address::parse("224.0.0.5")));
  EXPECT_TRUE(SpoofFilter::is_bogon(*net::Ipv4Address::parse("255.255.255.255")));
  EXPECT_TRUE(SpoofFilter::is_bogon(*net::Ipv4Address::parse("100.64.0.1")));
  EXPECT_FALSE(SpoofFilter::is_bogon(*net::Ipv4Address::parse("8.8.8.8")));
  EXPECT_FALSE(SpoofFilter::is_bogon(*net::Ipv4Address::parse("203.0.113.1")));
}

TEST(SpoofFilter, FlagsBogonAndOwnSpaceSources) {
  SpoofFilter filter({}, filter_dark_space());
  SpoofFilterStats stats;
  const auto clean = filter.run(
      {
          make_event("11.1.1.1", 23, 0, 100, 100),     // clean
          make_event("192.168.0.7", 23, 0, 100, 100),  // bogon
          make_event("198.18.1.9", 23, 0, 100, 100),   // inside the darknet
      },
      stats);
  EXPECT_EQ(clean.size(), 1u);
  EXPECT_EQ(stats.clean, 1u);
  EXPECT_EQ(stats.bogon, 1u);
  EXPECT_EQ(stats.own_space, 1u);
  EXPECT_EQ(stats.total(), 3u);
}

TEST(SpoofFilter, FlagsMisconfiguration) {
  // Long-lived, chatty, single-destination event.
  auto misconfig = make_event("11.1.1.1", 443, 0, 2000, 1);
  misconfig.end = misconfig.start + net::Duration::days(2);
  // A real (short) small scan with one destination stays clean.
  const auto small_scan = make_event("11.1.1.2", 443, 0, 3, 1);
  SpoofFilter filter({}, filter_dark_space());
  SpoofFilterStats stats;
  const auto clean = filter.run({misconfig, small_scan}, stats);
  ASSERT_EQ(clean.size(), 1u);
  EXPECT_EQ(clean[0].key.src, small_scan.key.src);
  EXPECT_EQ(stats.misconfiguration, 1u);
}

TEST(SpoofFilter, FlagsSpoofedBurstsButNotScatteredSingles) {
  std::vector<telescope::DarknetEvent> events;
  // Burst: 100 distinct sources, one packet each, same port, same minute.
  for (int i = 0; i < 100; ++i) {
    auto e = make_event(
        net::Ipv4Address(0x0B000000u + static_cast<std::uint32_t>(i)).to_string().c_str(),
        8080, 0, 1, 1);
    events.push_back(e);
  }
  // Scattered singles: different ports, spread over days -> clean.
  for (int i = 0; i < 20; ++i) {
    events.push_back(make_event(
        net::Ipv4Address(0x0C000000u + static_cast<std::uint32_t>(i)).to_string().c_str(),
        static_cast<std::uint16_t>(1000 + i), i % 5, 1, 1));
  }
  SpoofFilter filter({}, filter_dark_space());
  SpoofFilterStats stats;
  const auto clean = filter.run(events, stats);
  EXPECT_EQ(stats.backscatter, 100u);
  EXPECT_EQ(clean.size(), 20u);
}

TEST(SpoofFilter, CleansSynthesizedNoiseWithoutTouchingScans) {
  // Inject generator noise into a legitimate-scan background; the filter
  // must remove nearly all noise while keeping every real scan.
  scangen::NoiseEventsConfig noise_config;
  noise_config.window_start_day = 0;
  noise_config.window_end_day = 14;
  noise_config.spoofed_bursts = 6;
  noise_config.sources_per_burst = 200;
  noise_config.misconfigured_hosts = 25;
  const auto noise = scangen::synthesize_noise_events(noise_config);

  std::vector<telescope::DarknetEvent> events;
  std::unordered_set<net::Ipv4Address> scan_sources;
  for (int s = 0; s < 300; ++s) {
    auto e = make_event(
        net::Ipv4Address(0xCB000000u + static_cast<std::uint32_t>(s)).to_string().c_str(),
        static_cast<std::uint16_t>(20 + s % 40), s % 14, 40 + s % 200,
        20 + static_cast<std::uint64_t>(s % 100));
    scan_sources.insert(e.key.src);
    events.push_back(e);
  }
  const std::size_t scan_count = events.size();
  events.insert(events.end(), noise.begin(), noise.end());

  SpoofFilter filter({}, filter_dark_space());
  SpoofFilterStats stats;
  const auto clean = filter.run(events, stats);

  // All legitimate scans survive.
  std::size_t surviving_scans = 0;
  for (const auto& e : clean) surviving_scans += scan_sources.contains(e.key.src);
  EXPECT_EQ(surviving_scans, scan_count);
  // >90% of noise events are removed.
  const double noise_removed =
      static_cast<double>(stats.bogon + stats.misconfiguration + stats.backscatter) /
      static_cast<double>(noise.size());
  EXPECT_GT(noise_removed, 0.90);
}

TEST(SpoofFilter, NoiseSourcesWouldOtherwisePolluteD3) {
  // Without the filter, a spoofed burst inflates nothing for D1/D2 (one
  // packet, one dest) but the misconfigured hosts can reach high packet
  // counts; verify the filter keeps them out of the detector's D2 set.
  scangen::NoiseEventsConfig noise_config;
  noise_config.spoofed_bursts = 2;
  noise_config.misconfigured_hosts = 30;
  const auto noise = scangen::synthesize_noise_events(noise_config);
  auto dataset_events = noise;
  for (int s = 0; s < 500; ++s) {
    dataset_events.push_back(make_event(
        net::Ipv4Address(0xCB100000u + static_cast<std::uint32_t>(s)).to_string().c_str(),
        80, s % 14, 10 + s % 20, 10));
  }

  SpoofFilter filter({}, filter_dark_space());
  SpoofFilterStats stats;
  const auto clean = filter.run(dataset_events, stats);
  const telescope::EventDataset filtered(clean, 1000);
  const DetectionResult result =
      AggressiveScannerDetector(test_config()).detect(filtered);
  for (const auto& e : noise) {
    EXPECT_FALSE(result.of(Definition::PacketVolume).ips.contains(e.key.src));
  }
}

}  // namespace
}  // namespace orion::detect

// NOTE: appended suite — daily-list diffing.
#include "orion/detect/list_diff.hpp"

namespace orion::detect {
namespace {

DailyListEntry entry(std::int64_t day, const char* ip) {
  return {day, *net::Ipv4Address::parse(ip), 1};
}

TEST(ListDiff, AddedRemovedStable) {
  const std::vector<DailyListEntry> yesterday = {
      entry(5, "1.1.1.1"), entry(5, "2.2.2.2"), entry(5, "3.3.3.3")};
  const std::vector<DailyListEntry> today = {
      entry(6, "2.2.2.2"), entry(6, "3.3.3.3"), entry(6, "4.4.4.4"),
      entry(6, "5.5.5.5")};
  const ListDiff diff = diff_daily_lists(yesterday, today);
  ASSERT_EQ(diff.added.size(), 2u);
  EXPECT_EQ(diff.added[0], *net::Ipv4Address::parse("4.4.4.4"));
  ASSERT_EQ(diff.removed.size(), 1u);
  EXPECT_EQ(diff.removed[0], *net::Ipv4Address::parse("1.1.1.1"));
  EXPECT_EQ(diff.stable, 2u);
  EXPECT_GT(diff.churn(), 0.0);
}

TEST(ListDiff, IdenticalListsHaveZeroChurn) {
  const std::vector<DailyListEntry> list = {entry(1, "1.1.1.1"),
                                            entry(1, "2.2.2.2")};
  const ListDiff diff = diff_daily_lists(list, list);
  EXPECT_TRUE(diff.added.empty());
  EXPECT_TRUE(diff.removed.empty());
  EXPECT_DOUBLE_EQ(diff.churn(), 0.0);
}

TEST(ListDiff, ChurnSeriesWalksConsecutiveDays) {
  std::vector<DailyListEntry> entries = {
      entry(1, "1.1.1.1"), entry(1, "2.2.2.2"),
      entry(2, "2.2.2.2"), entry(2, "3.3.3.3"),
      entry(4, "3.3.3.3"),  // day 3 missing: diff is day2 -> day4
  };
  const auto series = churn_series(entries);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].first, 2);
  EXPECT_EQ(series[0].second.added.size(), 1u);
  EXPECT_EQ(series[0].second.removed.size(), 1u);
  EXPECT_EQ(series[1].first, 4);
  EXPECT_EQ(series[1].second.stable, 1u);
}

// ------------------------------------------------------------------ PortSet

// Model check across the small-vector -> bitmap promotion boundary: the
// flat set must agree with std::set<uint16_t> on every operation.
TEST(PortSet, AgreesWithSetModelAcrossPromotion) {
  PortSet flat;
  std::set<std::uint16_t> model;
  net::Rng rng(4);
  for (int step = 0; step < 4000; ++step) {
    const auto port = static_cast<std::uint16_t>(rng.bounded(200));
    EXPECT_EQ(flat.insert(port), model.insert(port).second);
    ASSERT_EQ(flat.size(), model.size());
  }
  for (std::uint16_t p = 0; p < 200; ++p) {
    EXPECT_EQ(flat.contains(p), model.count(p) > 0);
  }
  // for_each must visit in ascending order, same as the model.
  std::vector<std::uint16_t> visited;
  flat.for_each([&](std::uint16_t p) { visited.push_back(p); });
  EXPECT_EQ(visited, std::vector<std::uint16_t>(model.begin(), model.end()));
}

TEST(PortSet, SmallSetsStayInline) {
  PortSet set;
  for (std::uint16_t p : {80, 443, 22, 8080, 80, 443}) set.insert(p);
  EXPECT_EQ(set.size(), 4u);
  EXPECT_TRUE(set.contains(22));
  EXPECT_FALSE(set.contains(23));
  std::vector<std::uint16_t> visited;
  set.for_each([&](std::uint16_t p) { visited.push_back(p); });
  EXPECT_EQ(visited, (std::vector<std::uint16_t>{22, 80, 443, 8080}));
}

TEST(PortSet, CopiesAreIndependent) {
  PortSet a;
  for (std::uint16_t p = 0; p < 100; ++p) a.insert(p);  // promoted to bitmap
  PortSet b = a;
  EXPECT_EQ(a, b);
  b.insert(60000);
  EXPECT_NE(a, b);
  EXPECT_FALSE(a.contains(60000));
  EXPECT_TRUE(b.contains(60000));
  EXPECT_EQ(b.size(), 101u);
}

TEST(PortSet, HandlesExtremePortValues) {
  PortSet set;
  EXPECT_TRUE(set.insert(0));
  EXPECT_TRUE(set.insert(65535));
  EXPECT_FALSE(set.insert(65535));
  for (std::uint16_t p = 1; p <= 30; ++p) set.insert(p);  // force promotion
  EXPECT_TRUE(set.contains(0));
  EXPECT_TRUE(set.contains(65535));
  EXPECT_EQ(set.size(), 32u);
}

}  // namespace
}  // namespace orion::detect

// NOTE: appended suite — the D1–D3 day-close against references that
// share none of its code: pinned checkpoint and list bytes, thresholds
// recomputed with plain loops, and shard slices fed directly in shuffled
// order. Plus the OCP1 restore paths' handling of lying element counts.
#include <map>
#include <memory>

#include "orion/detect/shard_detector.hpp"
#include "orion/netbase/shard.hpp"
#include "orion/scangen/event_synth.hpp"
#include "orion/scangen/packet_gen.hpp"
#include "orion/scangen/scenario.hpp"
#include "orion/stats/ecdf.hpp"
#include "orion/telescope/checkpoint.hpp"
#include "orion/telescope/parallel.hpp"

#include "crc_pins.hpp"

namespace orion::detect {
namespace {

const scangen::Scenario& tiny_scenario() {
  static const scangen::Scenario scenario{scangen::tiny()};
  return scenario;
}

std::uint64_t tiny_darknet() { return tiny_scenario().darknet().total_addresses(); }

/// The serial feed and detector configuration of examples/live_monitor.
const std::vector<telescope::DarknetEvent>& tiny_events() {
  static const auto events = scangen::synthesize_events(
      tiny_scenario().population_2021(),
      {.darknet_size = tiny_darknet(), .seed = 17});
  return events;
}

StreamingConfig tiny_config() {
  StreamingConfig config;
  config.base = {.dispersion_threshold = tiny_scenario().config().def1_dispersion,
                 .packet_volume_alpha = tiny_scenario().config().def2_alpha,
                 .port_count_alpha = tiny_scenario().config().def3_alpha};
  config.warmup_samples = 500;
  config.tolerate_late_events = true;
  return config;
}

using test_pins::checkpoint_bytes;
using test_pins::crc_of;
using test_pins::payload_crc;

std::string render(const std::vector<StreamingDayResult>& days) {
  std::ostringstream out;
  for (const StreamingDayResult& day : days) {
    out << day.day << '|' << day.calibrated << '|' << day.packet_threshold
        << '|' << day.port_threshold;
    for (const auto& list : day.daily) {
      out << '[';
      for (const net::Ipv4Address ip : list) out << ip.to_string() << ',';
      out << ']';
    }
    out << '\n';
  }
  return out.str();
}

struct SerialRun {
  std::vector<StreamingDayResult> days;
  std::array<IpSet, 3> ips;
};

SerialRun run_serial(const StreamingConfig& config,
                     const std::vector<telescope::DarknetEvent>& events) {
  SerialRun run;
  StreamingDetector detector(config, tiny_darknet());
  for (const auto& e : events) {
    for (auto& day : detector.observe(e)) run.days.push_back(std::move(day));
  }
  if (auto last = detector.finish()) run.days.push_back(std::move(*last));
  for (std::size_t d = 0; d < 3; ++d) run.ips[d] = detector.ips(kAllDefinitions[d]);
  return run;
}

// Checkpoint payload and list bytes pinned from the implementation that
// kept the serial and sharded day-close as two separate copies.
TEST(DayClose, PinnedCheckpointAndListBytes) {
  const auto& events = tiny_events();
  const std::size_t half = events.size() / 2;
  ASSERT_EQ(events[half - 1].day(), events[half].day());  // mid-day cut

  StreamingDetector detector(tiny_config(), tiny_darknet());
  std::vector<StreamingDayResult> days;
  std::uint32_t mid_day_crc = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i == half) mid_day_crc = payload_crc(checkpoint_bytes(detector));
    for (auto& day : detector.observe(events[i])) days.push_back(std::move(day));
  }
  if (auto last = detector.finish()) days.push_back(std::move(*last));

  EXPECT_EQ(mid_day_crc, 0x439c47d9u);
  // The final snapshot is the file `live_monitor --checkpoint F` leaves.
  EXPECT_EQ(payload_crc(checkpoint_bytes(detector)), 0x21b13670u);
  EXPECT_EQ(crc_of(render(days)), 0x4ebe963fu);
}

TEST(DayClose, PinnedShardedCheckpointBytes) {
  scangen::PacketStreamGenerator generator(
      tiny_scenario().population_2021().scanners, tiny_scenario().darknet(),
      net::SimTime::epoch(), net::SimTime::epoch() + net::Duration::days(5),
      {.seed = 17, .exact_targets = true, .stable_streams = true});
  std::vector<pkt::Packet> packets;
  while (auto p = generator.next()) packets.push_back(*p);

  const std::pair<std::size_t, std::uint32_t> pins[] = {
      {1, 0x8e1d70f4u}, {2, 0xc91d5c0au}, {3, 0xd504ddedu}, {5, 0xc18bf823u}};
  for (const auto& [shards, pin] : pins) {
    telescope::ParallelConfig config;
    config.shards = shards;
    config.aggregator.timeout = tiny_scenario().event_timeout();
    config.detector = tiny_config();
    telescope::ParallelPipeline pipeline(tiny_scenario().darknet(), config);
    for (std::size_t i = 0; i < packets.size() / 2; ++i) pipeline.observe(packets[i]);
    EXPECT_EQ(payload_crc(checkpoint_bytes(pipeline)), pin) << shards << " shards";
  }
}

// With a sample capacity above every sample count, bottom-k keeps every
// sample and each day's thresholds and lists have exact values.
TEST(DayClose, ThresholdsEqualPlainLoopsWhenEverySampleIsKept) {
  const auto& events = tiny_events();
  StreamingConfig config = tiny_config();
  config.ecdf_reservoir = events.size();  // >= packet and port sample counts

  std::map<std::int64_t, std::set<net::Ipv4Address>> d1;
  std::map<std::int64_t, std::map<net::Ipv4Address, std::uint64_t>> best;
  std::map<std::int64_t, std::map<net::Ipv4Address, std::set<std::uint16_t>>> ports;
  for (const auto& e : events) {
    if (e.dispersion(tiny_darknet()) >= config.base.dispersion_threshold) {
      d1[e.day()].insert(e.key.src);
    }
    auto& max = best[e.day()][e.key.src];
    max = std::max(max, e.packets);
    if (e.key.type != pkt::TrafficType::IcmpEchoReq) {
      ports[e.day()][e.key.src].insert(e.key.dst_port);
    }
  }

  std::vector<StreamingDayResult> want;
  std::array<IpSet, 3> want_ips;
  const std::int64_t first_day = best.begin()->first;
  const std::int64_t last_day = best.rbegin()->first;
  for (std::int64_t day = first_day; day <= last_day; ++day) {
    std::vector<std::uint64_t> packets_so_far;  // events with start day <= day
    for (const auto& e : events) {
      if (e.day() <= day) packets_so_far.push_back(e.packets);
    }
    std::vector<std::uint64_t> port_counts_before;  // (day', src), day' < day
    for (const auto& [d, sources] : ports) {
      if (d >= day) break;
      for (const auto& [src, set] : sources) port_counts_before.push_back(set.size());
    }
    StreamingDayResult r;
    r.day = day;
    r.calibrated = packets_so_far.size() >= config.warmup_samples;
    if (r.calibrated) {
      r.packet_threshold = stats::Ecdf(packets_so_far)
                               .top_alpha_threshold(config.base.packet_volume_alpha);
      if (!port_counts_before.empty()) {
        r.port_threshold = stats::Ecdf(port_counts_before)
                               .top_alpha_threshold(config.base.port_count_alpha);
      }
      r.daily[0].assign(d1[day].begin(), d1[day].end());
      for (const auto& [src, packets] : best[day]) {
        if (packets > r.packet_threshold) r.daily[1].push_back(src);
      }
      for (const auto& [src, set] : ports[day]) {
        if (r.port_threshold > 0 && set.size() >= r.port_threshold) {
          r.daily[2].push_back(src);
        }
      }
      for (std::size_t d = 0; d < 3; ++d) {
        want_ips[d].insert(r.daily[d].begin(), r.daily[d].end());
      }
    }
    want.push_back(std::move(r));
  }
  // The feed exercises every branch: warm-up days, and D2/D3 lists.
  EXPECT_FALSE(want.front().calibrated);
  EXPECT_FALSE(want_ips[1].empty());
  EXPECT_FALSE(want_ips[2].empty());

  const SerialRun got = run_serial(config, events);
  ASSERT_EQ(got.days.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.days[i], want[i]) << "day " << want[i].day;
  }
  EXPECT_EQ(got.ips, want_ips);
}

// Slices reached directly, not through the packet pipeline: any source
// partition, any per-slice event order, and sample truncation (small
// capacity) all merge to the serial detector's output.
TEST(DayClose, ShuffledSlicesMergeToTheSerialDetector) {
  const auto& events = tiny_events();
  StreamingConfig small = tiny_config();
  small.ecdf_reservoir = 256;
  for (const StreamingConfig& config : {tiny_config(), small}) {
    const SerialRun serial = run_serial(config, events);
    for (const std::size_t shards : {1, 2, 5}) {
      std::vector<std::vector<telescope::DarknetEvent>> parts(shards);
      for (const auto& e : events) parts[net::shard_of(e.key.src, shards)].push_back(e);
      net::Rng rng(shards);
      std::vector<std::unique_ptr<ShardDetectorSlice>> slices;
      std::vector<const ShardDetectorSlice*> views;
      for (auto& part : parts) {
        for (std::size_t i = part.size(); i > 1; --i) {
          std::swap(part[i - 1], part[rng.bounded(i)]);
        }
        slices.push_back(std::make_unique<ShardDetectorSlice>(config, tiny_darknet()));
        for (const auto& e : part) slices.back()->observe(e);
        slices.back()->seal();
        views.push_back(slices.back().get());
      }
      const MergedDetection merged = merge_shard_slices(views);
      EXPECT_EQ(merged.days, serial.days)
          << shards << " shards, capacity " << config.ecdf_reservoir;
      EXPECT_EQ(merged.ips, serial.ips);
      EXPECT_EQ(merged.events_seen, events.size());
    }
  }
}

/// Re-frames an OCP1 container with the payload u64 at `offset` replaced,
/// under a valid CRC: a snapshot that lies without being corrupt.
std::string with_payload_u64(const std::string& frame, std::size_t offset,
                             std::uint64_t value) {
  // OCP1 frame: magic(4) version(8) length(8) payload crc(4).
  std::vector<std::uint8_t> payload(frame.begin() + 20, frame.end() - 4);
  for (std::size_t i = 0; i < 8; ++i) {
    payload.at(offset + i) = static_cast<std::uint8_t>(value >> (8 * i));
  }
  telescope::CheckpointWriter writer;
  writer.bytes(payload);
  std::vector<std::uint8_t> out;
  writer.finish(out);
  return {out.begin(), out.end()};
}

// ------------------------------------------------ SDS1 fields that lie

/// The SDS1 payload of a slice holding one day: 203.0.113.1 with dispersed
/// TCP events to ports 80 and 81 (10 packets each) and 203.0.113.2 with one
/// to port 80 (20 packets). The day's three tables end the payload:
///   D1 set      count, .1, .2                          at kD1 from the end
///   best table  count, (.1, 10), (.2, 20)              at kBest
///   port table  count, (.1, 2, 80, 81), (.2, 1, 80)    at kPorts
struct SlicePayload {
  static constexpr std::size_t kPorts = 8 * 8;
  static constexpr std::size_t kBest = kPorts + 5 * 8;
  static constexpr std::size_t kD1 = kBest + 3 * 8;
  std::vector<std::uint8_t> bytes;

  SlicePayload() {
    ShardDetectorSlice slice(tiny_config(), tiny_darknet());
    const auto event = [](const char* src, std::uint16_t port, std::uint64_t packets) {
      telescope::DarknetEvent e;
      e.key.src = *net::Ipv4Address::parse(src);
      e.key.dst_port = port;
      e.start = net::SimTime::epoch() + net::Duration::hours(1);
      e.end = e.start + net::Duration::minutes(5);
      e.packets = packets;
      e.unique_dests = tiny_darknet();
      return e;
    };
    slice.observe(event("203.0.113.1", 80, 10));
    slice.observe(event("203.0.113.1", 81, 10));
    slice.observe(event("203.0.113.2", 80, 20));
    const std::string frame = test_pins::checkpoint_bytes(slice);
    bytes.assign(frame.begin() + 20, frame.end() - 4);
  }
  /// The u64 `back` bytes before the payload's end.
  std::uint64_t at(std::size_t back) const {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      v |= std::uint64_t{bytes[bytes.size() - back + i]} << (8 * i);
    }
    return v;
  }
  void set(std::size_t back, std::uint64_t v) {
    for (std::size_t i = 0; i < 8; ++i) {
      bytes[bytes.size() - back + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
  /// Restores the payload, resealed, into a fresh slice and merges that
  /// day alone: its published D1–D3 lists.
  std::string restore() const {
    telescope::CheckpointWriter writer;
    writer.bytes(bytes);
    std::vector<std::uint8_t> frame;
    writer.finish(frame);
    telescope::CheckpointReader reader(frame);
    ShardDetectorSlice restored(tiny_config(), tiny_darknet());
    restored.restore(reader);
    restored.seal();
    return render(merge_shard_slices({&restored}).days);
  }
  /// Expects restore() to throw a std::runtime_error naming `field`.
  void expect_refused(const std::string& field) const {
    try {
      restore();
      ADD_FAILURE() << "restored a payload whose " << field << " lies";
    } catch (const std::runtime_error& err) {
      EXPECT_NE(std::string(err.what()).find(field), std::string::npos) << err.what();
    }
  }
};

std::uint64_t address(const char* text) { return net::Ipv4Address::parse(text)->value(); }

TEST(SliceCheckpoint, TheLayoutTheLiesEdit) {
  const SlicePayload payload;
  EXPECT_EQ(payload.at(SlicePayload::kD1), 2u);
  EXPECT_EQ(payload.at(SlicePayload::kD1 - 8), address("203.0.113.1"));
  EXPECT_EQ(payload.at(SlicePayload::kD1 - 16), address("203.0.113.2"));
  EXPECT_EQ(payload.at(SlicePayload::kBest), 2u);
  EXPECT_EQ(payload.at(SlicePayload::kBest - 8), address("203.0.113.1"));
  EXPECT_EQ(payload.at(SlicePayload::kBest - 16), 10u);
  EXPECT_EQ(payload.at(SlicePayload::kBest - 24), address("203.0.113.2"));
  EXPECT_EQ(payload.at(SlicePayload::kBest - 32), 20u);
  EXPECT_EQ(payload.at(SlicePayload::kPorts), 2u);
  EXPECT_EQ(payload.at(SlicePayload::kPorts - 8), address("203.0.113.1"));
  EXPECT_EQ(payload.at(SlicePayload::kPorts - 16), 2u);
  EXPECT_EQ(payload.at(SlicePayload::kPorts - 24), 80u);
  EXPECT_EQ(payload.at(SlicePayload::kPorts - 32), 81u);
  EXPECT_EQ(payload.at(SlicePayload::kPorts - 40), address("203.0.113.2"));
  EXPECT_EQ(payload.at(SlicePayload::kPorts - 48), 1u);
  EXPECT_EQ(payload.at(SlicePayload::kPorts - 56), 80u);
  EXPECT_NO_THROW(payload.restore());
}

// Ports are u16 values in u64 slots. Port 65,617 used to be cut to 81, so
// (65617, 81) restored as the one-port set {81}: one port fewer toward D3.
TEST(SliceCheckpoint, PortOutsideSixteenBitsIsATypedError) {
  SlicePayload payload;
  payload.set(SlicePayload::kPorts - 24, 65617);
  payload.expect_refused("field out of range: port");
}

// Each source's ports are written strictly ascending; a repeat used to
// restore as one port.
TEST(SliceCheckpoint, RepeatedPortIsATypedError) {
  SlicePayload payload;
  payload.set(SlicePayload::kPorts - 24, 81);
  payload.expect_refused("not strictly ascending: port");
}

// A repeated source in the port table used to merge both rows' ports into
// one source and drop the other source.
TEST(SliceCheckpoint, RepeatedPortSourceIsATypedError) {
  SlicePayload payload;
  payload.set(SlicePayload::kPorts - 40, address("203.0.113.1"));
  payload.expect_refused("not strictly ascending: port source");
}

// A repeated source in the best-packets table used to keep the last row's
// packets for it and drop the other source: a different D2 candidate.
TEST(SliceCheckpoint, RepeatedBestPacketsSourceIsATypedError) {
  SlicePayload payload;
  payload.set(SlicePayload::kBest - 24, address("203.0.113.1"));
  payload.expect_refused("not strictly ascending: best source");
}

// IP sets (D1 here; SDT2's cumulative sets share the reader) are written
// strictly ascending; a repeat used to restore as one member.
TEST(SliceCheckpoint, RepeatedIpSetMemberIsATypedError) {
  SlicePayload payload;
  payload.set(SlicePayload::kD1 - 16, address("203.0.113.1"));
  payload.expect_refused("not strictly ascending: ip");
}

// Addresses are u32 values in u64 slots; one with a high bit set used to
// be cut to 32 bits, here into the other D1 member.
TEST(SliceCheckpoint, AddressOutsideThirtyTwoBitsIsATypedError) {
  SlicePayload payload;
  payload.set(SlicePayload::kD1 - 16, std::uint64_t{1} << 32 | address("203.0.113.1"));
  payload.expect_refused("field out of range: ip");
}

TEST(CheckpointCounts, LyingCountIsATypedError) {
  constexpr std::uint64_t kLie = std::uint64_t{1} << 40;
  {
    // SDT2 of a fresh detector: tag, config echo (3 f64, 4 u64), two empty
    // samplers (seen, size), day-open u8 and current day, then the first
    // IP-set count.
    StreamingDetector fresh(tiny_config(), tiny_darknet());
    constexpr std::size_t kFirstIpSetCount = 8 + 7 * 8 + 2 * 16 + 1 + 8;
    const std::string lie =
        with_payload_u64(checkpoint_bytes(fresh), kFirstIpSetCount, kLie);
    telescope::CheckpointReader reader(test_pins::frame_bytes(lie));
    StreamingDetector restored(tiny_config(), tiny_darknet());
    EXPECT_THROW(restored.restore(reader), std::runtime_error);
  }
  {
    // PPL2 of an idle pipeline: tag, shard count, darknet size, saw-packet
    // u8, last timestamp, ingested, three ledger counters, then shard 0's
    // delivered count and its event-list count.
    telescope::ParallelConfig config;
    config.shards = 2;
    config.detector = tiny_config();
    constexpr std::size_t kShard0EventCount = 3 * 8 + 1 + 2 * 8 + 3 * 8 + 8;
    std::string frame;
    {
      telescope::ParallelPipeline idle(tiny_scenario().darknet(), config);
      frame = checkpoint_bytes(idle);
    }
    const std::string lie = with_payload_u64(frame, kShard0EventCount, kLie);
    telescope::CheckpointReader reader(test_pins::frame_bytes(lie));
    telescope::ParallelPipeline restored(tiny_scenario().darknet(), config);
    EXPECT_THROW(restored.restore(reader), std::runtime_error);
  }
}

}  // namespace
}  // namespace orion::detect
