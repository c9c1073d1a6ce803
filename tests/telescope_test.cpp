#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <tuple>
#include <vector>

#include "orion/packet/batch.hpp"
#include "orion/packet/builder.hpp"
#include "orion/scangen/event_synth.hpp"
#include "orion/scangen/packet_gen.hpp"
#include "orion/scangen/scenario.hpp"
#include "orion/telescope/aggregator.hpp"
#include "orion/telescope/capture.hpp"
#include "orion/telescope/checkpoint.hpp"
#include "orion/telescope/timeout.hpp"

#include "crc_pins.hpp"
#include "expiry_streams.hpp"

namespace orion::telescope {
namespace {

net::Ipv4Address ip(const char* text) { return *net::Ipv4Address::parse(text); }

net::PrefixSet dark_space() {
  return net::PrefixSet({*net::Prefix::parse("198.18.0.0/24")});
}

pkt::Packet probe(net::SimTime t, const char* src, const char* dst,
                  std::uint16_t port) {
  pkt::ProbeBuilder builder(ip(src), pkt::ScanTool::Other, net::Rng(1));
  return builder.tcp_syn(t, ip(dst), port);
}

// ------------------------------------------------------------------ timeout

TEST(Timeout, PaperParametersGiveAboutTenMinutes) {
  // 475k dark IPs, 100 pps, 2-day scan -> the paper's "around 10 minutes".
  const net::Duration timeout =
      derive_timeout(475000, 100.0, net::Duration::days(2));
  EXPECT_GT(timeout, net::Duration::minutes(8));
  EXPECT_LT(timeout, net::Duration::minutes(15));
}

TEST(Timeout, ScalesInverselyWithDarknetSize) {
  const net::Duration big = derive_timeout(475000, 100.0, net::Duration::days(2));
  const net::Duration small = derive_timeout(32768, 100.0, net::Duration::days(2));
  EXPECT_GT(small, big);  // smaller darknet -> rarer hits -> longer timeout
}

TEST(Timeout, RejectsBadInputs) {
  EXPECT_THROW(derive_timeout(0, 100, net::Duration::days(1)),
               std::invalid_argument);
  EXPECT_THROW(derive_timeout(1000, 0, net::Duration::days(1)),
               std::invalid_argument);
  EXPECT_THROW(derive_timeout(1000, 100, net::Duration::seconds(0)),
               std::invalid_argument);
}

// --------------------------------------------------------------- aggregator

AggregatorConfig fast_config() {
  AggregatorConfig config;
  config.timeout = net::Duration::minutes(10);
  config.sweep_interval = net::Duration::minutes(1);
  return config;
}

TEST(EventAggregator, SingleScanYieldsOneEvent) {
  EventCollector collector;
  EventAggregator agg(dark_space(), fast_config(), collector.sink());
  net::SimTime t = net::SimTime::epoch();
  for (int i = 0; i < 256; ++i) {
    pkt::Packet p = probe(t, "203.0.113.1", "198.18.0.0", 23);
    p.tuple.dst = net::Ipv4Address(ip("198.18.0.0").value() + i);
    agg.observe(p);
    t = t + net::Duration::seconds(1);
  }
  agg.finish();
  ASSERT_EQ(collector.events().size(), 1u);
  const DarknetEvent& e = collector.events()[0];
  EXPECT_EQ(e.packets, 256u);
  EXPECT_EQ(e.unique_dests, 256u);
  EXPECT_DOUBLE_EQ(e.dispersion(256), 1.0);
  EXPECT_EQ(e.key.src, ip("203.0.113.1"));
  EXPECT_EQ(e.key.dst_port, 23);
  EXPECT_EQ(e.start, net::SimTime::epoch());
  EXPECT_EQ(e.end, net::SimTime::epoch() + net::Duration::seconds(255));
}

/// The event one source's sweep of the /17 10.8.0.0/17 leaves: `dests`
/// distinct destinations in a shuffled order, 10 ms apart, all inside one
/// 10-minute timeout.
DarknetEvent sweep_of_a_slash17(std::size_t dests) {
  const net::PrefixSet dark({*net::Prefix::parse("10.8.0.0/17")});
  std::vector<std::uint64_t> order(dark.total_addresses());
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), std::mt19937_64(5));
  EventCollector collector;
  EventAggregator agg(dark, fast_config(), collector.sink());
  pkt::ProbeBuilder builder(ip("203.0.113.1"), pkt::ScanTool::ZMap, net::Rng(4));
  for (std::size_t i = 0; i < dests; ++i) {
    agg.observe(builder.tcp_syn(net::SimTime::epoch() +
                                    net::Duration::millis(10 * static_cast<std::int64_t>(i)),
                                dark.address_at(order[i]), 23));
  }
  agg.finish();
  EXPECT_EQ(collector.events().size(), 1u);
  return collector.events().empty() ? DarknetEvent{} : collector.events()[0];
}

// Destination counts are exact past 16,384, where the aggregator once
// switched to an HLL estimate: every address of a /17 is the whole dark
// space, dispersion 1.0.
TEST(EventAggregator, SweepOfEveryAddressOfASlash17IsExact) {
  const DarknetEvent e = sweep_of_a_slash17(32768);
  EXPECT_EQ(e.unique_dests, 32768u);
  EXPECT_DOUBLE_EQ(e.dispersion(32768), 1.0);
}

TEST(EventAggregator, TwentyThousandDestinationsCountExactly) {
  EXPECT_EQ(sweep_of_a_slash17(20000).unique_dests, 20000u);
}

TEST(EventAggregator, TimeoutSplitsIdleScans) {
  EventCollector collector;
  EventAggregator agg(dark_space(), fast_config(), collector.sink());
  agg.observe(probe(net::SimTime::epoch(), "203.0.113.1", "198.18.0.1", 80));
  // Second packet after more than the 10-minute timeout.
  agg.observe(probe(net::SimTime::epoch() + net::Duration::minutes(25),
                    "203.0.113.1", "198.18.0.2", 80));
  agg.finish();
  EXPECT_EQ(collector.events().size(), 2u);
}

TEST(EventAggregator, GapBelowTimeoutDoesNotSplit) {
  EventCollector collector;
  EventAggregator agg(dark_space(), fast_config(), collector.sink());
  agg.observe(probe(net::SimTime::epoch(), "203.0.113.1", "198.18.0.1", 80));
  agg.observe(probe(net::SimTime::epoch() + net::Duration::minutes(9),
                    "203.0.113.1", "198.18.0.2", 80));
  agg.finish();
  EXPECT_EQ(collector.events().size(), 1u);
}

TEST(EventAggregator, SeparatesByPortTypeAndSource) {
  EventCollector collector;
  EventAggregator agg(dark_space(), fast_config(), collector.sink());
  const net::SimTime t = net::SimTime::epoch();
  agg.observe(probe(t, "203.0.113.1", "198.18.0.1", 23));
  agg.observe(probe(t, "203.0.113.1", "198.18.0.1", 2323));
  agg.observe(probe(t, "203.0.113.2", "198.18.0.1", 23));
  pkt::ProbeBuilder udp_builder(ip("203.0.113.1"), pkt::ScanTool::Other,
                                net::Rng(2));
  agg.observe(udp_builder.udp_probe(t, ip("198.18.0.1"), 23));  // UDP/23
  agg.finish();
  EXPECT_EQ(collector.events().size(), 4u);
}

TEST(EventAggregator, IcmpEventsUsePortZero) {
  EventCollector collector;
  EventAggregator agg(dark_space(), fast_config(), collector.sink());
  pkt::ProbeBuilder builder(ip("203.0.113.1"), pkt::ScanTool::Other, net::Rng(3));
  agg.observe(builder.icmp_echo(net::SimTime::epoch(), ip("198.18.0.9")));
  agg.finish();
  ASSERT_EQ(collector.events().size(), 1u);
  EXPECT_EQ(collector.events()[0].key.dst_port, 0);
  EXPECT_EQ(collector.events()[0].key.type, pkt::TrafficType::IcmpEchoReq);
}

TEST(EventAggregator, IgnoresNonScanningAndOutOfSpace) {
  EventCollector collector;
  EventAggregator agg(dark_space(), fast_config(), collector.sink());
  // SYN-ACK backscatter into the dark space: counted, not an event.
  pkt::Packet backscatter = probe(net::SimTime::epoch(), "203.0.113.1",
                                  "198.18.0.1", 80);
  backscatter.tcp_flags = pkt::TcpFlags::kSyn | pkt::TcpFlags::kAck;
  agg.observe(backscatter);
  // Scanning packet to an address OUTSIDE the dark space.
  agg.observe(probe(net::SimTime::epoch(), "203.0.113.1", "8.8.8.8", 80));
  agg.finish();
  EXPECT_EQ(collector.events().size(), 0u);
  EXPECT_EQ(agg.packets_seen(), 2u);
  EXPECT_EQ(agg.ignored_non_scanning(), 1u);
  EXPECT_EQ(agg.ignored_out_of_space(), 1u);
  EXPECT_EQ(agg.scanning_packets(), 0u);
}

TEST(EventAggregator, RejectsTimeRegression) {
  EventCollector collector;
  EventAggregator agg(dark_space(), fast_config(), collector.sink());
  agg.observe(probe(net::SimTime::at(net::Duration::seconds(100)), "203.0.113.1",
                    "198.18.0.1", 80));
  EXPECT_THROW(agg.observe(probe(net::SimTime::at(net::Duration::seconds(99)),
                                 "203.0.113.1", "198.18.0.1", 80)),
               std::invalid_argument);
}

TEST(EventAggregator, AdvanceToExpiresIdleEvents) {
  EventCollector collector;
  EventAggregator agg(dark_space(), fast_config(), collector.sink());
  agg.observe(probe(net::SimTime::epoch(), "203.0.113.1", "198.18.0.1", 80));
  EXPECT_EQ(agg.live_events(), 1u);
  agg.advance_to(net::SimTime::epoch() + net::Duration::hours(1));
  EXPECT_EQ(agg.live_events(), 0u);
  EXPECT_EQ(collector.events().size(), 1u);
}

TEST(EventAggregator, ToolAttributionPerPacket) {
  EventCollector collector;
  EventAggregator agg(dark_space(), fast_config(), collector.sink());
  pkt::ProbeBuilder zmap(ip("203.0.113.1"), pkt::ScanTool::ZMap, net::Rng(4));
  pkt::ProbeBuilder mirai(ip("203.0.113.1"), pkt::ScanTool::Mirai, net::Rng(5));
  net::SimTime t = net::SimTime::epoch();
  for (int i = 0; i < 3; ++i) {
    agg.observe(zmap.tcp_syn(t, ip("198.18.0.1"), 23));
    t = t + net::Duration::seconds(1);
  }
  agg.observe(mirai.tcp_syn(t, ip("198.18.0.2"), 23));
  agg.finish();
  ASSERT_EQ(collector.events().size(), 1u);
  const DarknetEvent& e = collector.events()[0];
  EXPECT_EQ(e.packets_by_tool[tool_index(pkt::ScanTool::ZMap)], 3u);
  EXPECT_EQ(e.packets_by_tool[tool_index(pkt::ScanTool::Mirai)], 1u);
  EXPECT_EQ(e.dominant_tool(), pkt::ScanTool::ZMap);
}

// ------------------------------------------------------------------ capture

TEST(TelescopeCapture, DatasetStatistics) {
  TelescopeCapture capture(dark_space(), fast_config());
  net::SimTime t = net::SimTime::at(net::Duration::days(5));
  for (int src = 0; src < 4; ++src) {
    pkt::ProbeBuilder builder(net::Ipv4Address(0xCB007100u + src),
                              pkt::ScanTool::Other, net::Rng(src));
    for (int i = 0; i < 10; ++i) {
      capture.observe(builder.tcp_syn(t, net::Ipv4Address(ip("198.18.0.0").value() + i),
                                      22));
      t = t + net::Duration::seconds(2);
    }
  }
  const EventDataset dataset = capture.finish();
  EXPECT_EQ(capture.packets_captured(), 40u);
  EXPECT_EQ(capture.unique_sources(), 4u);
  EXPECT_EQ(dataset.event_count(), 4u);
  EXPECT_EQ(dataset.total_packets(), 40u);
  EXPECT_EQ(dataset.unique_sources(), 4u);
  EXPECT_EQ(dataset.first_day(), 5);
  EXPECT_EQ(dataset.last_day(), 5);
}

// ------------------------- packet-level vs analytic cross-validation -------

struct CrossCheckCase {
  double coverage;
  int repeats;
};

class SynthVsAggregator : public testing::TestWithParam<CrossCheckCase> {};

// The central property test: feeding the packet generator's output through
// the real aggregator must reproduce the analytic event synthesizer's
// event, statistically (same model, independent draws).
TEST_P(SynthVsAggregator, EventShapesAgree) {
  const auto [coverage, repeats] = GetParam();
  const std::uint64_t darknet_size = 2048;
  net::PrefixSet space({*net::Prefix::parse("198.18.0.0/21")});
  ASSERT_EQ(space.total_addresses(), darknet_size);

  scangen::ScannerProfile scanner;
  scanner.source = ip("203.0.113.77");
  scanner.tool = pkt::ScanTool::ZMap;
  scanner.rng_stream = 11;
  scangen::SessionSpec session;
  session.start = net::SimTime::at(net::Duration::hours(1));
  session.duration = net::Duration::hours(2);
  session.coverage = coverage;
  session.repeats = repeats;
  session.ports = {{6379, pkt::TrafficType::TcpSyn}};
  scanner.sessions.push_back(session);

  // Packet path.
  EventCollector collector;
  EventAggregator agg(space, fast_config(), collector.sink());
  scangen::PacketStreamGenerator gen({scanner}, space, net::SimTime::epoch(),
                                     session.end() + net::Duration::hours(1),
                                     {.seed = 21, .exact_targets = true});
  while (auto p = gen.next()) agg.observe(*p);
  agg.finish();
  ASSERT_EQ(collector.events().size(), 1u);
  const DarknetEvent packet_event = collector.events()[0];

  // Analytic path.
  std::vector<DarknetEvent> synth;
  scangen::synthesize_scanner_events(scanner,
                                     {.darknet_size = darknet_size, .seed = 22},
                                     synth);
  ASSERT_EQ(synth.size(), 1u);
  const DarknetEvent& synth_event = synth[0];

  // Same key.
  EXPECT_EQ(packet_event.key.src, synth_event.key.src);
  EXPECT_EQ(packet_event.key.dst_port, synth_event.key.dst_port);
  // Unique destinations agree within binomial noise (4 sigma ~ 4*sqrt(npq)).
  const double expected_uniques = coverage * static_cast<double>(darknet_size);
  const double sigma =
      std::sqrt(expected_uniques * (1 - coverage)) + 1.0;
  EXPECT_NEAR(static_cast<double>(packet_event.unique_dests), expected_uniques,
              4 * sigma);
  EXPECT_NEAR(static_cast<double>(synth_event.unique_dests), expected_uniques,
              4 * sigma);
  // Packets = repeats * uniques on both paths.
  EXPECT_EQ(packet_event.packets,
            packet_event.unique_dests * static_cast<std::uint64_t>(repeats));
  EXPECT_EQ(synth_event.packets,
            synth_event.unique_dests * static_cast<std::uint64_t>(repeats));
  // Both events live inside the session window.
  for (const DarknetEvent& e : {packet_event, synth_event}) {
    EXPECT_GE(e.start, session.start);
    EXPECT_LE(e.end, session.end());
  }
  // Tool attribution is complete on both paths.
  EXPECT_EQ(packet_event.packets_by_tool[tool_index(pkt::ScanTool::ZMap)],
            packet_event.packets);
  EXPECT_EQ(synth_event.packets_by_tool[tool_index(pkt::ScanTool::ZMap)],
            synth_event.packets);
}

INSTANTIATE_TEST_SUITE_P(CoverageGrid, SynthVsAggregator,
                         testing::Values(CrossCheckCase{1.0, 1},
                                         CrossCheckCase{0.5, 1},
                                         CrossCheckCase{0.15, 1},
                                         CrossCheckCase{1.0, 2},
                                         CrossCheckCase{0.3, 3}));

TEST(SynthVsAggregatorPopulation, EventCountsAgreeOnTinyScenario) {
  // Whole-population cross-check over a short window.
  const scangen::Scenario scenario{scangen::tiny()};
  // Window covers every session start (14-day population window) plus the
  // longest session duration, so no session is truncated on either path.
  const net::SimTime t0 = net::SimTime::epoch();
  const net::SimTime t1 = net::SimTime::at(net::Duration::days(40));

  EventCollector collector;
  AggregatorConfig config = fast_config();
  config.timeout = scenario.event_timeout();
  EventAggregator agg(scenario.darknet(), config, collector.sink());
  scangen::PacketStreamGenerator gen(scenario.population_2021().scanners,
                                     scenario.darknet(), t0, t1,
                                     {.seed = 31, .exact_targets = true});
  while (auto p = gen.next()) agg.observe(*p);
  agg.finish();

  const auto synth = scangen::synthesize_events(
      scenario.population_2021(),
      {.darknet_size = scenario.darknet().total_addresses(), .seed = 32});
  std::size_t synth_in_window = 0;
  std::uint64_t synth_packets = 0;
  for (const DarknetEvent& e : synth) {
    ++synth_in_window;
    synth_packets += e.packets;
  }
  // Counts and packet mass agree within 25% (independent random draws, and
  // window-edge sessions are counted slightly differently).
  EXPECT_GT(collector.events().size(), 0u);
  EXPECT_NEAR(static_cast<double>(collector.events().size()),
              static_cast<double>(synth_in_window),
              0.25 * static_cast<double>(synth_in_window) + 10);
  std::uint64_t packet_total = 0;
  for (const DarknetEvent& e : collector.events()) packet_total += e.packets;
  EXPECT_NEAR(static_cast<double>(packet_total),
              static_cast<double>(synth_packets),
              0.30 * static_cast<double>(synth_packets) + 100);
}

// ------------------------------------------------------- expiry references
//
// observe() and observe_batch() share one expiry mechanism (the timing
// wheel, DESIGN.md §11.3), so per-packet vs chunked equivalence cannot
// catch a change to it. These references do not share its code: CRC-32
// pins of the sink-order emission sequence and of the aggregator's
// checkpoint bytes, recorded while observe() still expired events with a
// full-table scan (the checkpoint pins as AGG1, carried to AGG2 by a
// transcoder that shares no code with the writer), and a gap-split model
// of event delimitation.

using test_pins::checkpoint_bytes;
using test_pins::payload_crc;

/// A packet feed with the dark space and configuration it runs under;
/// `day_edges` closes every UTC day with advance_to() before its first
/// packet, as the longitudinal driver does.
struct ExpiryFeed {
  const char* name;
  std::vector<pkt::Packet> packets;
  net::PrefixSet dark;
  AggregatorConfig config;
  bool day_edges = false;

  /// The day edge advance_to() closes before record i, if any.
  std::optional<net::SimTime> day_edge_before(std::size_t i) const {
    if (!day_edges || i == 0) return std::nullopt;
    const std::int64_t day = packets[i].timestamp.day();
    if (day == packets[i - 1].timestamp.day()) return std::nullopt;
    return net::SimTime::at(net::Duration::days(day));
  }
};

/// The three pinned inputs. The day-rollover feed runs a 10-minute
/// timeout with hourly sweeps: under the tiny scenario's ~16.5-hour
/// timeout no event is idle long enough to expire at a day edge, so the
/// edges would pin nothing about advance_to().
std::vector<ExpiryFeed> expiry_feeds() {
  AggregatorConfig scenario_timeout;
  scenario_timeout.timeout = test_streams::scenario().event_timeout();
  AggregatorConfig hourly_sweeps;
  hourly_sweeps.sweep_interval = net::Duration::hours(1);
  const auto three_days = test_streams::scangen_stream(3);
  return {{"expiry storm", test_streams::expiry_storm_stream(),
           test_streams::small_dark_space(), test_streams::sweep_heavy_config()},
          {"tiny 3 days", three_days, test_streams::scenario().darknet(),
           scenario_timeout},
          {"tiny 3 days, advance_to at day edges", three_days,
           test_streams::scenario().darknet(), hourly_sweeps, true}};
}

/// Drives `agg` over the feed: packet by packet through observe() when
/// `batch_size` is 0, else through observe_batch() in chunks of that many
/// records. The pending chunk is flushed at day edges and before each
/// record index in `cuts` (ascending), where `at_cut` then runs.
void drive(const ExpiryFeed& feed, EventAggregator& agg, std::size_t batch_size,
           const std::vector<std::size_t>& cuts = {},
           const std::function<void()>& at_cut = {}) {
  pkt::PacketBatch batch;
  const auto flush = [&] {
    agg.observe_batch(batch);
    batch.clear();
  };
  auto cut = cuts.begin();
  for (std::size_t i = 0; i < feed.packets.size(); ++i) {
    if (const auto edge = feed.day_edge_before(i)) {
      flush();
      agg.advance_to(*edge);
    }
    if (cut != cuts.end() && *cut == i) {
      flush();
      at_cut();
      ++cut;
    }
    if (batch_size == 0) {
      agg.observe(feed.packets[i]);
      continue;
    }
    batch.push_back(feed.packets[i]);
    if (batch.size() == batch_size) flush();
  }
  flush();
}

struct PinnedRun {
  std::uint32_t emitted = 0;                // sink-order event list codec
  std::array<std::uint32_t, 3> agg = {};  // at 1/4, 1/2 and 3/4 of the feed

  bool operator==(const PinnedRun&) const = default;
};

std::ostream& operator<<(std::ostream& os, const PinnedRun& run) {
  return os << std::hex << "emitted 0x" << run.emitted << " agg 0x" << run.agg[0]
            << " 0x" << run.agg[1] << " 0x" << run.agg[2] << std::dec;
}

PinnedRun pinned_run(const ExpiryFeed& feed, std::size_t batch_size) {
  std::vector<DarknetEvent> emitted;
  EventAggregator agg(feed.dark, feed.config,
                      [&emitted](const DarknetEvent& e) { emitted.push_back(e); });
  PinnedRun run;
  const std::size_t n = feed.packets.size();
  std::size_t cut = 0;
  drive(feed, agg, batch_size, {n / 4, n / 2, 3 * n / 4},
        [&] { run.agg[cut++] = payload_crc(checkpoint_bytes(agg)); });
  agg.finish();
  CheckpointWriter writer;
  put_events(writer, emitted);
  std::vector<std::uint8_t> out;
  writer.finish(out);
  run.emitted = payload_crc({out.begin(), out.end()});
  return run;
}

TEST(ExpiryReference, PinnedEmissionOrderAndAggregatorBytes) {
  const PinnedRun pins[] = {
      {0xcd12f2dfu, {0xb68d57d3u, 0x42361a89u, 0x9f956ea9u}},
      {0x88e90460u, {0xaf6e7907u, 0xdbdcb0deu, 0xe6146830u}},
      {0x1462cf0fu, {0x4f9590eau, 0xb3c8b64au, 0xf6174871u}},
  };
  const auto feeds = expiry_feeds();
  for (std::size_t f = 0; f < feeds.size(); ++f) {
    for (const std::size_t batch_size : {0, 256}) {
      EXPECT_EQ(pinned_run(feeds[f], batch_size), pins[f])
          << feeds[f].name << ", batch size " << batch_size;
    }
  }
}

/// Independent model of event delimitation: an event is a maximal run of
/// one key's in-space scanning packets whose consecutive gaps are all
/// within the timeout. Returns the events in dataset order.
std::vector<DarknetEvent> gap_split_model(const ExpiryFeed& feed,
                                          std::array<std::uint64_t, 4>& counters) {
  struct Run {
    DarknetEvent event;
    std::set<std::uint32_t> dests;
  };
  std::map<EventKey, Run> open;
  std::vector<DarknetEvent> events;
  const auto close = [&events](Run& run) {
    run.event.unique_dests = run.dests.size();
    events.push_back(run.event);
  };
  counters = {};
  auto& [seen, scanning, out_of_space, non_scanning] = counters;
  for (const pkt::Packet& p : feed.packets) {
    ++seen;
    if (!feed.dark.contains(p.tuple.dst)) {
      ++out_of_space;
      continue;
    }
    const pkt::TrafficType type = p.traffic_type();
    if (type == pkt::TrafficType::Other) {
      ++non_scanning;
      continue;
    }
    ++scanning;
    const EventKey key{p.tuple.src,
                       type == pkt::TrafficType::IcmpEchoReq ? std::uint16_t{0}
                                                             : p.tuple.dst_port,
                       type};
    auto it = open.find(key);
    if (it != open.end() && p.timestamp - it->second.event.end > feed.config.timeout) {
      close(it->second);
      open.erase(it);
      it = open.end();
    }
    if (it == open.end()) {
      it = open.emplace(key, Run{}).first;
      it->second.event.key = key;
      it->second.event.start = p.timestamp;
    }
    Run& run = it->second;
    run.event.end = p.timestamp;
    ++run.event.packets;
    ++run.event.packets_by_tool[tool_index(pkt::fingerprint_of(p))];
    run.dests.insert(p.tuple.dst.value());
  }
  for (auto& [key, run] : open) close(run);
  return EventDataset(std::move(events), feed.dark.total_addresses()).events();
}

/// Out-of-space and non-scanning copies interleaved into a feed, so the
/// model also checks the classification counters.
std::vector<pkt::Packet> with_noise(const std::vector<pkt::Packet>& packets) {
  std::vector<pkt::Packet> out;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    out.push_back(packets[i]);
    pkt::Packet noise = packets[i];
    if (i % 7 == 0) {
      noise.tuple.dst = ip("8.8.8.8");
      out.push_back(noise);
    } else if (i % 11 == 0) {
      noise.tuple.proto = net::IpProto::Tcp;
      noise.tcp_flags = pkt::TcpFlags::kSyn | pkt::TcpFlags::kAck;
      out.push_back(noise);
    }
  }
  return out;
}

/// Sweeps of a /17 past 16,384 distinct destinations, where the
/// aggregator once switched to an HLL estimate: one of all 32,768
/// addresses and one of 20,000, each over an hour, among 150 short scans,
/// a third of them spaced past the timeout so each probe is an event.
ExpiryFeed wide_sweep_feed() {
  ExpiryFeed feed{"wide sweeps of a /17", {},
                  net::PrefixSet({*net::Prefix::parse("10.8.0.0/17")}), {}};
  feed.config.timeout = net::Duration::minutes(10);
  std::mt19937_64 rng(23);
  std::vector<std::uint64_t> order(feed.dark.total_addresses());
  std::iota(order.begin(), order.end(), 0);
  const auto scan = [&](std::uint32_t src, std::size_t probes, std::int64_t start_s,
                        std::int64_t span_s, std::uint16_t port) {
    std::shuffle(order.begin(), order.end(), rng);
    pkt::ProbeBuilder builder(net::Ipv4Address(src), pkt::ScanTool::ZMap, net::Rng(src));
    for (std::size_t i = 0; i < probes; ++i) {
      const std::int64_t at_ms =
          1000 * start_s + 1000 * span_s * static_cast<std::int64_t>(i) /
                               static_cast<std::int64_t>(probes);
      feed.packets.push_back(builder.tcp_syn(
          net::SimTime::epoch() + net::Duration::millis(at_ms),
          feed.dark.address_at(order[i]), port));
    }
  };
  scan(0xCB007101u, 32768, 0, 3600, 23);
  scan(0xCB007102u, 20000, 600, 3600, 80);
  for (std::uint32_t s = 0; s < 150; ++s) {
    scan(0xC6336400u + s, 20, static_cast<std::int64_t>(rng() % 7200),
         s % 3 == 0 ? 4 * 3600 : 1800, 443);
  }
  std::stable_sort(feed.packets.begin(), feed.packets.end(),
                   [](const pkt::Packet& a, const pkt::Packet& b) {
                     return a.timestamp < b.timestamp;
                   });
  return feed;
}

TEST(ExpiryReference, EventsEqualTheGapSplitModel) {
  std::vector<ExpiryFeed> feeds = expiry_feeds();
  feeds.push_back(wide_sweep_feed());
  for (ExpiryFeed& feed : feeds) {
    feed.packets = with_noise(feed.packets);
    std::array<std::uint64_t, 4> want_counters;
    const std::vector<DarknetEvent> want = gap_split_model(feed, want_counters);
    ASSERT_GT(want.size(), 100u) << feed.name;
    ASSERT_GT(want_counters[2], 0u) << feed.name;
    ASSERT_GT(want_counters[3], 0u) << feed.name;
    for (const std::size_t batch_size : {0, 256}) {
      EventCollector collector;
      EventAggregator agg(feed.dark, feed.config, collector.sink());
      drive(feed, agg, batch_size);
      agg.finish();
      const std::array<std::uint64_t, 4> counters = {
          agg.packets_seen(), agg.scanning_packets(), agg.ignored_out_of_space(),
          agg.ignored_non_scanning()};
      EXPECT_EQ(counters, want_counters) << feed.name << ", batch size " << batch_size;
      EXPECT_EQ(EventDataset(collector.take(), feed.dark.total_addresses()).events(), want)
          << feed.name << ", batch size " << batch_size;
    }
  }
  // The model's own counts for the wide feed reach past 16,384.
  std::array<std::uint64_t, 4> counters;
  std::vector<std::uint64_t> widest;
  for (const DarknetEvent& e : gap_split_model(feeds.back(), counters)) {
    if (e.unique_dests > 16384) widest.push_back(e.unique_dests);
  }
  std::sort(widest.begin(), widest.end());
  EXPECT_EQ(widest, (std::vector<std::uint64_t>{20000, 32768}));
}

TEST(ExpiryReference, NoEventIsEmittedBeforeItsTimeoutPasses) {
  for (const ExpiryFeed& feed : expiry_feeds()) {
    net::SimTime clock;
    bool finishing = false;
    std::size_t checked = 0;
    EventAggregator agg(feed.dark, feed.config, [&](const DarknetEvent& e) {
      if (finishing) return;
      EXPECT_GT(clock - e.end, feed.config.timeout) << feed.name;
      ++checked;
    });
    // Per-packet feeding, so every emission happens under the clock of
    // the packet being fed or the day edge being closed.
    for (std::size_t i = 0; i < feed.packets.size(); ++i) {
      if (const auto edge = feed.day_edge_before(i)) {
        clock = *edge;
        agg.advance_to(clock);
      }
      clock = feed.packets[i].timestamp;
      agg.observe(feed.packets[i]);
    }
    finishing = true;
    agg.finish();
    EXPECT_GT(checked, 100u) << feed.name;
  }
}

// ---------------------------------------------- checkpoint determinism

TEST(CaptureCheckpoint, RestoreThenCheckpointIsByteIdentical) {
  const auto packets = test_streams::scangen_stream(3);
  AggregatorConfig config;
  config.timeout = test_streams::scenario().event_timeout();
  const net::PrefixSet dark = test_streams::scenario().darknet();
  for (const std::size_t fifth : {1, 2, 3, 4}) {
    const std::size_t cut = fifth * packets.size() / 5;
    TelescopeCapture uninterrupted(dark, config);
    for (std::size_t i = 0; i < cut; ++i) uninterrupted.observe(packets[i]);
    const std::string snapshot = checkpoint_bytes(uninterrupted);

    TelescopeCapture resumed(dark, config);
    CheckpointReader reader(test_pins::frame_bytes(snapshot));
    resumed.restore(reader);
    EXPECT_EQ(payload_crc(checkpoint_bytes(resumed)), payload_crc(snapshot)) << "cut " << cut;

    for (std::size_t i = cut; i < packets.size(); ++i) {
      uninterrupted.observe(packets[i]);
      resumed.observe(packets[i]);
    }
    EXPECT_EQ(payload_crc(checkpoint_bytes(resumed)),
              payload_crc(checkpoint_bytes(uninterrupted)))
        << "cut " << cut;
  }
}

TEST(CaptureCheckpoint, RejectedPacketLeavesTheCheckpointUnchanged) {
  TelescopeCapture capture(dark_space(), fast_config());
  capture.observe(probe(net::SimTime::at(net::Duration::seconds(100)), "203.0.113.1",
                        "198.18.0.1", 80));
  const std::string before = checkpoint_bytes(capture);
  EXPECT_THROW(capture.observe(probe(net::SimTime::at(net::Duration::seconds(99)),
                                     "203.0.113.2", "198.18.0.1", 80)),
               std::invalid_argument);
  EXPECT_EQ(payload_crc(checkpoint_bytes(capture)), payload_crc(before));
  EXPECT_EQ(capture.packets_captured(), 1u);
  EXPECT_EQ(capture.unique_sources(), 1u);
}

// AGG2 payload pinned over a /8 dark space, whose destination offsets
// reach 2^24, so each event's offsets spread over many of its 256
// 2^16-offset chunks; the /22 and /24 feeds above fit one chunk. At the
// cut three events are live, each written as its ascending offsets (far
// fewer than the /8's 262,144 bitmap words): one with 50 destinations
// (offset 0 among them), one with about 12,000, and one with about
// 18,000, past the 16,384 where the set once became an HLL estimate.
TEST(AggregatorCheckpoint, PinnedWideDarkSpaceExactKeyBytes) {
  const net::PrefixSet dark({*net::Prefix::parse("10.0.0.0/8")});
  AggregatorConfig config;
  config.timeout = net::Duration::hours(1);
  struct Scan {
    const char* src;
    std::size_t packets;  // about half of them before the cut
    std::uint16_t port;
  };
  const Scan scans[] = {{"203.0.113.7", 100, 23},
                        {"203.0.113.8", 24000, 80},
                        {"203.0.113.9", 36000, 443}};
  const net::Duration span = net::Duration::minutes(30);
  std::mt19937_64 rng(8);
  std::vector<pkt::Packet> packets;
  for (const Scan& scan : scans) {
    pkt::ProbeBuilder builder(ip(scan.src), pkt::ScanTool::ZMap, net::Rng(9));
    for (std::size_t i = 0; i < scan.packets; ++i) {
      const net::SimTime t =
          net::SimTime::epoch() + span * static_cast<std::int64_t>(i) /
                                      static_cast<std::int64_t>(scan.packets);
      const std::uint32_t offset =
          i == 0 ? 0 : static_cast<std::uint32_t>(rng() & 0xFFFFFFu);
      packets.push_back(
          builder.tcp_syn(t, net::Ipv4Address(0x0A000000u | offset), scan.port));
    }
  }
  std::stable_sort(packets.begin(), packets.end(),
                   [](const pkt::Packet& a, const pkt::Packet& b) {
                     return a.timestamp < b.timestamp;
                   });

  EventAggregator agg(dark, config, {});
  const std::size_t cut = packets.size() / 2;
  for (std::size_t i = 0; i < cut; ++i) agg.observe(packets[i]);
  EXPECT_EQ(agg.live_events(), 3u);
  EXPECT_EQ(payload_crc(checkpoint_bytes(agg)), 0x54a8c0e0u);
}

// AGG2 payload of an aggregator with one live event: tag, config echo (2
// fields), prefix count and the prefixes (base, length), saw-packet u8,
// last timestamp, next sweep, five counters, then the live-event count and
// the one entry, which runs to the end: key (src, port, type u8), start,
// last seen, packets, per-tool packets and the destination count, then
// the ascending offsets when fewer than the bitmap's (darknet + 63) / 64
// words, else those words. The /24 takes 4 words.
constexpr std::size_t live_count_at(std::size_t prefixes) {
  return 8 + 2 * 8 + 8 + 16 * prefixes + 1 + 2 * 8 + 5 * 8;
}
constexpr std::size_t dest_count_at(std::size_t prefixes) {
  return live_count_at(prefixes) + 8 + 2 * 8 + 1 + 3 * 8 + sizeof(ToolPackets);
}
constexpr std::size_t kFirstKey = dest_count_at(1) + 8;

/// A /24 and a /27: 288 addresses, whose 5-word bitmap has 32 bits past
/// the dark space.
net::PrefixSet padded_dark_space() {
  return net::PrefixSet({*net::Prefix::parse("198.18.0.0/24"),
                         *net::Prefix::parse("198.18.1.0/27")});
}

/// The AGG2 payload of an aggregator fed one probe to each destination.
std::vector<std::uint8_t> one_event_payload(std::initializer_list<const char*> dsts,
                                            const net::PrefixSet& dark = dark_space()) {
  EventAggregator agg(dark, fast_config(), {});
  for (const char* dst : dsts) {
    agg.observe(probe(net::SimTime::epoch(), "203.0.113.1", dst, 23));
  }
  const std::string frame = checkpoint_bytes(agg);
  // OCP1 frame: magic(4) version(8) length(8) payload crc(4).
  return {frame.begin() + 20, frame.end() - 4};
}

/// Re-frames an edited AGG2 payload and restores it into a fresh aggregator.
void restore_payload(const std::vector<std::uint8_t>& payload,
                     const net::PrefixSet& dark = dark_space()) {
  CheckpointWriter writer;
  writer.bytes(payload);
  std::vector<std::uint8_t> frame;
  writer.finish(frame);
  CheckpointReader reader(frame);
  EventAggregator restored(dark, fast_config(), {});
  restored.restore(reader);
}

std::uint64_t load_u64(const std::vector<std::uint8_t>& payload, std::size_t at) {
  std::uint64_t v = 0;
  for (std::size_t b = 0; b < 8; ++b) v |= std::uint64_t{payload[at + b]} << (8 * b);
  return v;
}

void store_u64(std::vector<std::uint8_t>& payload, std::size_t at, std::uint64_t v) {
  for (std::size_t b = 0; b < 8; ++b) payload[at + b] = static_cast<std::uint8_t>(v >> (8 * b));
}

TEST(AggregatorCheckpoint, DuplicateLiveKeyIsATypedError) {
  std::vector<std::uint8_t> payload = one_event_payload({"198.18.0.1"});
  const std::size_t entry_bytes = kFirstKey + 8 - (live_count_at(1) + 8);
  ASSERT_EQ(payload.size(), live_count_at(1) + 8 + entry_bytes);
  ASSERT_EQ(payload[live_count_at(1)], 1u);
  const std::vector<std::uint8_t> entry(payload.end() - static_cast<std::ptrdiff_t>(entry_bytes),
                                        payload.end());
  payload[live_count_at(1)] = 2;
  payload.insert(payload.end(), entry.begin(), entry.end());
  EXPECT_THROW(restore_payload(payload), std::runtime_error);
}

// The writer lists a sparse set's offsets strictly ascending. A repeated
// offset would restore a smaller set than the one checkpointed.
TEST(AggregatorCheckpoint, RepeatedExactKeyIsATypedError) {
  std::vector<std::uint8_t> payload = one_event_payload({"198.18.0.1", "198.18.0.2"});
  ASSERT_EQ(payload.size(), kFirstKey + 2 * 8);
  ASSERT_EQ(payload[kFirstKey - 8], 2u);
  ASSERT_NO_THROW(restore_payload(payload));
  std::copy_n(payload.begin() + kFirstKey, 8, payload.begin() + kFirstKey + 8);
  EXPECT_THROW(restore_payload(payload), std::runtime_error);
}

// Offsets are below the darknet size (256 for the /24 here). A larger one
// would count a destination that cannot exist.
TEST(AggregatorCheckpoint, ExactKeyOutsideTheDarkSpaceIsATypedError) {
  std::vector<std::uint8_t> payload = one_event_payload({"198.18.0.1", "198.18.0.2"});
  ASSERT_EQ(payload.size(), kFirstKey + 2 * 8);
  ASSERT_EQ(payload[kFirstKey + 8], 2u);
  store_u64(payload, kFirstKey + 8, 255);
  ASSERT_NO_THROW(restore_payload(payload));
  for (const std::uint64_t key : {std::uint64_t{256}, std::uint64_t{1} << 24,
                                  ~std::uint64_t{0}}) {
    store_u64(payload, kFirstKey + 8, key);
    EXPECT_THROW(restore_payload(payload), std::runtime_error) << key;
  }
}

// Four destinations of the /24 fill as many offsets as its bitmap has
// words, so the set is written as the 4 words. A count above the darknet
// size cannot be; any other count but the popcount lies.
TEST(AggregatorCheckpoint, BitmapCountUnlikeItsPopcountIsATypedError) {
  const std::vector<std::uint8_t> payload = one_event_payload(
      {"198.18.0.1", "198.18.0.70", "198.18.0.130", "198.18.0.255"});
  ASSERT_EQ(payload.size(), kFirstKey + 4 * 8);
  ASSERT_EQ(load_u64(payload, kFirstKey - 8), 4u);
  ASSERT_EQ(load_u64(payload, kFirstKey), std::uint64_t{1} << 1);
  ASSERT_NO_THROW(restore_payload(payload));
  for (const std::uint64_t count : {5, 6, 255, 256, 257}) {
    std::vector<std::uint8_t> lying = payload;
    store_u64(lying, kFirstKey - 8, count);
    EXPECT_THROW(restore_payload(lying), std::runtime_error) << count;
  }
  for (const std::uint64_t word : {std::uint64_t{0}, std::uint64_t{3}}) {
    std::vector<std::uint8_t> flipped = payload;
    store_u64(flipped, kFirstKey, word);
    EXPECT_THROW(restore_payload(flipped), std::runtime_error) << word;
  }
}

// The padded dark space's last bitmap word holds offsets 256..287 in its
// low 32 bits; a set bit above them is a destination outside the dark
// space, even with the count raised to match the popcount.
TEST(AggregatorCheckpoint, BitmapPaddingBitIsATypedError) {
  const net::PrefixSet dark = padded_dark_space();
  ASSERT_EQ(dark.total_addresses(), 288u);
  const std::vector<std::uint8_t> payload = one_event_payload(
      {"198.18.0.1", "198.18.0.70", "198.18.0.130", "198.18.0.200", "198.18.1.31"}, dark);
  const std::size_t first_word = dest_count_at(2) + 8;
  ASSERT_EQ(payload.size(), first_word + 5 * 8);
  ASSERT_EQ(load_u64(payload, first_word - 8), 5u);
  ASSERT_EQ(load_u64(payload, first_word + 4 * 8), std::uint64_t{1} << 31);
  ASSERT_NO_THROW(restore_payload(payload, dark));
  for (const int bit : {32, 63}) {
    std::vector<std::uint8_t> padded = payload;
    store_u64(padded, first_word + 4 * 8, (std::uint64_t{1} << 31) | (std::uint64_t{1} << bit));
    EXPECT_THROW(restore_payload(padded, dark), std::runtime_error) << bit;
    store_u64(padded, first_word - 8, 6);
    EXPECT_THROW(restore_payload(padded, dark), std::runtime_error) << bit;
  }
}

/// CAP1 payload of a capture with two sources, 203.0.113.1 and
/// 203.0.113.2, whose first event has closed: tag, darknet size, packets
/// captured, the source count and the sources (ascending), then the closed
/// events — the count, then each one's source, port, type u8, ... — and AGG2.
constexpr std::size_t kCapSources = 4 * 8;
constexpr std::size_t kCapFirstEvent = kCapSources + 2 * 8 + 8;

std::vector<std::uint8_t> two_source_capture_payload() {
  TelescopeCapture capture(dark_space(), fast_config());
  capture.observe(probe(net::SimTime::epoch(), "203.0.113.1", "198.18.0.1", 23));
  capture.observe(probe(net::SimTime::epoch() + net::Duration::minutes(30),
                        "203.0.113.2", "198.18.0.2", 23));
  const std::string frame = checkpoint_bytes(capture);
  return {frame.begin() + 20, frame.end() - 4};
}

/// Re-frames an edited CAP1 payload, restores it into a fresh capture and
/// returns the capture's source count.
std::size_t restore_capture(const std::vector<std::uint8_t>& payload) {
  CheckpointWriter writer;
  writer.bytes(payload);
  std::vector<std::uint8_t> frame;
  writer.finish(frame);
  CheckpointReader reader(frame);
  TelescopeCapture restored(dark_space(), fast_config());
  restored.restore(reader);
  return restored.unique_sources();
}

/// Expects restoring `payload` to throw a std::runtime_error naming `field`.
void expect_capture_refused(const std::vector<std::uint8_t>& payload,
                            const std::string& field) {
  try {
    restore_capture(payload);
    ADD_FAILURE() << "restored a payload whose " << field << " lies";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find(field), std::string::npos) << err.what();
  }
}

std::uint64_t address(const char* text) { return ip(text).value(); }

// CAP1's sources are u32 addresses in u64 slots. One with a high bit set
// used to be cut to 32 bits: here it became the other source, and the
// capture restored one source instead of two.
TEST(CaptureCheckpoint, SourceOutsideThirtyTwoBitsIsATypedError) {
  std::vector<std::uint8_t> payload = two_source_capture_payload();
  ASSERT_EQ(load_u64(payload, kCapSources - 8), 2u);
  ASSERT_EQ(load_u64(payload, kCapSources + 8), address("203.0.113.2"));
  ASSERT_EQ(restore_capture(payload), 2u);
  store_u64(payload, kCapSources + 8, std::uint64_t{1} << 32 | address("203.0.113.1"));
  expect_capture_refused(payload, "field out of range: source");
}

// The writer lists the sources strictly ascending; a repeat used to
// restore as one source.
TEST(CaptureCheckpoint, RepeatedSourceIsATypedError) {
  std::vector<std::uint8_t> payload = two_source_capture_payload();
  ASSERT_EQ(load_u64(payload, kCapSources), address("203.0.113.1"));
  store_u64(payload, kCapSources + 8, address("203.0.113.1"));
  expect_capture_refused(payload, "not strictly ascending: source");
}

// The closed events' sources and ports (the list CAP1, PPL2 and SSH1
// share) were cut to 32 and 16 bits.
TEST(CaptureCheckpoint, EventSourceOutsideThirtyTwoBitsIsATypedError) {
  std::vector<std::uint8_t> payload = two_source_capture_payload();
  ASSERT_EQ(load_u64(payload, kCapFirstEvent - 8), 1u);
  ASSERT_EQ(load_u64(payload, kCapFirstEvent), address("203.0.113.1"));
  store_u64(payload, kCapFirstEvent, std::uint64_t{1} << 32 | address("203.0.113.1"));
  expect_capture_refused(payload, "field out of range: event src");
}

TEST(CaptureCheckpoint, EventPortOutsideSixteenBitsIsATypedError) {
  std::vector<std::uint8_t> payload = two_source_capture_payload();
  ASSERT_EQ(load_u64(payload, kCapFirstEvent + 8), 23u);
  store_u64(payload, kCapFirstEvent + 8, 65536 + 23);
  expect_capture_refused(payload, "field out of range: event port");
}

// ------------------------------------------------------------ EventDataset

// Input already in (start, key) order skips the sort; any other order is
// sorted. Both give the same dataset, with counts recomputed here by
// plain loops (two events from 0.0.0.0 among them).
TEST(EventDataset, SortedAndShuffledInputGiveTheSameDataset) {
  const scangen::Scenario scenario{scangen::tiny()};
  std::vector<DarknetEvent> events = scangen::synthesize_events(
      scenario.population_2021(),
      {.darknet_size = scenario.darknet().total_addresses(), .seed = 17});
  ASSERT_GT(events.size(), 1000u);
  for (const std::uint16_t port : {std::uint16_t{22}, std::uint16_t{23}}) {
    DarknetEvent zero = events[events.size() / 2];
    zero.key.src = net::Ipv4Address(0);
    zero.key.dst_port = port;
    events.push_back(zero);
  }
  std::vector<DarknetEvent> sorted = events;
  std::sort(sorted.begin(), sorted.end(), [](const DarknetEvent& a, const DarknetEvent& b) {
    return std::tie(a.start, a.key) < std::tie(b.start, b.key);
  });
  std::vector<DarknetEvent> shuffled = events;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937_64(3));
  ASSERT_NE(shuffled, sorted);

  std::set<std::uint32_t> sources;
  std::uint64_t packets = 0;
  std::int64_t last_day = 0;
  for (const DarknetEvent& e : events) {
    sources.insert(e.key.src.value());
    packets += e.packets;
    last_day = std::max(last_day, e.day());
  }
  const std::uint64_t darknet = scenario.darknet().total_addresses();
  const EventDataset in_order(sorted, darknet);
  const EventDataset reordered(shuffled, darknet);
  for (const EventDataset* dataset : {&in_order, &reordered}) {
    EXPECT_EQ(dataset->events(), sorted);
    EXPECT_EQ(dataset->total_packets(), packets);
    EXPECT_EQ(dataset->unique_sources(), sources.size());
    EXPECT_EQ(dataset->first_day(), sorted.front().day());
    EXPECT_EQ(dataset->last_day(), last_day);
  }

  const EventDataset empty({}, darknet);
  EXPECT_EQ(empty.unique_sources(), 0u);
  EXPECT_EQ(empty.total_packets(), 0u);
  EXPECT_EQ(empty.last_day(), -1);
}

}  // namespace
}  // namespace orion::telescope

// NOTE: appended suite — event CSV export.
#include <sstream>

#include "orion/telescope/store.hpp"

namespace orion::telescope {
namespace {

TEST(EventStore, CsvHasHeaderAndAllRows) {
  std::vector<DarknetEvent> events;
  for (int i = 0; i < 100; ++i) {
    DarknetEvent e;
    e.key.src = net::Ipv4Address(0xCB007100u + static_cast<std::uint32_t>(i));
    e.key.dst_port = static_cast<std::uint16_t>(i % 7 == 0 ? 0 : 6379);
    e.key.type = i % 7 == 0 ? pkt::TrafficType::IcmpEchoReq
                            : pkt::TrafficType::TcpSyn;
    e.start = net::SimTime::at(net::Duration::seconds(100 * i));
    e.end = e.start + net::Duration::seconds(40);
    e.packets = 10 + static_cast<std::uint64_t>(i);
    e.unique_dests = 5 + static_cast<std::uint64_t>(i);
    e.packets_by_tool[telescope::tool_index(pkt::ScanTool::ZMap)] = e.packets;
    events.push_back(e);
  }
  const EventDataset dataset(std::move(events), 4096);
  std::stringstream out;
  write_events_csv(dataset, out);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(out, line)) ++lines;
  EXPECT_EQ(lines, dataset.event_count() + 1);
}

}  // namespace
}  // namespace orion::telescope
