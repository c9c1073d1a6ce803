// Columnar flow-impact engine (DESIGN.md §12): the batched join must be
// byte-identical to the pinned scalar reference for every input, the
// FlowBatch bridge must be lossless, and the unified query() API must
// return exactly what the four legacy one-table calls returned.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "orion/flowsim/flow_batch.hpp"
#include "orion/flowsim/netflow5.hpp"
#include "orion/flowsim/netflow_bridge.hpp"
#include "orion/flowsim/sampler.hpp"
#include "orion/impact/flow_join.hpp"
#include "orion/scangen/scenario.hpp"
#include "orion/serve/engine.hpp"

#include "flow_fixtures.hpp"

// The equivalence half of this suite pins query() against the scalar
// reference join (query_scalar) on every router-day — the one test that
// keeps the batched probe honest now that the legacy one-table-per-call
// wrappers are gone.

namespace orion::impact {
namespace {

net::Ipv4Address ip(const char* text) { return *net::Ipv4Address::parse(text); }

/// A simulated multi-day flow dataset over the tiny scenario — binomial
/// sampling, oversized flows and empty router-days all occur naturally.
flowsim::FlowDataset tiny_flows() {
  const scangen::Scenario scenario{scangen::tiny()};
  flowsim::FlowSimConfig config;
  config.isp_space = scenario.merit();
  config.start_day = 2;
  config.end_day = 7;
  config.sampling_rate = 100;
  config.seed = 77;
  config.user.base_pps = 2000;
  return generate_flows(scenario.population_2021(), scenario.registry(),
                        flowsim::PeeringPolicy::merit_like(), config);
}

/// AH-ish source list: every cloud scanner of the tiny population plus a
/// few addresses that never appear in the flows (visibility misses).
detect::IpSet tiny_sources() {
  const scangen::Scenario scenario{scangen::tiny()};
  detect::IpSet set;
  for (const auto& s : scenario.population_2021().scanners) {
    if (s.category == scangen::Category::CloudScanner) set.insert(s.source);
  }
  set.insert(ip("192.0.2.1"));
  set.insert(ip("192.0.2.200"));
  return set;
}

void expect_same_report(const RouterDayReport& a, const RouterDayReport& b) {
  EXPECT_EQ(a.impact.router, b.impact.router);
  EXPECT_EQ(a.impact.day, b.impact.day);
  EXPECT_EQ(a.impact.matched_packets, b.impact.matched_packets);
  EXPECT_EQ(a.impact.total_packets, b.impact.total_packets);
  EXPECT_EQ(a.impact.matched_sources, b.impact.matched_sources);
  EXPECT_EQ(a.protocols, b.protocols);
  EXPECT_EQ(a.ports.rows(), b.ports.rows());
  EXPECT_EQ(a.ports.spilled_weight(), b.ports.spilled_weight());
  EXPECT_EQ(a.ports.spilled_adds(), b.ports.spilled_adds());
  EXPECT_EQ(a.probed_sources, b.probed_sources);
}

// ------------------------------------------------------ FlowBatch bridge

TEST(FlowBatch, RecordRoundTripIsLossless) {
  std::mt19937_64 rng(11);
  flowsim::FlowBatch batch;
  std::vector<flowsim::FlowRecord> records;
  for (int i = 0; i < 200; ++i) {
    flowsim::FlowRecord r;
    r.ts_ns = static_cast<std::int64_t>(rng());
    r.src = net::Ipv4Address(static_cast<std::uint32_t>(rng()));
    r.dst = net::Ipv4Address(static_cast<std::uint32_t>(rng()));
    r.src_port = static_cast<std::uint16_t>(rng());
    r.dst_port = static_cast<std::uint16_t>(rng());
    r.proto = static_cast<std::uint8_t>(rng());
    r.packets = rng();
    r.bytes = rng();
    r.router = static_cast<std::uint16_t>(rng() % 3);
    records.push_back(r);
    batch.push_back(r);
  }
  ASSERT_EQ(batch.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(batch.record_at(i), records[i]);
  }
}

TEST(FlowBatch, ClearKeepsCapacityAndZeroesSize) {
  flowsim::FlowBatch batch(16);
  flowsim::FlowRecord r;
  r.src = ip("10.0.0.1");
  batch.push_back(r);
  ASSERT_EQ(batch.size(), 1u);
  batch.clear();
  EXPECT_EQ(batch.size(), 0u);
  EXPECT_TRUE(batch.empty());
  EXPECT_GE(batch.src_col().capacity(), 1u);
}

TEST(FlowBatch, ProtocolNumberRoundTrip) {
  for (const auto type :
       {pkt::TrafficType::TcpSyn, pkt::TrafficType::Udp,
        pkt::TrafficType::IcmpEchoReq}) {
    EXPECT_EQ(flowsim::traffic_type_of(flowsim::protocol_number_of(type)), type);
  }
  EXPECT_EQ(flowsim::traffic_type_of(47), pkt::TrafficType::Other);
}

// ------------------------------------------------ batched NetFlow decode

flowsim::RouterDay hand_router_day() {
  flowsim::RouterDay rd;
  rd.router = 1;
  rd.day = 42;
  rd.total_packets = 1'000'000;
  test_flows::set_rows(
      rd, {{{ip("203.0.113.1"), 23, pkt::TrafficType::TcpSyn}, 300},
           {{ip("203.0.113.1"), 53, pkt::TrafficType::Udp}, 100},
           {{ip("203.0.113.2"), 80, pkt::TrafficType::TcpSyn}, 50},
           {{ip("203.0.113.9"), 443, pkt::TrafficType::IcmpEchoReq}, 7},
           // Oversized flow: forces the exporter to split across v5 records.
           {{ip("203.0.113.5"), 123, pkt::TrafficType::Udp},
            (std::uint64_t{1} << 32) + 5}});
  return rd;
}

TEST(NetflowBatch, DecodeIntoMatchesScalarDecode) {
  const auto packets = flowsim::export_router_day(hand_router_day(), 100, 1);
  ASSERT_FALSE(packets.empty());
  for (const auto& wire : packets) {
    const auto scalar = flowsim::decode_netflow_v5(wire);
    ASSERT_TRUE(scalar.has_value());
    flowsim::FlowBatch batch;
    const auto header = flowsim::decode_netflow_v5_into(wire, batch, 2, 555);
    ASSERT_TRUE(header.has_value());
    ASSERT_EQ(batch.size(), scalar->records.size());
    EXPECT_EQ(header->flow_sequence, scalar->header.flow_sequence);
    EXPECT_EQ(header->sampling_interval, scalar->header.sampling_interval);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const flowsim::NetflowV5Record& r = scalar->records[i];
      EXPECT_EQ(batch.src(i), r.src);
      EXPECT_EQ(batch.dst(i), r.dst);
      EXPECT_EQ(batch.src_port(i), r.src_port);
      EXPECT_EQ(batch.dst_port(i), r.dst_port);
      EXPECT_EQ(batch.proto(i), r.protocol);
      EXPECT_EQ(batch.packets(i), r.packets);
      EXPECT_EQ(batch.bytes(i), r.octets);
      EXPECT_EQ(batch.router(i), 2u);
      EXPECT_EQ(batch.ts_ns(i), 555);
    }
  }
}

TEST(NetflowBatch, RejectedPacketAppendsNothing) {
  auto packets = flowsim::export_router_day(hand_router_day(), 100, 1);
  ASSERT_FALSE(packets.empty());
  flowsim::FlowBatch batch;
  // Truncated packet: decode must fail without partial rows.
  std::vector<std::uint8_t> truncated(packets[0].begin(),
                                      packets[0].end() - 10);
  EXPECT_FALSE(flowsim::decode_netflow_v5_into(truncated, batch));
  EXPECT_TRUE(batch.empty());
  // Wrong version.
  std::vector<std::uint8_t> bad = packets[0];
  bad[1] = 9;
  EXPECT_FALSE(flowsim::decode_netflow_v5_into(bad, batch));
  EXPECT_TRUE(batch.empty());
}

TEST(NetflowBatch, IngestBatchRoundTripsRouterDayTable) {
  const flowsim::RouterDay original = hand_router_day();
  const auto packets = flowsim::export_router_day(original, 100, 1);

  std::size_t rejected = 0;
  const flowsim::FlowBatch batch = flowsim::ingest_flow_batch(packets, rejected);
  EXPECT_EQ(rejected, 0u);
  ASSERT_GT(batch.size(), original.rows.size());  // the split happened
  EXPECT_TRUE(flowsim::fold_flow_batch(batch, original.router, original.day) ==
              original.rows);
}

TEST(NetflowBatch, CanonicalRowsAreSortedAndComplete) {
  const flowsim::RouterDay rd = hand_router_day();
  const flowsim::FlowBatch& batch = rd.rows;
  ASSERT_EQ(batch.size(), 5u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch.router(i), 1u);
    EXPECT_EQ(batch.ts_ns(i), 42 * std::int64_t{86'400} * 1'000'000'000);
    if (i > 0) {
      const auto prev = std::tuple(batch.src(i - 1), batch.dst_port(i - 1),
                                   batch.proto(i - 1));
      const auto cur = std::tuple(batch.src(i), batch.dst_port(i),
                                  batch.proto(i));
      EXPECT_LT(prev, cur);
    }
  }
  // Already canonical: folding the rows again changes nothing.
  EXPECT_TRUE(flowsim::fold_flow_batch(batch, 1, 42) == batch);
}

// -------------------------------------------------------- FlowSourceIndex

/// Builds an index from `batch` re-chunked into the given span sizes
/// (cycled); a trailing remainder chunk absorbs the tail.
FlowSourceIndex chunked_index(const flowsim::FlowBatch& batch,
                              const std::vector<std::size_t>& sizes) {
  FlowSourceIndex index;
  flowsim::FlowBatch chunk;
  std::size_t i = 0;
  std::size_t size_at = 0;
  while (i < batch.size()) {
    const std::size_t take =
        std::min(sizes[size_at++ % sizes.size()], batch.size() - i);
    chunk.clear();
    for (std::size_t j = 0; j < take; ++j) chunk.append_record(batch, i + j);
    index.append(chunk);
    i += take;
  }
  index.finalize();
  return index;
}

TEST(FlowSourceIndex, ChunkingInvariance) {
  const auto flows = tiny_flows();
  const detect::IpSet ips = tiny_sources();
  const SourceSet sources(ips);
  const flowsim::RouterDay& rd = flows.at(0, 3);
  const flowsim::FlowBatch& batch = rd.rows;
  ASSERT_GT(batch.size(), 8u);

  FlowSourceIndex whole;
  whole.append(batch);
  whole.finalize();
  const RouterDayReport ref =
      join_flow_index(whole, sources, 100, rd.total_packets, 0, 3);
  EXPECT_GT(ref.impact.matched_sources, 0u);

  // Size-1 spans, ragged mixes, and a random chunking all build the same
  // index and thus the same report.
  std::mt19937 rng(5);
  std::vector<std::size_t> random_sizes;
  for (int i = 0; i < 17; ++i) random_sizes.push_back(1 + rng() % 13);
  for (const auto& sizes :
       {std::vector<std::size_t>{1}, std::vector<std::size_t>{3, 1, 7, 2},
        random_sizes}) {
    const FlowSourceIndex index = chunked_index(batch, sizes);
    expect_same_report(
        join_flow_index(index, sources, 100, rd.total_packets, 0, 3), ref);
  }
}

TEST(FlowSourceIndex, OutOfOrderRowsThrow) {
  flowsim::FlowBatch batch;
  flowsim::FlowRecord r;
  r.src = ip("10.0.0.2");
  r.dst_port = 80;
  batch.push_back(r);
  r.src = ip("10.0.0.1");  // descending src: violates the sorted contract
  batch.push_back(r);
  FlowSourceIndex index;
  EXPECT_THROW(index.append(batch), std::invalid_argument);
}

TEST(FlowSourceIndex, AppendAfterFinalizeThrows) {
  FlowSourceIndex index;
  index.finalize();
  EXPECT_THROW(index.append(flowsim::FlowBatch{}), std::logic_error);
}

TEST(FlowSourceIndex, DuplicateKeysMergeLikeSplitV5Records) {
  // The wire round trip splits the oversized flow into multiple adjacent
  // v5 records; the index must fold them back into one entry.
  const flowsim::RouterDay rd = hand_router_day();
  const auto packets = flowsim::export_router_day(rd, 100, 1);
  std::size_t rejected = 0;
  const flowsim::FlowBatch wire_batch =
      flowsim::ingest_flow_batch(packets, rejected);
  ASSERT_EQ(rejected, 0u);
  ASSERT_GT(wire_batch.size(), rd.rows.size());  // the split happened

  FlowSourceIndex from_wire;
  from_wire.append(wire_batch);
  from_wire.finalize();
  FlowSourceIndex from_table;
  from_table.append(rd.rows);
  from_table.finalize();

  const SourceSet sources(detect::IpSet{ip("203.0.113.5")});
  expect_same_report(
      join_flow_index(from_wire, sources, 100, rd.total_packets, 0, 0),
      join_flow_index(from_table, sources, 100, rd.total_packets, 0, 0));
}

// ------------------------------------------------- batched vs scalar join

TEST(FlowJoin, BatchedMatchesScalarOnEveryRouterDay) {
  const auto flows = tiny_flows();
  const detect::IpSet ips = tiny_sources();
  const test_flows::ImageAnalyzer image(flows);
  const FlowImpactAnalyzer& analyzer = image.analyzer;
  for (std::size_t router = 0; router < flowsim::kRouterCount; ++router) {
    for (std::int64_t day = flows.start_day(); day < flows.end_day(); ++day) {
      expect_same_report(analyzer.query(router, day, ips),
                         analyzer.query_scalar(router, day, ips));
    }
  }
}

TEST(FlowJoin, EmptyRouterDayAndEmptySources) {
  // A router-day with no sampled flows at all.
  flowsim::FlowSimConfig config;
  config.isp_space = net::PrefixSet({*net::Prefix::parse("20.0.0.0/16")});
  config.start_day = 0;
  config.end_day = 1;
  std::vector<flowsim::RouterDay> cells = test_flows::grid(0, 1);
  cells[0].total_packets = 500;
  const test_flows::ImageAnalyzer image(
      flowsim::FlowDataset(std::move(config), std::move(cells)));
  const FlowImpactAnalyzer& analyzer = image.analyzer;
  const detect::IpSet some = {ip("203.0.113.1")};
  expect_same_report(analyzer.query(0, 0, some), analyzer.query_scalar(0, 0, some));
  const RouterDayReport empty_day = analyzer.query(0, 0, some);
  EXPECT_EQ(empty_day.impact.matched_packets, 0u);
  EXPECT_EQ(empty_day.impact.total_packets, 500u);
  EXPECT_DOUBLE_EQ(empty_day.visibility_percent(), 0.0);

  // Empty source set against a populated day.
  const test_flows::ImageAnalyzer tiny(tiny_flows());
  const FlowImpactAnalyzer& tiny_analyzer = tiny.analyzer;
  const detect::IpSet none;
  expect_same_report(tiny_analyzer.query(0, 2, none),
                     tiny_analyzer.query_scalar(0, 2, none));
  EXPECT_DOUBLE_EQ(tiny_analyzer.query(0, 2, none).visibility_percent(), 0.0);
}

TEST(FlowJoin, SourceSetCollapsesDuplicates) {
  const std::vector<net::Ipv4Address> with_dupes = {
      ip("203.0.113.1"), ip("203.0.113.1"), ip("203.0.113.9")};
  const SourceSet set(with_dupes);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(std::is_sorted(set.values().begin(), set.values().end()));
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_EQ(set.hash(i), FlowSourceIndex::hash_of(set.value(i)));
  }
}

// ------------------------------------------------------ port-mix spill

/// One cell whose queried sources probe more than kPortMixBound distinct
/// ports. 203.0.113.10 probes TCP ports [0, 3000), every seventh with a
/// zero count; 203.0.113.20 probes TCP port 100 and UDP ports
/// [2000, 6000), so the bound is reached at port 4095 and 4096..5999
/// spill; 203.0.113.30 probes a tracked port (17), a spilled one with a
/// zero count (5000) and one nobody probed before (65535). An unqueried
/// source probes ports of its own.
flowsim::FlowDataset wide_port_cell() {
  flowsim::FlowSimConfig config;
  config.isp_space = net::PrefixSet({*net::Prefix::parse("20.0.0.0/16")});
  config.start_day = 0;
  config.end_day = 1;
  config.sampling_rate = 100;
  std::vector<flowsim::RouterDay> cells = test_flows::grid(0, 1);
  std::vector<flowsim::KeyedCount> counts;
  for (std::uint16_t port = 0; port < 3000; ++port) {
    counts.push_back({{ip("203.0.113.10"), port, pkt::TrafficType::TcpSyn},
                      port % 7u});
  }
  counts.push_back({{ip("203.0.113.20"), 100, pkt::TrafficType::TcpSyn}, 9});
  for (std::uint16_t port = 2000; port < 6000; ++port) {
    counts.push_back({{ip("203.0.113.20"), port, pkt::TrafficType::Udp},
                      1u + port % 5u});
  }
  counts.push_back(
      {{ip("203.0.113.30"), 17, pkt::TrafficType::IcmpEchoReq}, 4});
  counts.push_back({{ip("203.0.113.30"), 5000, pkt::TrafficType::TcpSyn}, 0});
  counts.push_back({{ip("203.0.113.30"), 65535, pkt::TrafficType::Udp}, 3});
  counts.push_back({{ip("203.0.113.99"), 7000, pkt::TrafficType::TcpSyn}, 50});
  test_flows::set_rows(cells[0], std::move(counts));
  cells[0].total_packets = 10'000'000;
  return flowsim::FlowDataset(std::move(config), std::move(cells));
}

TEST(FlowJoin, PortSpillMatchesScalarAndTheWire) {
  const test_flows::ImageAnalyzer image(wide_port_cell());
  const FlowImpactAnalyzer& analyzer = image.analyzer;
  const std::vector<net::Ipv4Address> listed = {
      ip("203.0.113.30"), ip("203.0.113.10"), ip("192.0.2.1"),
      ip("203.0.113.20"), ip("203.0.113.10")};
  const detect::IpSet ips(listed.begin(), listed.end());

  const RouterDayReport batched = analyzer.query(0, 0, SourceSet(listed));
  const RouterDayReport scalar = analyzer.query_scalar(0, 0, ips);

  // The bound really bit: 4,096 tracked ports, ports 4096..5999 and 5000,
  // 65535 of the last source spilled.
  EXPECT_EQ(batched.ports.distinct(), kPortMixBound);
  EXPECT_EQ(batched.ports.spilled_adds(), 1904u + 2u);
  std::uint64_t spilled = 3 * 100;
  for (std::uint32_t port = 4096; port < 6000; ++port) {
    spilled += (1 + port % 5) * 100;
  }
  EXPECT_EQ(batched.ports.spilled_weight(), spilled);
  EXPECT_EQ(batched.ports.count(17), (17 % 7 + 4) * 100u);
  EXPECT_EQ(batched.ports.count(100), (100 % 7 + 9) * 100u);
  EXPECT_EQ(batched.ports.count(5999), 0u);
  EXPECT_EQ(batched.ports.count(7000), 0u);
  EXPECT_EQ(batched.ports.total(), batched.impact.matched_packets);

  // Batched ≡ scalar on every tracked port and on both spill fields.
  EXPECT_EQ(batched.ports.distinct(), scalar.ports.distinct());
  std::size_t differing = 0;
  for (std::uint32_t port = 0; port <= 0xFFFF; ++port) {
    const auto p = static_cast<std::uint16_t>(port);
    differing += batched.ports.count(p) != scalar.ports.count(p);
  }
  EXPECT_EQ(differing, 0u);
  EXPECT_EQ(batched.ports.spilled_weight(), scalar.ports.spilled_weight());
  EXPECT_EQ(batched.ports.spilled_adds(), scalar.ports.spilled_adds());
  EXPECT_EQ(batched.ports.total(), scalar.ports.total());
  EXPECT_EQ(batched.impact.matched_packets, scalar.impact.matched_packets);
  EXPECT_EQ(batched.probed_sources, 4u);

  // execute_query puts the same tracked ports and spill on the wire.
  serve::QueryRequest request;
  request.kind = serve::QueryKind::FlowImpact;
  request.sources = listed;
  serve::EngineBackend backend;
  backend.analyzer = &analyzer;
  backend.flows = &image.image;
  const serve::QueryResponse response = serve::execute_query(request, backend);
  ASSERT_EQ(response.status, serve::Status::Ok);
  const serve::FlowImpactBody& body = response.impact;
  EXPECT_EQ(body.ports_bound, kPortMixBound);
  EXPECT_EQ(body.ports_spilled_weight, scalar.ports.spilled_weight());
  EXPECT_EQ(body.ports_spilled_adds, scalar.ports.spilled_adds());
  ASSERT_EQ(body.ports.size(), scalar.ports.distinct());
  for (std::size_t i = 0; i < body.ports.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(body.ports[i - 1].first, body.ports[i].first);
    }
    EXPECT_EQ(body.ports[i].second, scalar.ports.count(body.ports[i].first));
  }
}

// ------------------------------------------------- concurrent queries

// The port accumulator is per-thread scratch: four threads querying one
// analyzer over every cell and source list at once (each starting at a
// different pair) get exactly the serial reports. The tsan preset runs
// this label.
TEST(FlowJoin, ConcurrentQueriesMatchTheSerialReports) {
  const auto flows = tiny_flows();
  const test_flows::ImageAnalyzer image(flows);
  const FlowImpactAnalyzer& analyzer = image.analyzer;
  analyzer.prebuild_indexes(2);

  const scangen::Scenario scenario{scangen::tiny()};
  std::vector<net::Ipv4Address> everyone;
  for (const auto& s : scenario.population_2021().scanners) {
    everyone.push_back(s.source);
  }
  const detect::IpSet cloud = tiny_sources();
  const std::vector<SourceSet> lists = {
      SourceSet(cloud), SourceSet(everyone), SourceSet(),
      SourceSet(std::vector<net::Ipv4Address>{everyone.back(), everyone[0]})};

  struct Probe {
    std::size_t router;
    std::int64_t day;
    const SourceSet* sources;
  };
  std::vector<Probe> probes;
  for (std::size_t router = 0; router < flowsim::kRouterCount; ++router) {
    for (std::int64_t day = flows.start_day(); day < flows.end_day(); ++day) {
      for (const SourceSet& list : lists) probes.push_back({router, day, &list});
    }
  }
  std::vector<RouterDayReport> serial;
  for (const Probe& p : probes) {
    serial.push_back(analyzer.query(p.router, p.day, *p.sources));
  }

  constexpr std::size_t kThreads = 4;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        for (std::size_t k = 0; k < probes.size(); ++k) {
          const std::size_t i = (k + t * probes.size() / kThreads) % probes.size();
          const Probe& p = probes[i];
          expect_same_report(analyzer.query(p.router, p.day, *p.sources),
                             serial[i]);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

// ------------------------------------------------ cache-key regression

TEST(FlowJoin, AdversarialRouterDayKeysNeverAliasTheCache) {
  const auto flows = tiny_flows();
  const test_flows::ImageAnalyzer image(flows);
  const FlowImpactAnalyzer& analyzer = image.analyzer;
  const detect::IpSet ips = tiny_sources();

  // Warm the cache for every valid router-day.
  for (std::size_t router = 0; router < flowsim::kRouterCount; ++router) {
    for (std::int64_t day = flows.start_day(); day < flows.end_day(); ++day) {
      analyzer.query(router, day, ips);
    }
  }

  // The old uint64 key was (router << 32) | (day - start_day), consulted
  // before range validation: (0, start_day + 2^32) aliased (1, start_day)
  // and silently answered from the wrong router's index. Every
  // out-of-range probe must throw, warm cache or not.
  const std::int64_t start = flows.start_day();
  EXPECT_THROW(analyzer.query(0, start + (std::int64_t{1} << 32), ips),
               std::out_of_range);
  EXPECT_THROW(analyzer.query(1, start + (std::int64_t{1} << 32), ips),
               std::out_of_range);
  if constexpr (sizeof(std::size_t) > 4) {
    // router = 2^32 aliased router 0 under the packed key.
    EXPECT_THROW(
        analyzer.query(std::size_t{1} << 32, start, ips), std::out_of_range);
    EXPECT_THROW(analyzer.query((std::size_t{1} << 32) + 1, start, ips),
                 std::out_of_range);
  }
  EXPECT_THROW(analyzer.query(0, start - 1, ips), std::out_of_range);
  EXPECT_THROW(analyzer.query(flowsim::kRouterCount, start, ips),
               std::out_of_range);

  // The warm entries still answer correctly after the failed probes.
  expect_same_report(analyzer.query(1, start, ips),
                     analyzer.query_scalar(1, start, ips));
}

// ------------------------------------------------------ batched sampler

TEST(Sampler, SampleNMatchesScalarUnderAnyChunking) {
  for (const std::uint32_t rate : {1u, 3u, 100u}) {
    flowsim::PacketSampler scalar(flowsim::SamplingMode::Deterministic, rate, 9);
    flowsim::PacketSampler batched(flowsim::SamplingMode::Deterministic, rate, 9);
    std::mt19937 rng(21);
    std::uint64_t scalar_hits = 0;
    std::uint64_t batched_hits = 0;
    std::uint64_t fed = 0;
    while (fed < 10'000) {
      const std::uint64_t chunk = 1 + rng() % 257;
      for (std::uint64_t i = 0; i < chunk; ++i) {
        scalar_hits += scalar.sample() ? 1 : 0;
      }
      batched_hits += batched.sample_n(chunk);
      fed += chunk;
      // Phases stay in lockstep, so equality holds at every boundary.
      EXPECT_EQ(batched_hits, scalar_hits);
    }
    // And huge batches cannot overflow the phase arithmetic.
    flowsim::PacketSampler huge(flowsim::SamplingMode::Deterministic, rate, 9);
    const std::uint64_t big = (std::uint64_t{1} << 40) + 123;
    EXPECT_LE(huge.sample_n(big) * rate, big + rate);
  }
}

TEST(Sampler, SampleNRandomModeIsDeterministicPerSeed) {
  flowsim::PacketSampler a(flowsim::SamplingMode::Random, 100, 4242);
  flowsim::PacketSampler b(flowsim::SamplingMode::Random, 100, 4242);
  for (int i = 0; i < 32; ++i) {
    const std::uint64_t hits = a.sample_n(1000);
    EXPECT_EQ(hits, b.sample_n(1000));
    EXPECT_LE(hits, 1000u);
  }
}

}  // namespace
}  // namespace orion::impact
