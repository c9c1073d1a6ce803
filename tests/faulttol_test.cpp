// Fault-tolerance suite: the OCP1 checkpoint container, the bounded
// reorder buffer, the deterministic fault injector, and the end-to-end
// hardening properties — crash-resume equivalence (byte-identical
// results) and 100% fault accounting under injected failures.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "orion/detect/streaming.hpp"
#include "orion/netbase/crc32.hpp"
#include "orion/packet/builder.hpp"
#include "orion/scangen/fault.hpp"
#include "orion/telescope/capture.hpp"
#include "orion/telescope/checkpoint.hpp"
#include "orion/telescope/ingest.hpp"

#include "crc_pins.hpp"

namespace orion {
namespace {

using telescope::CheckpointReader;
using telescope::CheckpointWriter;
using telescope::checkpoint_tag;
using test_pins::frame_bytes;

net::Ipv4Address ip(const char* text) { return *net::Ipv4Address::parse(text); }

net::PrefixSet dark_space() {
  return net::PrefixSet({*net::Prefix::parse("198.18.0.0/24")});
}

telescope::AggregatorConfig fast_config() {
  telescope::AggregatorConfig config;
  config.timeout = net::Duration::minutes(10);
  config.sweep_interval = net::Duration::minutes(1);
  return config;
}

// A deterministic in-order capture workload: 8 sources rotating through
// ports (so keys go idle and events split by timeout), one packet per
// second into the /24 dark space, tool mix included.
std::vector<pkt::Packet> make_stream(std::size_t n) {
  const pkt::ScanTool tools[] = {pkt::ScanTool::ZMap, pkt::ScanTool::Masscan,
                                 pkt::ScanTool::Mirai, pkt::ScanTool::Other};
  std::vector<pkt::ProbeBuilder> builders;
  for (std::uint32_t s = 0; s < 8; ++s) {
    builders.emplace_back(net::Ipv4Address(0xCB007100u + s), tools[s % 4],
                          net::Rng(1000 + s));
  }
  std::vector<pkt::Packet> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const net::SimTime t =
        net::SimTime::epoch() + net::Duration::seconds(static_cast<std::int64_t>(i));
    const std::uint16_t port = static_cast<std::uint16_t>(80 + (i / 500) % 4);
    const net::Ipv4Address dst(ip("198.18.0.0").value() +
                               static_cast<std::uint32_t>(i % 256));
    out.push_back(builders[i % 8].tcp_syn(t, dst, port));
  }
  return out;
}

// What two equivalent runs must agree on: the darknet size and every
// event, field by field (DarknetEvent's operator==). EventDataset keeps
// its events in the (start, key) total order, so emission order cannot
// leak into the comparison.
std::pair<std::uint64_t, std::vector<telescope::DarknetEvent>> contents(
    const telescope::EventDataset& dataset) {
  return {dataset.darknet_size(), dataset.events()};
}

// ------------------------------------------------------------------- CRC-32

TEST(Crc32, KnownAnswers) {
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(net::Crc32::of(check), 0xCBF43926u);  // the standard check value
  EXPECT_EQ(net::Crc32::of({}), 0x00000000u);
}

TEST(Crc32, StreamingMatchesOneShot) {
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 1000; ++i) data.push_back(static_cast<std::uint8_t>(i * 7));
  net::Crc32 crc;
  crc.update(std::span(data.data(), 300));
  crc.update(std::span(data.data() + 300, 700));
  EXPECT_EQ(crc.value(), net::Crc32::of(data));
  EXPECT_NE(net::Crc32::of(data), 0u);
}

// -------------------------------------------------------- OCP1 container

constexpr std::uint64_t kTestTag = checkpoint_tag('T', 'S', 'T', '1');

std::string sample_container() {
  CheckpointWriter writer;
  writer.tag(kTestTag);
  writer.u64(42);
  writer.i64(-7);
  writer.f64(3.25);
  writer.u8(200);
  const std::uint8_t blob[] = {1, 2, 3, 4, 5};
  writer.bytes(blob);
  std::vector<std::uint8_t> out;
  writer.finish(out);
  return {out.begin(), out.end()};
}

TEST(Checkpoint, ContainerRoundTrip) {
  const std::string frame = sample_container();
  CheckpointReader reader(frame_bytes(frame));
  reader.expect_tag(kTestTag, "test");
  EXPECT_EQ(reader.u64("a"), 42u);
  EXPECT_EQ(reader.i64("b"), -7);
  EXPECT_DOUBLE_EQ(reader.f64("c"), 3.25);
  EXPECT_EQ(reader.u8("d"), 200);
  EXPECT_EQ(reader.bytes(5, "e"), (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(reader.done());
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(Checkpoint, RejectsBadMagic) {
  std::string bytes = sample_container();
  bytes[0] = 'X';
  EXPECT_THROW(CheckpointReader reader(frame_bytes(bytes)), std::runtime_error);
}

TEST(Checkpoint, RejectsUnknownVersion) {
  std::string bytes = sample_container();
  bytes[4] = 9;  // low byte of the version u64
  EXPECT_THROW(CheckpointReader reader(frame_bytes(bytes)), std::runtime_error);
}

TEST(Checkpoint, RejectsPayloadCorruption) {
  // Flip one payload bit: the CRC trailer must catch it, wherever it is.
  const std::string bytes = sample_container();
  for (const std::size_t offset :
       {std::size_t{20}, std::size_t{28}, std::size_t{36}, bytes.size() - 5}) {
    std::string bad = bytes;
    bad[offset] = static_cast<char>(bad[offset] ^ 0x01);
    EXPECT_THROW(CheckpointReader reader(frame_bytes(bad)), std::runtime_error)
        << "flip at " << offset;
  }
}

TEST(Checkpoint, RejectsCrcCorruption) {
  std::string bytes = sample_container();
  bytes.back() = static_cast<char>(bytes.back() ^ 0x40);
  EXPECT_THROW(CheckpointReader reader(frame_bytes(bytes)), std::runtime_error);
}

TEST(Checkpoint, RejectsTruncation) {
  const std::string bytes = sample_container();
  // A torn write can cut the file anywhere; every prefix must be rejected
  // up front, never half-restored.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW(CheckpointReader reader(frame_bytes(bytes).first(cut)),
                 std::runtime_error)
        << "cut at " << cut;
  }
}

TEST(Checkpoint, RejectsWrongSectionTag) {
  const std::string frame = sample_container();
  CheckpointReader reader(frame_bytes(frame));
  EXPECT_THROW(reader.expect_tag(checkpoint_tag('T', 'S', 'T', '2'), "other"),
               std::runtime_error);
}

TEST(Checkpoint, RejectsReadPastPayload) {
  CheckpointWriter writer;
  writer.u64(1);
  std::vector<std::uint8_t> out;
  writer.finish(out);
  CheckpointReader reader(out);
  EXPECT_EQ(reader.u64("only"), 1u);
  EXPECT_THROW(reader.u64("past end"), std::runtime_error);
}

// -------------------------------------------------------- reorder buffer

pkt::Packet at_seconds(double s) {
  pkt::Packet p;
  p.timestamp = net::SimTime::epoch() +
                net::Duration::nanos(static_cast<std::int64_t>(s * 1e9));
  return p;
}

struct BufferHarness {
  std::vector<net::SimTime> delivered;
  std::vector<net::SimTime> late;
  telescope::ReorderBuffer buffer;

  explicit BufferHarness(telescope::ReorderConfig config)
      : buffer(
            config,
            [this](const pkt::Packet& p) {
              if (!delivered.empty()) {
                EXPECT_GE(p.timestamp, delivered.back()) << "order violation";
              }
              delivered.push_back(p.timestamp);
            },
            [this](const pkt::Packet& p) { late.push_back(p.timestamp); }) {}
};

TEST(ReorderBuffer, AbsorbsJitterWithinWindow) {
  BufferHarness h({.window = net::Duration::seconds(5), .max_buffered = 64});
  using Outcome = telescope::ReorderBuffer::Outcome;
  EXPECT_EQ(h.buffer.push(at_seconds(10)), Outcome::Buffered);
  EXPECT_EQ(h.buffer.push(at_seconds(13)), Outcome::Buffered);
  EXPECT_EQ(h.buffer.push(at_seconds(11)), Outcome::Reordered);  // 2s of jitter
  EXPECT_EQ(h.buffer.push(at_seconds(12)), Outcome::Reordered);
  EXPECT_EQ(h.buffer.push(at_seconds(20)), Outcome::Buffered);  // releases <=15
  EXPECT_EQ(h.delivered.size(), 4u);
  h.buffer.flush();
  ASSERT_EQ(h.delivered.size(), 5u);
  EXPECT_TRUE(std::is_sorted(h.delivered.begin(), h.delivered.end()));
  EXPECT_TRUE(h.late.empty());
  EXPECT_EQ(h.buffer.watermark(), at_seconds(20).timestamp);
}

TEST(ReorderBuffer, QuarantinesBeyondWindow) {
  BufferHarness h({.window = net::Duration::seconds(1), .max_buffered = 64});
  using Outcome = telescope::ReorderBuffer::Outcome;
  h.buffer.push(at_seconds(100));
  h.buffer.push(at_seconds(102));  // releases 100, watermark = 100
  EXPECT_EQ(h.buffer.push(at_seconds(99.5)), Outcome::Late);
  EXPECT_EQ(h.late.size(), 1u);
  h.buffer.flush();
  EXPECT_EQ(h.delivered.size(), 2u);  // the late packet was never delivered
}

TEST(ReorderBuffer, AcceptsArbitrarilyOldFirstPacket) {
  // Before any delivery the watermark must not reject pre-epoch stamps.
  BufferHarness h({.window = net::Duration::seconds(1), .max_buffered = 64});
  EXPECT_EQ(h.buffer.push(at_seconds(-1000)),
            telescope::ReorderBuffer::Outcome::Buffered);
  h.buffer.flush();
  EXPECT_EQ(h.delivered.size(), 1u);
}

TEST(ReorderBuffer, OverflowForceDeliversOldest) {
  BufferHarness h({.window = net::Duration::seconds(10), .max_buffered = 2});
  using Outcome = telescope::ReorderBuffer::Outcome;
  h.buffer.push(at_seconds(100));
  h.buffer.push(at_seconds(101));
  h.buffer.push(at_seconds(102));  // third held packet breaches the bound
  EXPECT_EQ(h.buffer.overflow_releases(), 1u);
  EXPECT_EQ(h.delivered.size(), 1u);
  EXPECT_EQ(h.buffer.watermark(), at_seconds(100).timestamp);
  // 99.8s is inside the 10s jitter window, but the forced release raised
  // the watermark past it — the distinct overflow-pressure reason.
  EXPECT_EQ(h.buffer.push(at_seconds(99.8)), Outcome::LateOverflow);
  EXPECT_EQ(h.late.size(), 1u);
  h.buffer.flush();
  EXPECT_EQ(h.delivered.size(), 3u);
  EXPECT_TRUE(std::is_sorted(h.delivered.begin(), h.delivered.end()));
}

TEST(ReorderBuffer, BufferedCountTracksHeap) {
  BufferHarness h({.window = net::Duration::seconds(5), .max_buffered = 64});
  for (int i = 0; i < 4; ++i) h.buffer.push(at_seconds(100 + i));
  EXPECT_EQ(h.buffer.buffered(), 4u);
  h.buffer.flush();
  EXPECT_EQ(h.buffer.buffered(), 0u);
}

// -------------------------------------------------------- fault injector

scangen::FaultConfig all_faults(std::uint64_t seed) {
  scangen::FaultConfig config;
  config.seed = seed;
  config.drop_prob = 0.05;
  config.duplicate_prob = 0.05;
  config.reorder_prob = 0.10;
  config.regression_prob = 0.02;
  config.corrupt_prob = 0.05;
  config.reorder_hold = net::Duration::seconds(2);
  config.regression_jump = net::Duration::seconds(30);
  return config;
}

std::vector<pkt::Packet> drain(scangen::FaultInjector& injector) {
  std::vector<pkt::Packet> out;
  while (auto p = injector.next()) out.push_back(*p);
  return out;
}

TEST(FaultInjector, NoFaultsIsPassthrough) {
  const auto packets = make_stream(200);
  scangen::FaultInjector injector(packets, {.seed = 5});
  const auto out = drain(injector);
  ASSERT_EQ(out.size(), packets.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].timestamp, packets[i].timestamp);
    EXPECT_EQ(out[i].tuple.src, packets[i].tuple.src);
    EXPECT_EQ(out[i].tcp_seq, packets[i].tcp_seq);
  }
  EXPECT_TRUE(injector.stats().conserved());
  EXPECT_EQ(injector.stats().dropped + injector.stats().duplicated +
                injector.stats().reordered + injector.stats().regressed +
                injector.stats().corrupted,
            0u);
}

TEST(FaultInjector, SameSeedSameFaults) {
  const auto packets = make_stream(800);
  scangen::FaultInjector a(packets, all_faults(7));
  scangen::FaultInjector b(packets, all_faults(7));
  const auto out_a = drain(a);
  const auto out_b = drain(b);
  ASSERT_EQ(out_a.size(), out_b.size());
  for (std::size_t i = 0; i < out_a.size(); ++i) {
    EXPECT_EQ(out_a[i].timestamp, out_b[i].timestamp);
    EXPECT_EQ(out_a[i].tuple.src, out_b[i].tuple.src);
    EXPECT_EQ(out_a[i].tcp_seq, out_b[i].tcp_seq);
    EXPECT_EQ(out_a[i].tcp_flags, out_b[i].tcp_flags);
  }
  EXPECT_EQ(a.stats().dropped, b.stats().dropped);
  EXPECT_EQ(a.stats().corrupted, b.stats().corrupted);
}

TEST(FaultInjector, DifferentSeedDifferentFaults) {
  const auto packets = make_stream(800);
  scangen::FaultInjector a(packets, all_faults(7));
  scangen::FaultInjector b(packets, all_faults(8));
  const auto out_a = drain(a);
  const auto out_b = drain(b);
  const bool same_shape =
      out_a.size() == out_b.size() &&
      std::equal(out_a.begin(), out_a.end(), out_b.begin(),
                 [](const auto& x, const auto& y) {
                   return x.timestamp == y.timestamp && x.tcp_seq == y.tcp_seq;
                 });
  EXPECT_FALSE(same_shape);
}

TEST(FaultInjector, ConservationUnderAllFaults) {
  const auto packets = make_stream(2000);
  scangen::FaultInjector injector(packets, all_faults(21));
  const auto out = drain(injector);
  const scangen::FaultStats& stats = injector.stats();
  EXPECT_EQ(stats.input, packets.size());
  EXPECT_TRUE(stats.conserved());
  EXPECT_EQ(out.size(), stats.emitted);
  // Every fault type actually fired at these rates and stream length.
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_GT(stats.duplicated, 0u);
  EXPECT_GT(stats.reordered, 0u);
  EXPECT_GT(stats.regressed, 0u);
  EXPECT_GT(stats.corrupted, 0u);
}

TEST(FaultInjector, ReorderDisplacementIsBounded) {
  scangen::FaultConfig config;
  config.seed = 3;
  config.reorder_prob = 0.3;
  config.reorder_hold = net::Duration::seconds(2);
  const auto packets = make_stream(1000);
  scangen::FaultInjector injector(packets, config);
  const auto out = drain(injector);
  ASSERT_EQ(out.size(), packets.size());
  net::SimTime max_seen = out.front().timestamp;
  for (const pkt::Packet& p : out) {
    // A withheld packet reappears after newer packets, but never after
    // the stream clock has advanced more than hold + one inter-arrival
    // gap (1s in this stream) past its own timestamp.
    EXPECT_GE(p.timestamp + config.reorder_hold + net::Duration::seconds(1),
              max_seen);
    if (p.timestamp > max_seen) max_seen = p.timestamp;
  }
  EXPECT_GT(injector.stats().reordered, 0u);
}

// ------------------------------------------- hardened ingest: properties

// Acceptance: with all five fault types enabled the hardened path never
// throws, and PipelineHealth accounts for 100% of the injected stream.
TEST(FaultTolerance, PipelineSurvivesAllFiveFaultsFullyAccounted) {
  const auto packets = make_stream(4000);
  scangen::FaultInjector injector(packets, all_faults(1234));

  telescope::TelescopeCapture capture(dark_space(), fast_config());
  std::uint64_t quarantined = 0;
  telescope::ResilientIngest ingest(
      {.window = net::Duration::seconds(5), .max_buffered = 65536},
      [&](const pkt::Packet& p) { capture.observe(p); },
      [&](const pkt::Packet&) { ++quarantined; });

  EXPECT_NO_THROW({
    while (auto p = injector.next()) ingest.observe(*p);
    ingest.finish();
  });

  const telescope::PipelineHealth& health = ingest.health();
  const scangen::FaultStats& stats = injector.stats();
  // Injector-side conservation, then ingest-side conservation, then the
  // seam between them: nothing appears or vanishes unaccounted.
  EXPECT_TRUE(stats.conserved());
  EXPECT_EQ(health.ingested, stats.emitted);
  EXPECT_TRUE(health.consistent());
  EXPECT_EQ(health.buffered, 0u);
  EXPECT_EQ(health.ingested, health.delivered + health.dropped());
  EXPECT_EQ(quarantined, health.dropped());
  // 30s regressions far exceed the 5s window: the late path was exercised.
  EXPECT_GT(stats.regressed, 0u);
  EXPECT_GT(health.dropped_late, 0u);
  EXPECT_GT(health.reordered, 0u);
  // The capture saw exactly the delivered packets, in order, no throw.
  EXPECT_EQ(capture.packets_captured(), health.delivered);
  EXPECT_GT(capture.finish().event_count(), 0u);
}

TEST(FaultTolerance, WindowAbsorbsBoundedReorderingExactly) {
  // Reordering alone (hold <= window, no gaps beyond window - hold):
  // the hardened pipeline must drop nothing and reproduce the clean
  // run's dataset event for event.
  const auto packets = make_stream(2000);
  telescope::TelescopeCapture clean(dark_space(), fast_config());
  for (const pkt::Packet& p : packets) clean.observe(p);
  const auto clean_contents = contents(clean.finish());

  scangen::FaultConfig config;
  config.seed = 77;
  config.reorder_prob = 0.25;
  config.reorder_hold = net::Duration::seconds(2);
  scangen::FaultInjector injector(packets, config);

  telescope::TelescopeCapture hardened(dark_space(), fast_config());
  telescope::ResilientIngest ingest(
      {.window = net::Duration::seconds(5), .max_buffered = 65536},
      [&](const pkt::Packet& p) { hardened.observe(p); });
  while (auto p = injector.next()) ingest.observe(*p);
  ingest.finish();

  EXPECT_EQ(ingest.health().dropped(), 0u);
  EXPECT_GT(ingest.health().reordered, 0u);
  EXPECT_EQ(contents(hardened.finish()), clean_contents);
}

TEST(FaultTolerance, OverflowBoundHoldsUnderPressure) {
  // A tiny buffer under heavy reordering: memory stays bounded, packets
  // drop for the overflow reason, the books still balance.
  const auto packets = make_stream(1500);
  scangen::FaultConfig config;
  config.seed = 9;
  config.reorder_prob = 0.5;
  config.reorder_hold = net::Duration::seconds(2);
  scangen::FaultInjector injector(packets, config);

  std::uint64_t delivered = 0;
  telescope::ResilientIngest ingest(
      {.window = net::Duration::seconds(5), .max_buffered = 4},
      [&](const pkt::Packet&) { ++delivered; });
  std::size_t peak = 0;
  while (auto p = injector.next()) {
    ingest.observe(*p);
    peak = std::max(peak, static_cast<std::size_t>(ingest.health().buffered));
  }
  ingest.finish();
  EXPECT_LE(peak, 4u);
  EXPECT_TRUE(ingest.health().consistent());
  EXPECT_EQ(ingest.health().delivered, delivered);
  EXPECT_EQ(ingest.health().dropped_late + ingest.health().dropped_overflow +
                delivered,
            ingest.health().ingested);
}

TEST(PipelineHealth, ToStringSummarizesCounters) {
  telescope::PipelineHealth health;
  health.ingested = 10;
  health.delivered = 8;
  health.dropped_late = 2;
  EXPECT_TRUE(health.consistent());
  const std::string text = health.to_string();
  EXPECT_NE(text.find("10"), std::string::npos);
  EXPECT_NE(text.find("late"), std::string::npos);
}

// -------------------------------------------- crash-resume equivalence

TEST(CrashResume, CaptureResumesToIdenticalDataset) {
  const auto packets = make_stream(3000);

  telescope::TelescopeCapture uninterrupted(dark_space(), fast_config());
  for (const pkt::Packet& p : packets) uninterrupted.observe(p);
  const auto want = contents(uninterrupted.finish());

  // Run to the midpoint — live events open, earlier events already
  // emitted — snapshot, then "crash" (drop the object).
  std::vector<std::uint8_t> snapshot;
  {
    telescope::TelescopeCapture first(dark_space(), fast_config());
    for (std::size_t i = 0; i < packets.size() / 2; ++i) first.observe(packets[i]);
    EXPECT_GT(first.aggregator().live_events(), 0u);
    EXPECT_GT(first.aggregator().events_emitted(), 0u);
    CheckpointWriter writer;
    first.checkpoint(writer);
    writer.finish(snapshot);
  }

  telescope::TelescopeCapture resumed(dark_space(), fast_config());
  CheckpointReader reader(snapshot);
  resumed.restore(reader);
  EXPECT_TRUE(reader.done());
  for (std::size_t i = packets.size() / 2; i < packets.size(); ++i) {
    resumed.observe(packets[i]);
  }
  EXPECT_EQ(resumed.packets_captured(), packets.size());
  EXPECT_EQ(resumed.unique_sources(), uninterrupted.unique_sources());
  EXPECT_EQ(contents(resumed.finish()), want);
}

TEST(CrashResume, CaptureRejectsConfigMismatch) {
  std::vector<std::uint8_t> snapshot;
  {
    telescope::TelescopeCapture capture(dark_space(), fast_config());
    for (const pkt::Packet& p : make_stream(100)) capture.observe(p);
    CheckpointWriter writer;
    capture.checkpoint(writer);
    writer.finish(snapshot);
  }
  telescope::AggregatorConfig other = fast_config();
  other.timeout = net::Duration::minutes(20);
  telescope::TelescopeCapture capture(dark_space(), other);
  CheckpointReader reader(snapshot);
  EXPECT_THROW(capture.restore(reader), std::runtime_error);
}

TEST(CrashResume, CaptureRejectsDarkSpaceMismatch) {
  std::vector<std::uint8_t> snapshot;
  {
    telescope::TelescopeCapture capture(dark_space(), fast_config());
    CheckpointWriter writer;
    capture.checkpoint(writer);
    writer.finish(snapshot);
  }
  telescope::TelescopeCapture capture(
      net::PrefixSet({*net::Prefix::parse("198.18.0.0/23")}), fast_config());
  CheckpointReader reader(snapshot);
  EXPECT_THROW(capture.restore(reader), std::runtime_error);
}

// Streaming-detector workload: multi-day background + aggressive sources,
// sorted by start time (as the capture layer guarantees).
std::vector<telescope::DarknetEvent> streaming_events() {
  std::vector<telescope::DarknetEvent> events;
  for (int s = 0; s < 150; ++s) {
    for (int day = 0; day < 6; ++day) {
      telescope::DarknetEvent e;
      e.key.src = net::Ipv4Address(0x0A000000u + static_cast<std::uint32_t>(s));
      e.key.dst_port = static_cast<std::uint16_t>(80 + s % 5);
      e.key.type = pkt::TrafficType::TcpSyn;
      e.start = net::SimTime::at(net::Duration::days(day) +
                                 net::Duration::minutes(3 * s));
      e.end = e.start + net::Duration::hours(1);
      e.packets = 5 + static_cast<std::uint64_t>((s * 13 + day * 7) % 400);
      e.unique_dests = 1 + static_cast<std::uint64_t>((s * 11 + day) % 300);
      e.packets_by_tool[telescope::tool_index(pkt::ScanTool::Other)] = e.packets;
      events.push_back(e);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) { return a.start < b.start; });
  return events;
}

detect::StreamingConfig streaming_config() {
  detect::StreamingConfig config;
  config.base.packet_volume_alpha = 0.01;
  config.base.port_count_alpha = 0.01;
  config.warmup_samples = 100;
  config.ecdf_reservoir = 512;  // small: forces bottom-k eviction
  return config;
}

std::string render_day(const detect::StreamingDayResult& day) {
  std::ostringstream out;
  out << day.day << '|' << day.calibrated << '|' << day.packet_threshold << '|'
      << day.port_threshold;
  for (const auto& list : day.daily) {
    out << '[';
    for (const net::Ipv4Address ip : list) out << ip.to_string() << ',';
    out << ']';
  }
  out << '\n';
  return out.str();
}

constexpr std::uint64_t kStreamingDarknet = 1000;

TEST(CrashResume, StreamingDetectorEmitsByteIdenticalDailyLists) {
  const auto events = streaming_events();

  detect::StreamingDetector uninterrupted(streaming_config(), kStreamingDarknet);
  std::string want;
  for (const auto& e : events) {
    for (const auto& day : uninterrupted.observe(e)) want += render_day(day);
  }
  if (const auto last = uninterrupted.finish()) want += render_day(*last);

  // Checkpoint mid-day (not at a boundary): the open day's working sets
  // and both bottom-k samples all have to survive.
  const std::size_t half = events.size() / 2;
  std::string got;
  std::vector<std::uint8_t> snapshot;
  {
    detect::StreamingDetector first(streaming_config(), kStreamingDarknet);
    for (std::size_t i = 0; i < half; ++i) {
      for (const auto& day : first.observe(events[i])) got += render_day(day);
    }
    CheckpointWriter writer;
    first.checkpoint(writer);
    writer.finish(snapshot);
  }
  detect::StreamingDetector resumed(streaming_config(), kStreamingDarknet);
  CheckpointReader reader(snapshot);
  resumed.restore(reader);
  EXPECT_TRUE(reader.done());
  EXPECT_EQ(resumed.events_seen(), half);
  for (std::size_t i = half; i < events.size(); ++i) {
    for (const auto& day : resumed.observe(events[i])) got += render_day(day);
  }
  if (const auto last = resumed.finish()) got += render_day(*last);

  EXPECT_EQ(got, want);
  EXPECT_EQ(resumed.events_seen(), events.size());
  for (const auto d :
       {detect::Definition::AddressDispersion, detect::Definition::PacketVolume,
        detect::Definition::DistinctPorts}) {
    EXPECT_EQ(resumed.ips(d), uninterrupted.ips(d));
  }
}

TEST(CrashResume, StreamingDetectorRejectsConfigMismatch) {
  std::vector<std::uint8_t> snapshot;
  {
    detect::StreamingDetector detector(streaming_config(), kStreamingDarknet);
    detector.observe(streaming_events().front());
    CheckpointWriter writer;
    detector.checkpoint(writer);
    writer.finish(snapshot);
  }
  detect::StreamingConfig other = streaming_config();
  other.warmup_samples = 999;
  detect::StreamingDetector detector(other, kStreamingDarknet);
  CheckpointReader reader(snapshot);
  EXPECT_THROW(detector.restore(reader), std::runtime_error);
}

TEST(CrashResume, StreamingDetectorRejectsDarknetMismatch) {
  std::vector<std::uint8_t> snapshot;
  {
    detect::StreamingDetector detector(streaming_config(), kStreamingDarknet);
    CheckpointWriter writer;
    detector.checkpoint(writer);
    writer.finish(snapshot);
  }
  detect::StreamingDetector detector(streaming_config(), kStreamingDarknet * 2);
  CheckpointReader reader(snapshot);
  EXPECT_THROW(detector.restore(reader), std::runtime_error);
}

TEST(CrashResume, IngestResumesWithNonEmptyBuffer) {
  // Jitter the stream so the reorder buffer is never empty mid-run, then
  // snapshot with packets in flight: the resumed ingest must deliver the
  // exact same suffix and end with the same health books.
  auto packets = make_stream(1200);
  for (std::size_t i = 0; i + 1 < packets.size(); i += 7) {
    std::swap(packets[i], packets[i + 1]);  // 1s of jitter, inside the window
  }
  const telescope::ReorderConfig config{.window = net::Duration::seconds(5),
                                        .max_buffered = 256};
  const std::size_t half = packets.size() / 2;

  std::vector<pkt::Packet> full_out;
  telescope::ResilientIngest full(
      config, [&](const pkt::Packet& p) { full_out.push_back(p); });
  std::size_t checkpoint_mark = 0;
  std::vector<std::uint8_t> snapshot;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    if (i == half) {
      EXPECT_GT(full.health().buffered, 0u);
      CheckpointWriter writer;
      full.checkpoint(writer);
      writer.finish(snapshot);
      checkpoint_mark = full_out.size();
    }
    full.observe(packets[i]);
  }
  full.finish();
  EXPECT_TRUE(full.health().consistent());

  std::vector<pkt::Packet> resumed_out;
  telescope::ResilientIngest resumed(
      config, [&](const pkt::Packet& p) { resumed_out.push_back(p); });
  CheckpointReader reader(snapshot);
  resumed.restore(reader);
  EXPECT_TRUE(reader.done());
  for (std::size_t i = half; i < packets.size(); ++i) resumed.observe(packets[i]);
  resumed.finish();

  ASSERT_EQ(resumed_out.size() + checkpoint_mark, full_out.size());
  for (std::size_t i = 0; i < resumed_out.size(); ++i) {
    const pkt::Packet& a = full_out[checkpoint_mark + i];
    const pkt::Packet& b = resumed_out[i];
    EXPECT_EQ(a.timestamp, b.timestamp);
    EXPECT_EQ(a.tuple.src, b.tuple.src);
    EXPECT_EQ(a.tuple.dst, b.tuple.dst);
    EXPECT_EQ(a.tcp_seq, b.tcp_seq);
  }
  const telescope::PipelineHealth& ha = full.health();
  const telescope::PipelineHealth& hb = resumed.health();
  EXPECT_EQ(ha.ingested, hb.ingested);
  EXPECT_EQ(ha.delivered, hb.delivered);
  EXPECT_EQ(ha.reordered, hb.reordered);
  EXPECT_EQ(ha.dropped_late, hb.dropped_late);
  EXPECT_EQ(ha.dropped_overflow, hb.dropped_overflow);
}

TEST(CrashResume, IngestRejectsConfigMismatch) {
  telescope::ResilientIngest ingest({.window = net::Duration::seconds(5)},
                                    [](const pkt::Packet&) {});
  std::vector<std::uint8_t> snapshot;
  CheckpointWriter writer;
  ingest.checkpoint(writer);
  writer.finish(snapshot);
  telescope::ResilientIngest other({.window = net::Duration::seconds(9)},
                                   [](const pkt::Packet&) {});
  CheckpointReader reader(snapshot);
  EXPECT_THROW(other.restore(reader), std::runtime_error);
}

}  // namespace
}  // namespace orion
