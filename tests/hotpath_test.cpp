// Batched-hot-path equivalence suite (DESIGN.md §11): the columnar
// PacketBatch bridge must be lossless; EventAggregator::observe_batch,
// TelescopeCapture::observe_batch and ParallelPipeline::observe_batch
// must land in the same state as per-packet observe() for ANY chunking
// (including size 1 and ragged tails), across day rollovers, sweep-heavy
// expiry storms, and checkpoint/resume cuts that land mid-batch; and the
// SpscRing span operations, the slicing-by-8 CRC-32 and the 8-byte-fold
// Internet checksum must match their scalar references. Per-packet
// observe() shares the aggregator's engine, so expiry itself is checked
// by telescope_test's ExpiryReference pins and model. Runs under the
// `hotpath` ctest label and the asan-ubsan + tsan presets.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <span>
#include <thread>
#include <vector>

#include "orion/netbase/checksum.hpp"
#include "orion/netbase/crc32.hpp"
#include "orion/packet/batch.hpp"
#include "orion/scangen/packet_gen.hpp"
#include "orion/scangen/scenario.hpp"
#include "orion/stats/cardinality.hpp"
#include "orion/telescope/capture.hpp"
#include "orion/telescope/checkpoint.hpp"
#include "orion/telescope/parallel.hpp"
#include "orion/telescope/spsc_ring.hpp"

#include "crc_pins.hpp"
#include "expiry_streams.hpp"

namespace orion {
namespace {

// ------------------------------------------------------------ fixtures

using test_streams::expiry_storm_stream;
using test_streams::scangen_stream;
using test_streams::scenario;
using test_streams::small_dark_space;
using test_streams::sweep_heavy_config;

struct CaptureState {
  std::uint32_t checkpoint_crc = 0;
  std::vector<telescope::DarknetEvent> events;
  std::uint64_t packets = 0;
  std::size_t sources = 0;

  bool operator==(const CaptureState&) const = default;
};

std::uint32_t checkpoint_crc(const telescope::TelescopeCapture& capture) {
  return test_pins::payload_crc(test_pins::checkpoint_bytes(capture));
}

/// Full-run state: checkpoint bytes are hashed BEFORE finish() so the
/// comparison covers live (mid-stream) aggregator state, not just output.
CaptureState drain(telescope::TelescopeCapture& capture) {
  CaptureState state;
  state.checkpoint_crc = checkpoint_crc(capture);
  state.packets = capture.packets_captured();
  state.sources = capture.unique_sources();
  state.events = capture.finish().events();
  return state;
}

CaptureState scalar_run(const std::vector<pkt::Packet>& packets,
                        const net::PrefixSet& dark,
                        const telescope::AggregatorConfig& config) {
  telescope::TelescopeCapture capture(dark, config);
  for (const pkt::Packet& p : packets) capture.observe(p);
  return drain(capture);
}

/// Chunks `packets` with the given sequence of batch sizes (cycled) and
/// feeds them through observe_batch on a single reused arena.
CaptureState batched_run(const std::vector<pkt::Packet>& packets,
                         const net::PrefixSet& dark,
                         const telescope::AggregatorConfig& config,
                         const std::vector<std::size_t>& sizes) {
  telescope::TelescopeCapture capture(dark, config);
  pkt::PacketBatch batch;
  std::size_t i = 0, cycle = 0;
  while (i < packets.size()) {
    const std::size_t size = sizes[cycle++ % sizes.size()];
    batch.clear();
    for (std::size_t j = 0; j < size && i < packets.size(); ++j, ++i) {
      batch.push_back(packets[i]);
    }
    capture.observe_batch(batch);
  }
  return drain(capture);
}

pkt::Packet random_packet(std::mt19937_64& rng) {
  pkt::Packet p;
  p.timestamp = net::SimTime::epoch() +
                net::Duration::nanos(static_cast<std::int64_t>(rng() >> 16));
  p.tuple.src = net::Ipv4Address(static_cast<std::uint32_t>(rng()));
  p.tuple.dst = net::Ipv4Address(static_cast<std::uint32_t>(rng()));
  p.tuple.src_port = static_cast<std::uint16_t>(rng());
  p.tuple.dst_port = static_cast<std::uint16_t>(rng());
  const net::IpProto protos[] = {net::IpProto::Tcp, net::IpProto::Udp,
                                 net::IpProto::Icmp};
  p.tuple.proto = protos[rng() % 3];
  p.ip_id = static_cast<std::uint16_t>(rng());
  p.ttl = static_cast<std::uint8_t>(rng());
  p.tcp_flags = static_cast<std::uint8_t>(rng());
  p.tcp_seq = static_cast<std::uint32_t>(rng());
  p.tcp_window = static_cast<std::uint16_t>(rng());
  p.icmp_type = static_cast<std::uint8_t>(rng() % 16);
  p.wire_length = static_cast<std::uint16_t>(40 + rng() % 1400);
  return p;
}

bool same_packet(const pkt::Packet& a, const pkt::Packet& b) {
  return a.timestamp == b.timestamp && a.tuple == b.tuple &&
         a.ip_id == b.ip_id && a.ttl == b.ttl && a.tcp_flags == b.tcp_flags &&
         a.tcp_seq == b.tcp_seq && a.tcp_window == b.tcp_window &&
         a.icmp_type == b.icmp_type && a.wire_length == b.wire_length;
}

// ---------------------------------------------------------- PacketBatch

TEST(PacketBatch, RoundTripIsLossless) {
  std::mt19937_64 rng(1);
  std::vector<pkt::Packet> packets;
  pkt::PacketBatch batch;
  for (int i = 0; i < 1000; ++i) {
    packets.push_back(random_packet(rng));
    batch.push_back(packets.back());
  }
  ASSERT_EQ(batch.size(), packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_TRUE(same_packet(batch.packet_at(i), packets[i])) << "record " << i;
  }
}

TEST(PacketBatch, AppendRecordCopiesAllColumns) {
  std::mt19937_64 rng(2);
  pkt::PacketBatch source;
  for (int i = 0; i < 64; ++i) source.push_back(random_packet(rng));
  pkt::PacketBatch scattered;
  // Scatter in a shuffled order, the way the pipeline dispatcher does.
  std::vector<std::size_t> order(source.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  for (const std::size_t i : order) scattered.append_record(source, i);
  for (std::size_t j = 0; j < order.size(); ++j) {
    EXPECT_TRUE(same_packet(scattered.packet_at(j), source.packet_at(order[j])));
  }
  // The column-wise gather, onto a non-empty batch and in ragged chunks
  // (the dispatcher cuts a shard's indices at batch_size boundaries),
  // must give the same records: every column, including the ones the
  // aggregator never reads (ttl, tcp_window, wire_len).
  pkt::PacketBatch gathered;
  gathered.push_back(source.packet_at(5));
  const std::vector<std::uint32_t> indices(order.begin(), order.end());
  std::span<const std::uint32_t> rest = indices;
  for (std::size_t chunk = 1; !rest.empty(); chunk = chunk * 2 + 1) {
    const std::size_t take = std::min(chunk, rest.size());
    gathered.append_records(source, rest.first(take));
    rest = rest.subspan(take);
  }
  gathered.append_records(source, std::span<const std::uint32_t>());
  ASSERT_EQ(gathered.size(), order.size() + 1);
  EXPECT_TRUE(same_packet(gathered.packet_at(0), source.packet_at(5)));
  for (std::size_t j = 0; j < order.size(); ++j) {
    EXPECT_TRUE(same_packet(gathered.packet_at(j + 1), source.packet_at(order[j])))
        << "gathered record " << j;
  }
}

TEST(PacketBatch, ColumnClassifiersMatchScalar) {
  std::mt19937_64 rng(3);
  pkt::PacketBatch batch;
  std::vector<pkt::Packet> packets;
  for (int i = 0; i < 4000; ++i) {
    pkt::Packet p = random_packet(rng);
    // Half the stream carries genuine tool artifacts so every ScanTool
    // branch of the classifier is exercised, not just Other.
    if (i % 2 == 0) {
      pkt::apply_fingerprint(p, static_cast<pkt::ScanTool>(rng() % 4));
    }
    packets.push_back(p);
    batch.push_back(p);
  }
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(batch.traffic_type(i), packets[i].traffic_type());
    EXPECT_EQ(batch.tool(i), pkt::fingerprint_of(packets[i]));
  }
  // clear() keeps capacity but drops every record.
  batch.clear();
  EXPECT_TRUE(batch.empty());
}

// ------------------------------------------------------------ checksums

TEST(Crc32, SlicedMatchesScalarOneShotFuzz) {
  std::mt19937_64 rng(11);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> data(rng() % 4096);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng());
    EXPECT_EQ(net::Crc32::of(data), net::Crc32::of_scalar(data))
        << "length " << data.size();
  }
  // Every length near the 8-byte slicing boundary, deterministically.
  for (std::size_t len = 0; len <= 33; ++len) {
    std::vector<std::uint8_t> data(len);
    for (std::size_t i = 0; i < len; ++i) data[i] = static_cast<std::uint8_t>(i * 37);
    EXPECT_EQ(net::Crc32::of(data), net::Crc32::of_scalar(data)) << "length " << len;
  }
}

TEST(Crc32, SlicedMatchesScalarUnderArbitraryChunking) {
  std::mt19937_64 rng(12);
  std::vector<std::uint8_t> data(1 << 16);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  const std::uint32_t reference = net::Crc32::of_scalar(data);
  for (int round = 0; round < 30; ++round) {
    net::Crc32 sliced;
    net::Crc32 mixed;  // randomly alternates the two forms on one stream
    std::size_t i = 0;
    while (i < data.size()) {
      const std::size_t n = std::min<std::size_t>(1 + rng() % 777, data.size() - i);
      const std::span<const std::uint8_t> chunk(data.data() + i, n);
      sliced.update(chunk);
      if (rng() % 2) {
        mixed.update(chunk);
      } else {
        mixed.update_scalar(chunk);
      }
      i += n;
    }
    EXPECT_EQ(sliced.value(), reference);
    EXPECT_EQ(mixed.value(), reference);
  }
}

TEST(InternetChecksum, FoldedMatchesScalarOneShotFuzz) {
  std::mt19937_64 rng(13);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> data(rng() % 4096);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng());
    EXPECT_EQ(net::InternetChecksum::of(data),
              net::InternetChecksum::of_scalar(data))
        << "length " << data.size();
  }
  for (std::size_t len = 0; len <= 33; ++len) {
    std::vector<std::uint8_t> data(len, 0xFF);  // saturating carries
    EXPECT_EQ(net::InternetChecksum::of(data),
              net::InternetChecksum::of_scalar(data))
        << "length " << len;
  }
}

TEST(InternetChecksum, FoldedMatchesScalarOnIdenticalCallSequences) {
  // The accumulator contract is per-call-sequence (an odd-length chunk
  // pads, exactly like the scalar form), so both accumulators must see
  // the same chunking — and then agree for ANY chunking.
  std::mt19937_64 rng(14);
  std::vector<std::uint8_t> data(1 << 15);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  for (int round = 0; round < 30; ++round) {
    net::InternetChecksum folded;
    net::InternetChecksum scalar;
    folded.add_word(static_cast<std::uint16_t>(round * 9176));  // pseudo-header
    scalar.add_word(static_cast<std::uint16_t>(round * 9176));
    std::size_t i = 0;
    while (i < data.size()) {
      const std::size_t n = std::min<std::size_t>(1 + rng() % 513, data.size() - i);
      folded.add_bytes({data.data() + i, n});
      scalar.add_bytes_scalar({data.data() + i, n});
      i += n;
    }
    EXPECT_EQ(folded.finalize(), scalar.finalize());
  }
}

// ------------------------------------------------------- SpscRing spans

TEST(SpscRing, SpanPushPopPartialAcceptance) {
  telescope::SpscRing<int> ring(8);
  std::vector<int> values = {1, 2, 3, 4, 5, 6};
  EXPECT_EQ(ring.try_push_n(std::span<int>(values)), 6u);
  // Only 2 slots left: a 6-wide push takes 2 and reports it.
  EXPECT_EQ(ring.try_push_n(std::span<int>(values)), 2u);
  EXPECT_EQ(ring.try_push_n(std::span<int>(values)), 0u);  // full

  std::vector<int> out(5, 0);
  EXPECT_EQ(ring.try_pop_n(std::span<int>(out)), 5u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5}));
  std::vector<int> rest(8, 0);
  EXPECT_EQ(ring.try_pop_n(std::span<int>(rest)), 3u);  // 6, then 1, 2 again
  EXPECT_EQ(rest[0], 6);
  EXPECT_EQ(rest[1], 1);
  EXPECT_EQ(rest[2], 2);
  EXPECT_EQ(ring.try_pop_n(std::span<int>(rest)), 0u);  // empty
}

TEST(SpscRing, SpanOpsTwoThreadStressPreserveFifo) {
  constexpr std::uint64_t kCount = 50000;
  telescope::SpscRing<std::uint64_t> ring(64);
  std::thread producer([&ring] {
    std::mt19937 rng(21);
    std::uint64_t next = 0;
    std::vector<std::uint64_t> span;
    while (next < kCount) {
      const std::size_t want =
          std::min<std::uint64_t>(1 + rng() % 7, kCount - next);
      span.resize(want);
      for (std::size_t i = 0; i < want; ++i) span[i] = next + i;
      std::size_t pushed = 0;
      while (pushed < want) {
        const std::size_t n = ring.try_push_n(
            std::span<std::uint64_t>(span.data() + pushed, want - pushed));
        if (n == 0) std::this_thread::yield();  // 1-core CI friendliness
        pushed += n;
      }
      next += want;
    }
  });
  std::mt19937 rng(22);
  std::uint64_t expected = 0;
  std::vector<std::uint64_t> out;
  while (expected < kCount) {
    out.resize(1 + rng() % 9);
    const std::size_t n = ring.try_pop_n(std::span<std::uint64_t>(out));
    if (n == 0) std::this_thread::yield();
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], expected) << "FIFO order violated";
      ++expected;
    }
  }
  producer.join();
}

// ------------------------------------- scangen batched emission

TEST(ScangenBatch, NextBatchMatchesNextExactly) {
  const scangen::PacketGenConfig options{
      .seed = 17, .exact_targets = true, .stable_streams = true};
  scangen::PacketStreamGenerator scalar(
      scenario().population_2021().scanners, scenario().darknet(),
      net::SimTime::epoch(), net::SimTime::epoch() + net::Duration::days(1),
      options);
  scangen::PacketStreamGenerator batched(
      scenario().population_2021().scanners, scenario().darknet(),
      net::SimTime::epoch(), net::SimTime::epoch() + net::Duration::days(1),
      options);
  std::mt19937 rng(31);
  pkt::PacketBatch batch;
  for (;;) {
    const auto peek = batched.peek_time();
    batch.clear();
    const std::size_t n = batched.next_batch(batch, 1 + rng() % 97);
    if (n == 0) {
      EXPECT_FALSE(peek.has_value());
      EXPECT_FALSE(scalar.next().has_value());
      break;
    }
    ASSERT_TRUE(peek.has_value());
    EXPECT_EQ(*peek, batch.timestamp_nanos(0));
    for (std::size_t i = 0; i < n; ++i) {
      const auto reference = scalar.next();
      ASSERT_TRUE(reference.has_value());
      EXPECT_TRUE(same_packet(batch.packet_at(i), *reference));
    }
  }
  EXPECT_EQ(scalar.packets_emitted(), batched.packets_emitted());
}

// ------------------------------------- aggregator batch equivalence

TEST(BatchEquivalence, FixedAndRaggedBatchSizesMatchScalar) {
  const auto packets = scangen_stream(2);
  const auto dark = scenario().darknet();
  telescope::AggregatorConfig config;
  config.timeout = scenario().event_timeout();
  const CaptureState reference = scalar_run(packets, dark, config);
  ASSERT_FALSE(reference.events.empty());

  for (const std::size_t size : {std::size_t{1}, std::size_t{3},
                                 std::size_t{64}, std::size_t{256},
                                 std::size_t{1024}}) {
    EXPECT_EQ(batched_run(packets, dark, config, {size}), reference)
        << "batch size " << size;
  }
  // Ragged mixes, including size-1 batches and a tail that never fills.
  EXPECT_EQ(batched_run(packets, dark, config, {1, 513, 2, 64, 7}), reference);
  std::mt19937 rng(41);
  std::vector<std::size_t> random_sizes;
  for (int i = 0; i < 100; ++i) random_sizes.push_back(1 + rng() % 512);
  EXPECT_EQ(batched_run(packets, dark, config, random_sizes), reference);
}

TEST(BatchEquivalence, ExpiryStormSweepOrderMatchesScalar) {
  const auto packets = expiry_storm_stream();
  const auto dark = small_dark_space();
  const auto config = sweep_heavy_config();
  const CaptureState reference = scalar_run(packets, dark, config);
  ASSERT_GT(reference.events.size(), 100u);  // the storm must churn events
  for (const std::size_t size :
       {std::size_t{1}, std::size_t{17}, std::size_t{240}, std::size_t{4096}}) {
    EXPECT_EQ(batched_run(packets, dark, config, {size}), reference)
        << "batch size " << size;
  }
}

TEST(BatchEquivalence, MixedScalarAndBatchCallsMatchScalar) {
  // Alternating observe() and observe_batch() on one capture: one-record
  // and multi-record calls must compose.
  const auto packets = expiry_storm_stream();
  const auto dark = small_dark_space();
  const auto config = sweep_heavy_config();
  const CaptureState reference = scalar_run(packets, dark, config);

  std::mt19937 rng(43);
  telescope::TelescopeCapture capture(dark, config);
  pkt::PacketBatch batch;
  std::size_t i = 0;
  while (i < packets.size()) {
    if (rng() % 2) {
      capture.observe(packets[i++]);
    } else {
      const std::size_t size = 1 + rng() % 300;
      batch.clear();
      for (std::size_t j = 0; j < size && i < packets.size(); ++j, ++i) {
        batch.push_back(packets[i]);
      }
      capture.observe_batch(batch);
    }
  }
  EXPECT_EQ(drain(capture), reference);
}

TEST(BatchEquivalence, AdvanceToAtDayRolloversMatchesScalar) {
  // The longitudinal driver closes days with advance_to(); batch ingest
  // that cuts batches at UTC day edges must land in the same state.
  const auto packets = scangen_stream(3);
  const auto dark = scenario().darknet();
  telescope::AggregatorConfig config;
  config.timeout = scenario().event_timeout();
  constexpr std::int64_t kDayNanos = 86400000000000LL;

  const auto day_of = [&](const pkt::Packet& p) {
    return p.timestamp.since_epoch().total_nanos() / kDayNanos;
  };

  telescope::EventCollector scalar_events;
  telescope::EventAggregator scalar(dark, config, scalar_events.sink());
  std::int64_t open_day = day_of(packets.front());
  for (const pkt::Packet& p : packets) {
    if (day_of(p) != open_day) {
      scalar.advance_to(net::SimTime::epoch() +
                        net::Duration::nanos(day_of(p) * kDayNanos));
      open_day = day_of(p);
    }
    scalar.observe(p);
  }
  scalar.finish();

  telescope::EventCollector batch_events;
  telescope::EventAggregator batched(dark, config, batch_events.sink());
  pkt::PacketBatch batch;
  std::size_t i = 0;
  std::mt19937 rng(44);
  while (i < packets.size()) {
    const std::int64_t day = day_of(packets[i]);
    if (i > 0 && day != day_of(packets[i - 1])) {
      batched.advance_to(net::SimTime::epoch() +
                         net::Duration::nanos(day * kDayNanos));
    }
    const std::size_t size = 1 + rng() % 200;
    batch.clear();
    while (batch.size() < size && i < packets.size() &&
           day_of(packets[i]) == day) {
      batch.push_back(packets[i++]);
    }
    batched.observe_batch(batch);
  }
  batched.finish();

  EXPECT_EQ(batch_events.events(), scalar_events.events());
  EXPECT_EQ(batched.packets_seen(), scalar.packets_seen());
  EXPECT_EQ(batched.events_emitted(), scalar.events_emitted());
}

TEST(BatchEquivalence, CheckpointResumeMidBatchMatchesUninterrupted) {
  const auto packets = expiry_storm_stream();
  const auto dark = small_dark_space();
  const auto config = sweep_heavy_config();
  const CaptureState reference = scalar_run(packets, dark, config);

  std::mt19937 rng(45);
  for (int round = 0; round < 4; ++round) {
    // A cut point deliberately NOT aligned to the batch size, so the
    // checkpoint lands mid-way through what would have been one batch.
    const std::size_t cut = 1 + rng() % (packets.size() - 1);
    const std::size_t batch_size = 64;

    telescope::TelescopeCapture first(dark, config);
    pkt::PacketBatch batch;
    std::size_t i = 0;
    while (i < cut) {
      batch.clear();
      for (std::size_t j = 0; j < batch_size && i < cut; ++j, ++i) {
        batch.push_back(packets[i]);
      }
      first.observe_batch(batch);
    }
    telescope::CheckpointWriter writer;
    first.checkpoint(writer);
    std::vector<std::uint8_t> snapshot;
    writer.finish(snapshot);

    telescope::TelescopeCapture resumed(dark, config);
    telescope::CheckpointReader reader(snapshot);
    resumed.restore(reader);
    while (i < packets.size()) {
      batch.clear();
      for (std::size_t j = 0; j < batch_size && i < packets.size(); ++j, ++i) {
        batch.push_back(packets[i]);
      }
      resumed.observe_batch(batch);
    }
    EXPECT_EQ(drain(resumed), reference) << "cut at " << cut;
  }
}

TEST(BatchEquivalence, TimestampRegressionThrowsBeforeAnyRecordApplies) {
  const auto dark = small_dark_space();
  const auto config = sweep_heavy_config();
  const auto packets = expiry_storm_stream();

  telescope::TelescopeCapture capture(dark, config);
  pkt::PacketBatch prefix;
  for (std::size_t i = 0; i < 100; ++i) prefix.push_back(packets[i]);
  capture.observe_batch(prefix);
  const std::uint32_t before = checkpoint_crc(capture);

  // Valid head, regressing tail: the batch contract is all-or-nothing, so
  // the valid head must NOT be applied (stronger than the scalar loop).
  pkt::PacketBatch bad;
  bad.push_back(packets[100]);
  pkt::Packet regressed = packets[101];
  regressed.timestamp = packets[0].timestamp;
  bad.push_back(regressed);
  EXPECT_THROW(capture.observe_batch(bad), std::invalid_argument);
  EXPECT_EQ(checkpoint_crc(capture), before);

  // The capture stays usable and convergent afterwards.
  pkt::PacketBatch rest;
  for (std::size_t i = 100; i < packets.size(); ++i) rest.push_back(packets[i]);
  capture.observe_batch(rest);
  EXPECT_EQ(drain(capture), scalar_run(packets, dark, config));
}

// ------------------------------------- parallel pipeline batch path

TEST(ParallelPipelineBatch, ObserveBatchMatchesSerialAcrossShardCounts) {
  const auto packets = scangen_stream(2);

  telescope::AggregatorConfig agg_config;
  agg_config.timeout = scenario().event_timeout();
  detect::StreamingConfig det_config;
  det_config.base = {.dispersion_threshold = scenario().config().def1_dispersion,
                     .packet_volume_alpha = scenario().config().def2_alpha,
                     .port_count_alpha = scenario().config().def3_alpha};
  det_config.warmup_samples = 500;

  telescope::TelescopeCapture serial(scenario().darknet(), agg_config);
  for (const pkt::Packet& p : packets) serial.observe(p);
  const std::vector<telescope::DarknetEvent> reference =
      serial.finish().events();

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{3}, std::size_t{4}}) {
    telescope::ParallelConfig config;
    config.shards = shards;
    config.batch_size = 96;
    config.ring_capacity = 8;  // small: forces backpressure + recycling
    config.aggregator = agg_config;
    config.detector = det_config;
    telescope::ParallelPipeline pipeline(scenario().darknet(), config);
    std::mt19937 rng(50 + static_cast<unsigned>(shards));
    pkt::PacketBatch batch;
    std::size_t i = 0;
    while (i < packets.size()) {
      const std::size_t size = 1 + rng() % 333;
      batch.clear();
      for (std::size_t j = 0; j < size && i < packets.size(); ++j, ++i) {
        batch.push_back(packets[i]);
      }
      pipeline.observe_batch(batch);
    }
    const telescope::ParallelResult result = pipeline.finish();
    EXPECT_EQ(result.dataset.events(), reference) << shards << " shards";
    EXPECT_EQ(result.health.ingested, packets.size());
    EXPECT_EQ(result.health.delivered, packets.size());
    EXPECT_EQ(result.health.dropped(), 0u);
    EXPECT_TRUE(result.health.consistent());
  }
}

// ----------------------------------------- dense-set cardinality estimator

TEST(CardinalityEstimatorFlatSet, MatchesReferenceSetAndOrderInvariant) {
  std::mt19937_64 rng(61);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 3000; ++i) {
    // Small key range forces duplicates; 0 is the first offset.
    keys.push_back(rng() % 1500);
  }
  std::vector<std::uint64_t> shuffled = keys;
  std::shuffle(shuffled.begin(), shuffled.end(), rng);

  constexpr std::uint64_t kUniverse = std::uint64_t{1} << 20;
  stats::CardinalityEstimator forward(kUniverse);
  stats::CardinalityEstimator reordered(kUniverse);
  std::vector<std::uint64_t> reference;
  for (const std::uint64_t k : keys) {
    forward.add(k);
    if (std::find(reference.begin(), reference.end(), k) == reference.end()) {
      reference.push_back(k);
    }
  }
  for (const std::uint64_t k : shuffled) reordered.add(k);

  // Insertion order must not matter.
  std::sort(reference.begin(), reference.end());
  EXPECT_EQ(forward.size(), reference.size());
  EXPECT_EQ(forward.keys(), reference);
  EXPECT_EQ(reordered.keys(), reference);
  EXPECT_EQ(forward.words(), reordered.words());

  // A set rebuilt from its keys stays usable.
  stats::CardinalityEstimator restored(kUniverse);
  for (const std::uint64_t k : forward.keys()) restored.add(k);
  EXPECT_EQ(restored.size(), forward.size());
  restored.add(999999);
  EXPECT_EQ(restored.size(), forward.size() + 1);
}

}  // namespace
}  // namespace orion
