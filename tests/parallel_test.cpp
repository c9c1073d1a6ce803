// Determinism properties of the sharded parallel pipeline: for ANY shard
// count and ANY batch/ring interleaving, ParallelPipeline must produce
// results byte-identical to the serial TelescopeCapture +
// StreamingDetector path — events, daily AH lists, cumulative AH sets,
// and the health ledger. Also covers crash/checkpoint/resume mid-run,
// config-echo rejection, the SPSC ring under real concurrency, and
// sharded scangen generation. Runs under the `parallel` ctest label and
// the tsan preset.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <random>
#include <thread>
#include <tuple>
#include <vector>

#include "orion/detect/streaming.hpp"
#include "orion/netbase/shard.hpp"
#include "orion/scangen/packet_gen.hpp"
#include "orion/scangen/scenario.hpp"
#include "orion/telescope/capture.hpp"
#include "orion/telescope/checkpoint.hpp"
#include "orion/telescope/parallel.hpp"
#include "orion/telescope/spsc_ring.hpp"

namespace orion::telescope {
namespace {

const scangen::Scenario& scenario() {
  static const scangen::Scenario s{scangen::tiny()};
  return s;
}

std::vector<pkt::Packet> packet_stream(std::int64_t days) {
  scangen::PacketStreamGenerator generator(
      scenario().population_2021().scanners, scenario().darknet(),
      net::SimTime::epoch(), net::SimTime::epoch() + net::Duration::days(days),
      {.seed = 17, .exact_targets = true, .stable_streams = true});
  std::vector<pkt::Packet> packets;
  while (auto p = generator.next()) packets.push_back(*p);
  return packets;
}

detect::StreamingConfig detector_config() {
  detect::StreamingConfig config;
  config.base = {.dispersion_threshold = scenario().config().def1_dispersion,
                 .packet_volume_alpha = scenario().config().def2_alpha,
                 .port_count_alpha = scenario().config().def3_alpha};
  config.warmup_samples = 500;
  return config;
}

AggregatorConfig aggregator_config() {
  AggregatorConfig config;
  config.timeout = scenario().event_timeout();
  return config;
}

struct SerialResult {
  std::vector<DarknetEvent> events;
  std::vector<detect::StreamingDayResult> days;
  std::array<detect::IpSet, 3> ips;
  std::uint64_t packets = 0;
};

const SerialResult& serial_reference(const std::vector<pkt::Packet>& packets) {
  static SerialResult result = [&] {
    SerialResult r;
    TelescopeCapture capture(scenario().darknet(), aggregator_config());
    for (const pkt::Packet& p : packets) capture.observe(p);
    const EventDataset dataset = capture.finish();
    r.events = dataset.events();
    detect::StreamingDetector detector(
        detector_config(), scenario().darknet().total_addresses());
    for (const DarknetEvent& e : dataset.events()) {
      for (auto& day : detector.observe(e)) r.days.push_back(std::move(day));
    }
    if (auto last = detector.finish()) r.days.push_back(std::move(*last));
    for (int d = 0; d < 3; ++d) {
      r.ips[static_cast<std::size_t>(d)] =
          detector.ips(static_cast<detect::Definition>(d));
    }
    r.packets = capture.packets_captured();
    return r;
  }();
  return result;
}

ParallelConfig parallel_config(std::size_t shards, std::size_t batch,
                               std::size_t ring) {
  ParallelConfig config;
  config.shards = shards;
  config.batch_size = batch;
  config.ring_capacity = ring;
  config.aggregator = aggregator_config();
  config.detector = detector_config();
  return config;
}

void expect_matches_serial(const ParallelResult& result,
                           const SerialResult& serial) {
  EXPECT_EQ(result.dataset.events(), serial.events);
  ASSERT_EQ(result.days.size(), serial.days.size());
  for (std::size_t i = 0; i < serial.days.size(); ++i) {
    EXPECT_EQ(result.days[i], serial.days[i]) << "day index " << i;
  }
  for (int d = 0; d < 3; ++d) {
    EXPECT_EQ(result.ips[static_cast<std::size_t>(d)],
              serial.ips[static_cast<std::size_t>(d)])
        << "definition " << d;
  }
  EXPECT_EQ(result.health.ingested, serial.packets);
  EXPECT_EQ(result.health.delivered, serial.packets);
  EXPECT_EQ(result.health.dropped(), 0u);
  EXPECT_TRUE(result.health.consistent());
}

// The tentpole property: byte-identical results at every shard count.
TEST(ParallelPipeline, ShardCountInvariance) {
  const auto packets = packet_stream(5);
  const SerialResult& serial = serial_reference(packets);
  ASSERT_FALSE(serial.events.empty());
  ASSERT_FALSE(serial.days.empty());

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}, std::size_t{7}}) {
    ParallelPipeline pipeline(scenario().darknet(),
                              parallel_config(shards, 256, 64));
    for (const pkt::Packet& p : packets) pipeline.observe(p);
    expect_matches_serial(pipeline.finish(), serial);
  }
}

// Batch size and ring capacity shape the interleaving the workers see
// (single-packet batches maximize alternation; tiny rings force constant
// backpressure). None of it may leak into results.
TEST(ParallelPipeline, InterleavingInvariance) {
  const auto packets = packet_stream(5);
  const SerialResult& serial = serial_reference(packets);

  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 1}, {7, 2}, {1024, 64}};
  for (const auto& [batch, ring] : shapes) {
    ParallelPipeline pipeline(scenario().darknet(),
                              parallel_config(3, batch, ring));
    for (const pkt::Packet& p : packets) pipeline.observe(p);
    expect_matches_serial(pipeline.finish(), serial);
  }
}

// observe_batch gathers each shard's records a column at a time, but it
// must cut them where record-by-record observe() does, so every shard
// gets the same ring batches and sequence numbers (which the replay log
// and the fault hook count) for any incoming batch sizes.
TEST(ParallelPipeline, ObserveBatchCutsShardBatchesLikeObserve) {
  const auto packets = packet_stream(2);
  constexpr std::size_t kShards = 3;
  using Seen = std::array<std::vector<std::uint64_t>, kShards>;
  const auto batches_seen = [&](const std::function<void(ParallelPipeline&)>& feed) {
    Seen seen;  // each shard's list is written by its own worker only
    ParallelConfig config = parallel_config(kShards, 64, 8);
    config.supervisor.fault_hook = [&seen](std::size_t shard, std::uint64_t seq) {
      seen[shard].push_back(seq);
    };
    ParallelPipeline pipeline(scenario().darknet(), config);
    feed(pipeline);
    (void)pipeline.finish();
    return seen;
  };
  const Seen reference = batches_seen([&](ParallelPipeline& pipeline) {
    for (const pkt::Packet& p : packets) pipeline.observe(p);
  });
  for (const std::size_t max_chunk : {std::size_t{1}, std::size_t{100}, std::size_t{5000}}) {
    const Seen seen = batches_seen([&](ParallelPipeline& pipeline) {
      std::mt19937_64 rng(max_chunk);
      pkt::PacketBatch chunk;
      for (std::size_t i = 0; i < packets.size();) {
        chunk.clear();
        const std::size_t n = std::min(packets.size() - i, 1 + rng() % max_chunk);
        for (std::size_t j = 0; j < n; ++j) chunk.push_back(packets[i + j]);
        pipeline.observe_batch(chunk);
        i += n;
      }
    });
    for (std::size_t s = 0; s < kShards; ++s) {
      EXPECT_FALSE(reference[s].empty());
      EXPECT_EQ(seen[s], reference[s]) << "chunks up to " << max_chunk << ", shard " << s;
    }
  }
}

// Crash mid-run, restore into a fresh process, finish: byte-identical to
// both an uninterrupted parallel run and the serial path.
TEST(ParallelPipeline, CheckpointResumeMidRunMatchesSerial) {
  const auto packets = packet_stream(5);
  const SerialResult& serial = serial_reference(packets);
  const std::size_t cut = packets.size() / 2;

  std::vector<std::uint8_t> snapshot;
  {
    ParallelPipeline pipeline(scenario().darknet(),
                              parallel_config(4, 64, 8));
    for (std::size_t i = 0; i < cut; ++i) pipeline.observe(packets[i]);
    CheckpointWriter writer;
    pipeline.checkpoint(writer);
    writer.finish(snapshot);
    // The "crashed" pipeline is destroyed here with work in flight
    // discarded — the snapshot is all that survives.
  }

  ParallelPipeline resumed(scenario().darknet(), parallel_config(4, 64, 8));
  CheckpointReader reader(snapshot);
  resumed.restore(reader);
  EXPECT_EQ(resumed.packets_ingested(), cut);
  for (std::size_t i = cut; i < packets.size(); ++i) {
    resumed.observe(packets[i]);
  }
  expect_matches_serial(resumed.finish(), serial);
}

// PPL2 appended the supervision/escalation ledger (dropped_shed, stalls,
// worker_restarts) to the pipeline header. A PPL1 checkpoint — written
// by the version that predates those fields and by construction never
// shed, stalled, or restarted a worker — must still restore with a zero
// ledger instead of misparsing the first shard's data as counters.
TEST(ParallelPipeline, RestoreAcceptsLegacyPpl1Checkpoint) {
  const auto packets = packet_stream(5);
  const SerialResult& serial = serial_reference(packets);
  const std::size_t cut = packets.size() / 2;

  std::vector<std::uint8_t> snapshot;
  {
    ParallelPipeline pipeline(scenario().darknet(), parallel_config(4, 64, 8));
    for (std::size_t i = 0; i < cut; ++i) pipeline.observe(packets[i]);
    CheckpointWriter writer;
    pipeline.checkpoint(writer);
    writer.finish(snapshot);
  }

  // Rewrite the container into the exact PPL1 wire layout: the old tag
  // and no ledger u64s between `ingested` and the first shard section.
  const std::string frame(snapshot.begin(), snapshot.end());
  auto frame_u64 = [&](std::size_t off) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= std::uint64_t{static_cast<std::uint8_t>(frame[off + i])} << (8 * i);
    }
    return v;
  };
  // OCP1 frame: magic(4) version(8) length(8) payload crc(4).
  const std::size_t payload_len = static_cast<std::size_t>(frame_u64(12));
  ASSERT_EQ(frame.size(), 20 + payload_len + 4);
  std::vector<std::uint8_t> payload(frame.begin() + 20,
                                    frame.begin() + 20 +
                                        static_cast<std::ptrdiff_t>(payload_len));
  ASSERT_EQ(frame_u64(20), checkpoint_tag('P', 'P', 'L', '2'));
  const std::uint64_t v1 = checkpoint_tag('P', 'P', 'L', '1');
  for (std::size_t i = 0; i < 8; ++i) {
    payload[i] = static_cast<std::uint8_t>(v1 >> (8 * i));
  }
  // Header: tag(8) shards(8) darknet(8) saw(1) last_ts(8) ingested(8),
  // then the three ledger u64s PPL1 never had.
  const std::ptrdiff_t ledger_off = 8 + 8 + 8 + 1 + 8 + 8;
  ASSERT_GE(payload.size(), static_cast<std::size_t>(ledger_off) + 24);
  payload.erase(payload.begin() + ledger_off,
                payload.begin() + ledger_off + 24);
  std::vector<std::uint8_t> legacy;
  CheckpointWriter reframe;
  reframe.bytes(payload);
  reframe.finish(legacy);

  ParallelPipeline resumed(scenario().darknet(), parallel_config(4, 64, 8));
  CheckpointReader reader(legacy);
  resumed.restore(reader);
  EXPECT_EQ(resumed.packets_ingested(), cut);
  for (std::size_t i = cut; i < packets.size(); ++i) {
    resumed.observe(packets[i]);
  }
  expect_matches_serial(resumed.finish(), serial);
}

TEST(ParallelPipeline, RestoreRejectsMismatchedShardCount) {
  const auto packets = packet_stream(2);
  std::vector<std::uint8_t> snapshot;
  {
    ParallelPipeline pipeline(scenario().darknet(), parallel_config(4, 64, 8));
    for (const pkt::Packet& p : packets) pipeline.observe(p);
    CheckpointWriter writer;
    pipeline.checkpoint(writer);
    writer.finish(snapshot);
  }
  ParallelPipeline other(scenario().darknet(), parallel_config(2, 64, 8));
  CheckpointReader reader(snapshot);
  EXPECT_THROW(other.restore(reader), std::runtime_error);
}

TEST(ParallelPipeline, RestoreRejectsMismatchedDetectorConfig) {
  std::vector<std::uint8_t> snapshot;
  {
    ParallelPipeline pipeline(scenario().darknet(), parallel_config(2, 64, 8));
    CheckpointWriter writer;
    pipeline.checkpoint(writer);
    writer.finish(snapshot);
  }
  ParallelConfig tweaked = parallel_config(2, 64, 8);
  tweaked.detector.warmup_samples += 1;
  ParallelPipeline other(scenario().darknet(), tweaked);
  CheckpointReader reader(snapshot);
  EXPECT_THROW(other.restore(reader), std::runtime_error);
}

TEST(ParallelPipeline, ObserveRejectsTimestampRegression) {
  const auto packets = packet_stream(1);
  ASSERT_GT(packets.size(), 2u);
  ParallelPipeline pipeline(scenario().darknet(), parallel_config(2, 64, 8));
  pipeline.observe(packets[1]);
  EXPECT_THROW(pipeline.observe(packets[0]), std::invalid_argument);
}

// ------------------------------------------------------------- SpscRing

// Cross-thread FIFO integrity under real concurrency (and, under the
// tsan preset, a data-race check of the release/acquire protocol).
TEST(SpscRing, TwoThreadStressPreservesFifoOrder) {
  constexpr std::uint64_t kCount = 200000;
  SpscRing<std::uint64_t> ring(16);
  std::atomic<bool> failed{false};

  std::thread consumer([&] {
    std::uint64_t expected = 0;
    std::uint64_t value = 0;
    unsigned spins = 0;
    while (expected < kCount) {
      if (!ring.try_pop(value)) {
        spsc_backoff(spins);
        continue;
      }
      spins = 0;
      if (value != expected) {
        failed.store(true);
        return;
      }
      ++expected;
    }
  });

  for (std::uint64_t i = 0; i < kCount; ++i) {
    std::uint64_t value = i;
    unsigned spins = 0;
    while (!ring.try_push(value)) spsc_backoff(spins);
  }
  consumer.join();
  EXPECT_FALSE(failed.load());
}

// ------------------------------------------------- sharded generation

// With stable_streams, generating each shard's scanners separately and
// pooling the packets reproduces exactly the full population's packets
// (as a multiset — the k-way merge breaks simultaneous-arrival ties by
// internal stream index, which filtering renumbers).
TEST(ShardedScangen, ShardUnionEqualsFullStream) {
  using Key = std::tuple<std::int64_t, std::uint32_t, std::uint32_t,
                         std::uint16_t, std::uint16_t>;
  const auto key_of = [](const pkt::Packet& p) {
    return Key{p.timestamp.since_epoch().total_nanos(), p.tuple.src.value(),
               p.tuple.dst.value(), p.tuple.src_port, p.tuple.dst_port};
  };

  scangen::PacketGenConfig base{.seed = 17, .exact_targets = true,
                                .stable_streams = true};
  const net::SimTime t0 = net::SimTime::epoch();
  const net::SimTime t1 = t0 + net::Duration::days(2);

  std::vector<Key> full;
  {
    scangen::PacketStreamGenerator generator(
        scenario().population_2021().scanners, scenario().darknet(), t0, t1,
        base);
    while (auto p = generator.next()) full.push_back(key_of(*p));
  }
  ASSERT_FALSE(full.empty());

  constexpr std::size_t kShards = 3;
  std::vector<Key> pooled;
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    scangen::PacketGenConfig config = base;
    config.shard = shard;
    config.shard_count = kShards;
    scangen::PacketStreamGenerator generator(
        scenario().population_2021().scanners, scenario().darknet(), t0, t1,
        config);
    while (auto p = generator.next()) {
      EXPECT_EQ(net::shard_of(p->tuple.src, kShards), shard);
      pooled.push_back(key_of(*p));
    }
  }

  std::sort(full.begin(), full.end());
  std::sort(pooled.begin(), pooled.end());
  EXPECT_EQ(pooled, full);
}

TEST(ShardedScangen, ShardingRequiresStableStreams) {
  EXPECT_THROW(
      scangen::PacketStreamGenerator(
          scenario().population_2021().scanners, scenario().darknet(),
          net::SimTime::epoch(),
          net::SimTime::epoch() + net::Duration::days(1),
          {.seed = 17, .stable_streams = false, .shard = 0, .shard_count = 2}),
      std::invalid_argument);
}

}  // namespace
}  // namespace orion::telescope
