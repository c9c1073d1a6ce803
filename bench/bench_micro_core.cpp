// Microbenchmarks for the hot paths: event aggregation, cardinality
// sketches, detection statistics, traffic generation and routing — plus
// the DESIGN.md §7 ablations (exact-set vs HLL tracking, lazy-sweep
// aggregator, binomial thinning vs naive per-address generation,
// deterministic vs random flow sampling).
#include <benchmark/benchmark.h>

#include <vector>

#include "orion/detect/detector.hpp"
#include "orion/flowsim/routing.hpp"
#include "orion/netbase/checksum.hpp"
#include "orion/netbase/crc32.hpp"
#include "orion/netbase/flat_map.hpp"
#include "orion/netbase/simd.hpp"
#include "orion/packet/batch.hpp"
#include "orion/packet/classify.hpp"
#include "orion/flowsim/sampler.hpp"
#include "orion/packet/builder.hpp"
#include "orion/scangen/packet_gen.hpp"
#include "orion/scangen/scenario.hpp"
#include "orion/scangen/target_sampler.hpp"
#include "orion/stats/ecdf.hpp"
#include "orion/stats/cardinality.hpp"
#include "orion/telescope/aggregator.hpp"

namespace {

using namespace orion;

net::PrefixSet dark_space() {
  return net::PrefixSet({*net::Prefix::parse("198.18.0.0/17")});
}

// --- aggregator -------------------------------------------------------------

std::vector<pkt::Packet> make_probe_batch(std::size_t count) {
  std::vector<pkt::Packet> packets;
  packets.reserve(count);
  net::Rng rng(1);
  const net::PrefixSet space = dark_space();
  for (std::size_t src = 0; src < 64; ++src) {
    pkt::ProbeBuilder builder(net::Ipv4Address(0x0B000000u + (std::uint32_t)src),
                              pkt::ScanTool::ZMap, net::Rng(src));
    for (std::size_t i = 0; i < count / 64; ++i) {
      const net::SimTime t =
          net::SimTime::at(net::Duration::millis((std::int64_t)(packets.size())));
      packets.push_back(builder.tcp_syn(
          t, space.address_at(rng.bounded(space.total_addresses())), 6379));
    }
  }
  return packets;
}

void BM_AggregatorObserve(benchmark::State& state) {
  const auto packets = make_probe_batch(1 << 16);
  for (auto _ : state) {
    state.PauseTiming();
    telescope::EventCollector collector;
    telescope::EventAggregator agg(dark_space(), {}, collector.sink());
    state.ResumeTiming();
    for (const pkt::Packet& p : packets) agg.observe(p);
    agg.finish();
    benchmark::DoNotOptimize(agg.events_emitted());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(packets.size()));
}
BENCHMARK(BM_AggregatorObserve)->Unit(benchmark::kMillisecond);

/// The batched SoA engine on the same stream: pre-chunked columnar
/// batches through observe_batch (byte-identical results; DESIGN.md §11).
void BM_AggregatorObserveBatch(benchmark::State& state) {
  const auto packets = make_probe_batch(1 << 16);
  const std::size_t batch_size = static_cast<std::size_t>(state.range(0));
  std::vector<pkt::PacketBatch> batches;
  for (std::size_t i = 0; i < packets.size(); i += batch_size) {
    pkt::PacketBatch b(batch_size);
    for (std::size_t j = i; j < i + batch_size && j < packets.size(); ++j) {
      b.push_back(packets[j]);
    }
    batches.push_back(std::move(b));
  }
  for (auto _ : state) {
    state.PauseTiming();
    telescope::EventCollector collector;
    telescope::EventAggregator agg(dark_space(), {}, collector.sink());
    state.ResumeTiming();
    for (const pkt::PacketBatch& b : batches) agg.observe_batch(b);
    agg.finish();
    benchmark::DoNotOptimize(agg.events_emitted());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(packets.size()));
}
BENCHMARK(BM_AggregatorObserveBatch)->Arg(64)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

/// Ablation: sweep interval of the lazy expiry (DESIGN.md §7) — coarse
/// sweeps amortize better until expiry latency dominates memory.
void BM_AggregatorSweepInterval(benchmark::State& state) {
  const auto packets = make_probe_batch(1 << 15);
  telescope::AggregatorConfig config;
  config.sweep_interval = net::Duration::seconds(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    telescope::EventCollector collector;
    telescope::EventAggregator agg(dark_space(), config, collector.sink());
    state.ResumeTiming();
    for (const pkt::Packet& p : packets) agg.observe(p);
    agg.finish();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(packets.size()));
}
BENCHMARK(BM_AggregatorSweepInterval)->Arg(1)->Arg(30)->Arg(300)->Unit(benchmark::kMillisecond);

// --- checksums ---------------------------------------------------------------

std::vector<std::uint8_t> checksum_payload() {
  std::vector<std::uint8_t> data(1 << 20);
  net::Rng rng(42);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  return data;
}

/// Byte-at-a-time CRC-32 reference vs slicing-by-8 (crc32.hpp).
void BM_Crc32Scalar(benchmark::State& state) {
  const auto data = checksum_payload();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::Crc32::of_scalar(data));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_Crc32Scalar)->Unit(benchmark::kMicrosecond);

void BM_Crc32Sliced(benchmark::State& state) {
  const auto data = checksum_payload();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::Crc32::of_sliced(data));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_Crc32Sliced)->Unit(benchmark::kMicrosecond);

/// Hardware CRC-32 (PCLMULQDQ fold on x86, ARMv8 CRC instructions on
/// aarch64; DESIGN.md §14). Acceptance: >= 2x the slicing-by-8 rate.
void BM_Crc32Hw(benchmark::State& state) {
  const auto data = checksum_payload();
  if (!net::crc32_hw_available()) {
    state.SkipWithError("no hardware CRC path on this machine");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::Crc32::of(data));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_Crc32Hw)->Unit(benchmark::kMicrosecond);

/// 16-bit-at-a-time RFC 1071 reference vs the 8-bytes-per-step fold
/// (checksum.hpp).
void BM_ChecksumScalar(benchmark::State& state) {
  const auto data = checksum_payload();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::InternetChecksum::of_scalar(data));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_ChecksumScalar)->Unit(benchmark::kMicrosecond);

void BM_ChecksumFolded(benchmark::State& state) {
  // Pin the scalar tier so of() runs the 8-bytes-per-step fold rather
  // than the vectorized sum (benchmarked separately below).
  const auto saved = net::simd::active_level();
  net::simd::set_level(net::simd::Level::Scalar);
  const auto data = checksum_payload();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::InternetChecksum::of(data));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
  net::simd::set_level(saved);
}
BENCHMARK(BM_ChecksumFolded)->Unit(benchmark::kMicrosecond);

void BM_ChecksumSimd(benchmark::State& state) {
  if (net::simd::detected_level() == net::simd::Level::Scalar) {
    state.SkipWithError("no SIMD tier on this machine");
    return;
  }
  const auto data = checksum_payload();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::InternetChecksum::of(data));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_ChecksumSimd)->Unit(benchmark::kMicrosecond);

// --- SIMD kernels (DESIGN.md §14) -------------------------------------------

pkt::PacketBatch classify_input() {
  pkt::PacketBatch batch(1 << 12);
  for (const pkt::Packet& p : make_probe_batch(1 << 12)) batch.push_back(p);
  return batch;
}

void BM_ClassifyBatchScalar(benchmark::State& state) {
  const auto batch = classify_input();
  std::vector<std::uint8_t> type(batch.size()), tool(batch.size());
  for (auto _ : state) {
    pkt::classify_traffic_batch_scalar(
        batch.proto_col().data(), batch.tcp_flags_col().data(),
        batch.icmp_type_col().data(), batch.size(), type.data());
    pkt::classify_tool_batch_scalar(
        batch.proto_col().data(), batch.dst_col().data(),
        batch.dst_port_col().data(), batch.ip_id_col().data(),
        batch.tcp_seq_col().data(), batch.size(), tool.data());
    benchmark::DoNotOptimize(type.data());
    benchmark::DoNotOptimize(tool.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_ClassifyBatchScalar);

void BM_ClassifyBatchSimd(benchmark::State& state) {
  const auto batch = classify_input();
  std::vector<std::uint8_t> type(batch.size()), tool(batch.size());
  for (auto _ : state) {
    pkt::classify_traffic_batch(batch, type.data());
    pkt::classify_tool_batch(batch, tool.data());
    benchmark::DoNotOptimize(type.data());
    benchmark::DoNotOptimize(tool.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_ClassifyBatchSimd);

void BM_PopcountWords(benchmark::State& state) {
  std::vector<std::uint64_t> words(1 << 14);
  net::Rng rng(21);
  for (auto& w : words) w = rng.next();
  const bool simd = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd
                                 ? net::simd::popcount_words(words)
                                 : net::simd::popcount_words_scalar(words));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(words.size() * 8));
  state.SetLabel(simd ? "dispatched" : "scalar");
}
BENCHMARK(BM_PopcountWords)->Arg(0)->Arg(1);

/// Tag-probed FlatMap (16-way group probe) vs the scalar linear probe on
/// the same table: 64K u64 keys, then an even hit/miss lookup mix.
void BM_FlatMapProbe(benchmark::State& state) {
  net::FlatMap<std::uint64_t, std::uint64_t> map;
  net::Rng rng(22);
  std::vector<std::uint64_t> keys(1 << 16);
  for (auto& k : keys) k = rng.next();
  for (std::uint64_t k : keys) map.try_emplace(k, k);
  const auto saved = net::simd::active_level();
  net::simd::set_level(state.range(0) != 0 ? net::simd::detected_level()
                                           : net::simd::Level::Scalar);
  std::uint64_t sum = 0, probe = 0;
  for (auto _ : state) {
    // Even probes look up a stored key, odd ones the key with its low bit
    // flipped (a miss): the even hit/miss mix.
    const std::uint64_t i = probe++;
    const std::uint64_t key = keys[i & (keys.size() - 1)] ^ (i & 1);
    const std::uint64_t* v = map.find(key);
    sum += v ? *v : 0;
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(state.range(0) != 0 ? "group-probe" : "linear-probe");
  net::simd::set_level(saved);
}
BENCHMARK(BM_FlatMapProbe)->Arg(0)->Arg(1);

// --- destination sets ----------------------------------------------------

/// Ablation: the exact destination set vs a plain hash set at increasing
/// per-event destination counts. The keys are what the aggregator feeds:
/// dark-space offsets (a ZMap-like random sweep, with repeats) over the
/// paper scenario's /17 (Arg 1 = 0), an ORION-sized 475,136-address dark
/// space (Arg 1 = 1) and a /8 (Arg 1 = 2), which sits on the other side
/// of the array-to-bitmap switch rule
/// (CardinalityEstimator::kEagerBitmapBytes).
void BM_CardinalityEstimatorAdd(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::uint64_t kUniverses[] = {32768, 475136, std::uint64_t{1} << 24};
  const std::uint64_t universe = kUniverses[state.range(1)];
  std::vector<std::uint64_t> offsets(n);
  net::Rng rng(7);
  for (auto& o : offsets) o = rng.bounded(universe);
  for (auto _ : state) {
    stats::CardinalityEstimator est(universe);
    for (const std::uint64_t o : offsets) est.add(o);
    benchmark::DoNotOptimize(est.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CardinalityEstimatorAdd)->ArgsProduct({{1000, 10000, 100000}, {0, 1, 2}});

void BM_ExactSetAdd(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    std::unordered_set<std::uint64_t> set;
    for (std::uint64_t i = 0; i < n; ++i) set.insert(i * 2654435761ull);
    benchmark::DoNotOptimize(set.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ExactSetAdd)->Arg(1000)->Arg(10000)->Arg(100000);

// --- detection statistics ----------------------------------------------------

void BM_EcdfTopAlpha(benchmark::State& state) {
  net::Rng rng(3);
  std::vector<std::uint64_t> samples(1 << 20);
  for (auto& s : samples) s = rng.bounded(100000);
  for (auto _ : state) {
    stats::Ecdf ecdf(samples);
    benchmark::DoNotOptimize(ecdf.top_alpha_threshold(1e-4));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(samples.size()));
}
BENCHMARK(BM_EcdfTopAlpha)->Unit(benchmark::kMillisecond);

// --- traffic generation --------------------------------------------------------

void BM_RngBinomial(benchmark::State& state) {
  net::Rng rng(4);
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.binomial(n, 0.1));
  }
}
BENCHMARK(BM_RngBinomial)->Arg(64)->Arg(32768)->Arg(1 << 24);

void BM_TargetSampler(benchmark::State& state) {
  net::Rng rng(5);
  const auto k = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scangen::sample_distinct_offsets(1 << 17, k, rng));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(k));
}
BENCHMARK(BM_TargetSampler)->Arg(100)->Arg(10000)->Arg(1 << 17);

/// Ablation: binomial thinning vs naively iterating every address of a
/// space and flipping a coin (what a non-conditional generator would do
/// per session; the real naive cost is 2^32 per Internet-wide scan).
void BM_ThinnedArrivals(benchmark::State& state) {
  net::Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.binomial(std::uint64_t{1} << 24, 0.3));
  }
}
BENCHMARK(BM_ThinnedArrivals);

void BM_NaivePerAddressArrivals(benchmark::State& state) {
  net::Rng rng(7);
  for (auto _ : state) {
    std::uint64_t hits = 0;
    for (std::uint64_t i = 0; i < (std::uint64_t{1} << 24); ++i) {
      hits += rng.chance(0.3);
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetLabel("16M addresses/iter (naive)");
}
BENCHMARK(BM_NaivePerAddressArrivals)->Unit(benchmark::kMillisecond);

void BM_PacketStreamGeneration(benchmark::State& state) {
  const scangen::Scenario scenario{scangen::tiny()};
  for (auto _ : state) {
    scangen::PacketStreamGenerator gen(
        scenario.population_2021().scanners, scenario.darknet(),
        net::SimTime::epoch(), net::SimTime::at(net::Duration::days(3)),
        {.seed = 8, .exact_targets = true});
    std::uint64_t count = 0;
    while (gen.next()) ++count;
    benchmark::DoNotOptimize(count);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(count));
  }
}
BENCHMARK(BM_PacketStreamGeneration)->Unit(benchmark::kMillisecond);

// --- flow machinery -------------------------------------------------------------

void BM_SamplerModes(benchmark::State& state) {
  const auto mode = static_cast<flowsim::SamplingMode>(state.range(0));
  flowsim::PacketSampler sampler(mode, 1000, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample());
  }
}
BENCHMARK(BM_SamplerModes)->Arg(0)->Arg(1);

void BM_PeeringSplit(benchmark::State& state) {
  const flowsim::PeeringPolicy policy = flowsim::PeeringPolicy::merit_like();
  net::Rng rng(10);
  std::uint32_t src = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.split(net::Ipv4Address(++src), 100000,
                                          asdb::Region::Asia, rng));
  }
}
BENCHMARK(BM_PeeringSplit);

void BM_PrefixSetLookup(benchmark::State& state) {
  const scangen::Scenario scenario{scangen::tiny()};
  const net::PrefixSet& merit = scenario.merit();
  net::Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        merit.contains(net::Ipv4Address(static_cast<std::uint32_t>(rng.next()))));
  }
}
BENCHMARK(BM_PrefixSetLookup);

}  // namespace

BENCHMARK_MAIN();
