// Microbenchmarks for the fault-tolerance layer: what the hardening
// costs. ResilientIngest's reorder buffer sits on the per-packet hot
// path of a live deployment, so its overhead vs a direct aggregator
// feed matters; checkpoint snapshot/restore runs once per published
// day, so what matters there is absolute latency at realistic live-
// table sizes. The publish-path benchmarks price the crash-safe archive
// protocol (DESIGN.md §13.1): plain file writes vs per-artifact
// publish() (tmp + fsync + rename + manifest + dir fsync, per file) vs
// fsync-batched publish_many() (one manifest update and one directory
// fsync for the whole batch).
//
//   $ ./bench_faulttol [gbench args]      # google-benchmark suite
//   $ ./bench_faulttol --json PATH        # publish-overhead comparison
//                                         #  -> machine-readable JSON
#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "orion/packet/builder.hpp"
#include "orion/scangen/fault.hpp"
#include "orion/store/archive.hpp"
#include "orion/store/ode2.hpp"
#include "orion/telescope/capture.hpp"
#include "orion/telescope/checkpoint.hpp"
#include "orion/telescope/ingest.hpp"

namespace {

using namespace orion;

net::PrefixSet dark_space() {
  return net::PrefixSet({*net::Prefix::parse("198.18.0.0/17")});
}

std::vector<pkt::Packet> make_stream(std::size_t count, std::size_t sources) {
  std::vector<pkt::Packet> packets;
  packets.reserve(count);
  net::Rng rng(1);
  const net::PrefixSet space = dark_space();
  std::vector<pkt::ProbeBuilder> builders;
  for (std::size_t s = 0; s < sources; ++s) {
    builders.emplace_back(net::Ipv4Address(0x0B000000u + (std::uint32_t)s),
                          pkt::ScanTool::ZMap, net::Rng(s));
  }
  for (std::size_t i = 0; i < count; ++i) {
    const net::SimTime t =
        net::SimTime::at(net::Duration::millis((std::int64_t)i));
    packets.push_back(builders[i % sources].tcp_syn(
        t, space.address_at(rng.bounded(space.total_addresses())), 6379));
  }
  return packets;
}

// Baseline: the unhardened path, packets straight into the capture.
void BM_IngestDirect(benchmark::State& state) {
  const auto packets = make_stream(1 << 14, 64);
  for (auto _ : state) {
    telescope::TelescopeCapture capture(dark_space(), {});
    for (const pkt::Packet& p : packets) capture.observe(p);
    benchmark::DoNotOptimize(capture.packets_captured());
  }
  state.SetItemsProcessed(state.iterations() * packets.size());
}
BENCHMARK(BM_IngestDirect)->Unit(benchmark::kMillisecond);

// The hardened path on a clean, in-order stream — the common case a
// live deployment pays for on every packet.
void BM_IngestHardenedInOrder(benchmark::State& state) {
  const auto packets = make_stream(1 << 14, 64);
  for (auto _ : state) {
    telescope::TelescopeCapture capture(dark_space(), {});
    telescope::ResilientIngest ingest(
        {}, [&](const pkt::Packet& p) { capture.observe(p); });
    for (const pkt::Packet& p : packets) ingest.observe(p);
    ingest.finish();
    benchmark::DoNotOptimize(capture.packets_captured());
  }
  state.SetItemsProcessed(state.iterations() * packets.size());
}
BENCHMARK(BM_IngestHardenedInOrder)->Unit(benchmark::kMillisecond);

// The hardened path under injected faults (drop/dup/reorder/regress/
// corrupt) — the degraded case, including injector overhead.
void BM_IngestHardenedFaulted(benchmark::State& state) {
  const auto packets = make_stream(1 << 14, 64);
  scangen::FaultConfig faults;
  faults.drop_prob = 0.02;
  faults.duplicate_prob = 0.02;
  faults.reorder_prob = 0.1;
  faults.regression_prob = 0.01;
  faults.corrupt_prob = 0.02;
  for (auto _ : state) {
    telescope::TelescopeCapture capture(dark_space(), {});
    telescope::ResilientIngest ingest(
        {}, [&](const pkt::Packet& p) { capture.observe(p); });
    scangen::FaultInjector injector(packets, faults);
    while (auto p = injector.next()) ingest.observe(*p);
    ingest.finish();
    benchmark::DoNotOptimize(capture.packets_captured());
  }
  state.SetItemsProcessed(state.iterations() * packets.size());
}
BENCHMARK(BM_IngestHardenedFaulted)->Unit(benchmark::kMillisecond);

// Snapshot + restore latency with a populated live-event table (one
// live event per source), the once-per-published-day cost.
void BM_CheckpointRoundTrip(benchmark::State& state) {
  const auto sources = static_cast<std::size_t>(state.range(0));
  const auto packets = make_stream(sources * 8, sources);
  telescope::TelescopeCapture capture(dark_space(), {});
  for (const pkt::Packet& p : packets) capture.observe(p);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    telescope::CheckpointWriter writer;
    capture.checkpoint(writer);
    std::vector<std::uint8_t> file;
    bytes = writer.finish(file);
    telescope::TelescopeCapture restored(dark_space(), {});
    telescope::CheckpointReader reader(file);
    restored.restore(reader);
    benchmark::DoNotOptimize(restored.packets_captured());
  }
  state.counters["snapshot_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_CheckpointRoundTrip)->Arg(256)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Publish-path overhead: what crash safety costs per published cycle.
// One "cycle" is what live_monitor emits per checkpoint interval: the
// event dataset plus an OCP1 checkpoint blob.
// ---------------------------------------------------------------------------

telescope::EventDataset publish_dataset() {
  const auto packets = make_stream(1 << 14, 64);
  telescope::TelescopeCapture capture(dark_space(), {});
  for (const pkt::Packet& p : packets) capture.observe(p);
  return capture.finish();
}

void write_checkpoint_blob(net::io::File& out) {
  telescope::CheckpointWriter writer;
  writer.tag(telescope::checkpoint_tag('B', 'N', 'C', 'H'));
  for (std::uint64_t i = 0; i < 4096; ++i) writer.u64(i * 0x9E3779B9ull);
  writer.finish(out);
}

std::string fresh_dir(const char* tag) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       (std::string("orion_bench_publish_") + tag))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Baseline: both artifacts written straight to their final paths — no
/// temporaries, no fsync, no manifest. Fast and torn on any crash.
std::uint64_t publish_cycle_plain(const std::string& dir,
                                  const telescope::EventDataset& dataset) {
  std::uint64_t bytes = store::write_events_ode2_file(dataset, dir + "/events");
  net::io::File f = net::io::File::create(dir + "/checkpoint");
  write_checkpoint_blob(f);
  bytes += f.bytes_written();
  f.close();
  return bytes;
}

std::uint64_t publish_cycle_per_file(store::ArchiveDir& archive,
                                     const telescope::EventDataset& dataset) {
  const auto e = store::publish_events_ode2(archive, "events", dataset);
  const auto c = archive.publish("checkpoint", write_checkpoint_blob);
  return e.bytes + c.bytes;
}

std::uint64_t publish_cycle_batched(store::ArchiveDir& archive,
                                    const telescope::EventDataset& dataset) {
  const auto entries = archive.publish_many(
      {{"events",
        [&](net::io::File& f) { store::write_events_ode2(dataset, f); }},
       {"checkpoint", write_checkpoint_blob}});
  return entries[0].bytes + entries[1].bytes;
}

void BM_PublishPlainWrite(benchmark::State& state) {
  const telescope::EventDataset dataset = publish_dataset();
  const std::string dir = fresh_dir("plain");
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    bytes = publish_cycle_plain(dir, dataset);
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["cycle_bytes"] = static_cast<double>(bytes);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_PublishPlainWrite)->Unit(benchmark::kMillisecond);

void BM_PublishPerFile(benchmark::State& state) {
  const telescope::EventDataset dataset = publish_dataset();
  const std::string dir = fresh_dir("perfile");
  store::ArchiveDir archive(dir);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    bytes = publish_cycle_per_file(archive, dataset);
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["cycle_bytes"] = static_cast<double>(bytes);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_PublishPerFile)->Unit(benchmark::kMillisecond);

void BM_PublishManyBatched(benchmark::State& state) {
  const telescope::EventDataset dataset = publish_dataset();
  const std::string dir = fresh_dir("batched");
  store::ArchiveDir archive(dir);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    bytes = publish_cycle_batched(archive, dataset);
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["cycle_bytes"] = static_cast<double>(bytes);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_PublishManyBatched)->Unit(benchmark::kMillisecond);

// --json mode: the same three modes timed with a fixed rep count and
// written as one machine-readable comparison (BENCH_faulttol.json).
int run_publish_json(const std::string& json_path) {
  constexpr int kReps = 20;
  const telescope::EventDataset dataset = publish_dataset();

  struct Row {
    const char* config;
    double seconds = 0;
    std::uint64_t bytes = 0;
  };
  std::vector<Row> rows = {{"plain_write"}, {"publish_per_file"},
                           {"publish_many_batched"}};

  const auto timed = [&](auto&& cycle) {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t bytes = 0;
    for (int r = 0; r < kReps; ++r) bytes = cycle();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    return std::pair<double, std::uint64_t>(dt.count() / kReps, bytes);
  };

  {
    const std::string dir = fresh_dir("json_plain");
    std::tie(rows[0].seconds, rows[0].bytes) =
        timed([&] { return publish_cycle_plain(dir, dataset); });
    std::filesystem::remove_all(dir);
  }
  {
    const std::string dir = fresh_dir("json_perfile");
    store::ArchiveDir archive(dir);
    std::tie(rows[1].seconds, rows[1].bytes) =
        timed([&] { return publish_cycle_per_file(archive, dataset); });
    std::filesystem::remove_all(dir);
  }
  {
    const std::string dir = fresh_dir("json_batched");
    store::ArchiveDir archive(dir);
    std::tie(rows[2].seconds, rows[2].bytes) =
        timed([&] { return publish_cycle_batched(archive, dataset); });
    std::filesystem::remove_all(dir);
  }

  std::ofstream out(json_path, std::ios::trunc);
  out << "{\n"
      << "  \"bench\": \"faulttol_publish\",\n"
      << "  \"artifacts_per_cycle\": 2,\n"
      << "  \"events\": " << dataset.event_count() << ",\n"
      << "  \"cycle_bytes\": " << rows[0].bytes << ",\n"
      << "  \"reps\": " << kReps << ",\n"
      << "  \"runs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double overhead = rows[i].seconds / rows[0].seconds;
    out << "    {\"config\": \"" << rows[i].config
        << "\", \"seconds_per_cycle\": " << rows[i].seconds
        << ", \"overhead_vs_plain\": " << overhead << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"crash_safe\": [false, true, true]\n"
      << "}\n";
  if (!out) {
    std::cerr << "failed to write " << json_path << "\n";
    return 1;
  }
  std::cout << "wrote " << json_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      return run_publish_json(argv[i + 1]);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
