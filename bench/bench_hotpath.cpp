// Single-core hot-path throughput: per-packet observe() vs pre-chunked
// observe_batch(). Both run the one batch engine (PacketBatch +
// EventAggregator::observe_batch; observe() is a one-record batch), so the
// ratio measures how much chunking amortizes the per-call work.
//
// One fixed scangen packet stream (tiny scenario, both eras' scanners,
// deterministic seed; the default 30 days is ~877k packets, so every
// timed region runs for >= ~100 ms) is pre-chunked into columnar batches
// outside the timed region, so every row times exactly the aggregation
// work. Before any timing, every benchmarked batch size plus a ragged
// random-size chunking is checked byte-identical to per-packet observe()
// on the scalar SIMD tier — same event dataset AND same checkpoint
// payload (compared via CRC-32) — repeated at every SIMD tier the machine
// can run (DESIGN.md §11.4, §14); a mismatch fails the run.
//
//   $ ./bench_hotpath [--days N] [--reps R] [--json PATH] [--smoke]
//
// --json writes the machine-readable BENCH_hotpath.json: best and median
// seconds per row over R reps, checksums_ok, hardware_concurrency, and
// the detected SIMD tier. --smoke runs the equivalence checks only on one
// day (fast, used by the ctest "hotpath" label).
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "orion/netbase/crc32.hpp"
#include "orion/netbase/simd.hpp"
#include "orion/packet/batch.hpp"
#include "orion/scangen/packet_gen.hpp"
#include "orion/scangen/scenario.hpp"
#include "orion/telescope/capture.hpp"
#include "orion/telescope/checkpoint.hpp"

namespace {

using namespace orion;
using bench::Timing;
using bench::time_reps;

std::vector<pkt::PacketBatch> chunk(const std::vector<pkt::Packet>& packets,
                                    std::size_t batch_size) {
  std::vector<pkt::PacketBatch> batches;
  for (std::size_t i = 0; i < packets.size(); i += batch_size) {
    pkt::PacketBatch b(batch_size);
    for (std::size_t j = i; j < i + batch_size && j < packets.size(); ++j) {
      b.push_back(packets[j]);
    }
    batches.push_back(std::move(b));
  }
  return batches;
}

struct CaptureResult {
  std::uint32_t checkpoint_crc = 0;
  std::vector<telescope::DarknetEvent> events;
};

/// Runs a full capture through `feed`, snapshotting before finish() so
/// both the mid-stream state (checkpoint payload) and the final output
/// (event list) are compared.
CaptureResult run_capture(
    const scangen::Scenario& scenario, const telescope::AggregatorConfig& cfg,
    const std::function<void(telescope::TelescopeCapture&)>& feed) {
  telescope::TelescopeCapture capture(scenario.darknet(), cfg);
  feed(capture);
  telescope::CheckpointWriter writer;
  capture.checkpoint(writer);
  std::vector<std::uint8_t> snapshot;
  writer.finish(snapshot);
  CaptureResult result;
  // CRC of the payload, not the frame: the OCP1 frame ends with the
  // payload's own CRC-32, and the CRC-32 of any message followed by its
  // CRC is constant, so a whole-frame CRC would pin only the length.
  // Frame: magic(4) version(8) length(8) payload crc(4).
  result.checkpoint_crc =
      net::Crc32::of(std::span(snapshot).subspan(20, snapshot.size() - 24));
  result.events = capture.finish().events();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t days = 30;
  int reps = 5;
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--days" && i + 1 < argc) {
      days = std::stoll(argv[++i]);
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::stoi(argv[++i]);
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--smoke") {
      smoke = true;
      days = 1;
      reps = 1;
    } else {
      std::cerr << "usage: bench_hotpath [--days N] [--reps R] [--json PATH] "
                   "[--smoke]\n";
      return 1;
    }
  }

  bench::print_header(
      "Batched SoA hot path (packets/sec, per-packet observe vs observe_batch)",
      "Gate: every batch size and a ragged chunking byte-identical to "
      "per-packet observe() (same events, same checkpoint bytes) at every "
      "SIMD tier. Both paths run one engine, so the speedup column is the "
      "per-call work chunking amortizes.");

  const scangen::Scenario scenario{scangen::tiny()};
  std::vector<pkt::Packet> packets;
  {
    // Both eras' scanners (2021 sessions start in days 0-14, 2022 in days
    // 14-28), so a longer --days keeps adding packets.
    std::vector<scangen::ScannerProfile> scanners =
        scenario.population_2021().scanners;
    const auto& later = scenario.population_2022().scanners;
    scanners.insert(scanners.end(), later.begin(), later.end());
    scangen::PacketStreamGenerator generator(
        scanners, scenario.darknet(),
        net::SimTime::epoch(),
        net::SimTime::epoch() + net::Duration::days(days),
        {.seed = 17, .exact_targets = true, .stable_streams = true});
    while (auto packet = generator.next()) packets.push_back(*packet);
  }
  telescope::AggregatorConfig config;
  config.timeout = scenario.event_timeout();
  std::cout << "stream: " << packets.size() << " packets over " << days
            << " days\n\n";

  // --- Equivalence gate (always runs; the timing numbers are meaningless
  // if the paths do not produce identical state). The reference is
  // per-packet observe() on the scalar SIMD tier; every chunking at every
  // available SIMD tier must reproduce it byte-for-byte (DESIGN.md §14
  // contract on top of the §11.4 one).
  const auto tiers = net::simd::available_levels();
  const auto detected = net::simd::active_level();
  net::simd::set_level(net::simd::Level::Scalar);
  const CaptureResult per_packet_ref =
      run_capture(scenario, config, [&](telescope::TelescopeCapture& cap) {
        for (const pkt::Packet& p : packets) cap.observe(p);
      });
  const std::vector<std::size_t> batch_sizes = {64, 256, 1024};
  bool checksums_ok = true;
  for (const net::simd::Level tier : tiers) {
    net::simd::set_level(tier);
    for (const std::size_t size : batch_sizes) {
      const auto batches = chunk(packets, size);
      const CaptureResult r =
          run_capture(scenario, config, [&](telescope::TelescopeCapture& cap) {
            for (const pkt::PacketBatch& b : batches) cap.observe_batch(b);
          });
      const bool ok = r.checkpoint_crc == per_packet_ref.checkpoint_crc &&
                      r.events == per_packet_ref.events;
      checksums_ok = checksums_ok && ok;
      std::cout << "equivalence @ " << net::simd::to_string(tier) << " batch "
                << size << ": " << (ok ? "ok" : "MISMATCH") << "\n";
    }
    {
      // Ragged chunking: random sizes in [1, 512], including size-1 batches.
      std::mt19937 rng(99);
      const CaptureResult r =
          run_capture(scenario, config, [&](telescope::TelescopeCapture& cap) {
            pkt::PacketBatch b(512);
            std::size_t i = 0;
            while (i < packets.size()) {
              const std::size_t size = 1 + rng() % 512;
              b.clear();
              for (std::size_t j = 0; j < size && i < packets.size(); ++j, ++i) {
                b.push_back(packets[i]);
              }
              cap.observe_batch(b);
            }
          });
      const bool ok = r.checkpoint_crc == per_packet_ref.checkpoint_crc &&
                      r.events == per_packet_ref.events;
      checksums_ok = checksums_ok && ok;
      std::cout << "equivalence @ " << net::simd::to_string(tier)
                << " ragged random chunking: " << (ok ? "ok" : "MISMATCH")
                << "\n";
    }
  }
  net::simd::set_level(detected);
  std::cout << (checksums_ok
                    ? "\nevery chunking byte-identical to per-packet observe at every tier\n\n"
                    : "\nCHUNKED PATH DIVERGED FROM PER-PACKET OBSERVE\n\n");
  if (smoke) {
    std::cout << (checksums_ok ? "SMOKE OK\n" : "SMOKE FAILED\n");
    return checksums_ok ? 0 : 1;
  }

  // --- Timing. Batches are pre-chunked outside the timed region so every
  // row times pure aggregation work on one core.
  struct Run {
    std::string config;
    std::string tier;
    Timing timing;
    double pps = 0;
  };
  std::vector<Run> runs;
  {
    net::simd::set_level(net::simd::Level::Scalar);
    Run run;
    run.config = "per-packet@scalar";
    run.tier = net::simd::to_string(net::simd::Level::Scalar);
    run.timing = time_reps(reps, [&] {
      telescope::TelescopeCapture cap(scenario.darknet(), config);
      for (const pkt::Packet& p : packets) cap.observe(p);
    });
    run.pps = static_cast<double>(packets.size()) / run.timing.best;
    runs.push_back(run);
  }
  for (const net::simd::Level tier : tiers) {
    net::simd::set_level(tier);
    for (const std::size_t size : batch_sizes) {
      const auto batches = chunk(packets, size);
      Run run;
      run.config =
          "batch" + std::to_string(size) + "@" + net::simd::to_string(tier);
      run.tier = net::simd::to_string(tier);
      run.timing = time_reps(reps, [&] {
        telescope::TelescopeCapture cap(scenario.darknet(), config);
        for (const pkt::PacketBatch& b : batches) cap.observe_batch(b);
      });
      run.pps = static_cast<double>(packets.size()) / run.timing.best;
      runs.push_back(run);
    }
  }
  net::simd::set_level(detected);

  const double per_packet_pps = runs[0].pps;
  double best_speedup = 0;
  std::string best_config;
  report::Table table({"configuration", "seconds (best)", "seconds (median)",
                       "packets/sec", "speedup vs per-packet"});
  for (const Run& run : runs) {
    const double speedup = run.pps / per_packet_pps;
    if (&run != &runs[0] && speedup > best_speedup) {
      best_speedup = speedup;
      best_config = run.config;
    }
    char sec_buf[64], med_buf[64], pps_buf[64], spd_buf[64];
    std::snprintf(sec_buf, sizeof sec_buf, "%.4f", run.timing.best);
    std::snprintf(med_buf, sizeof med_buf, "%.4f", run.timing.median);
    std::snprintf(pps_buf, sizeof pps_buf, "%.0f", run.pps);
    std::snprintf(spd_buf, sizeof spd_buf, "%.2fx", speedup);
    table.add_row({run.config, sec_buf, med_buf, pps_buf, spd_buf});
  }
  std::cout << table.to_ascii();
  std::cout << "\nbest: " << best_config << " at ";
  std::printf("%.2fx", best_speedup);
  std::cout << " per-packet observe's rate\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::trunc);
    out << "{\n"
        << "  \"bench\": \"hotpath\",\n"
        << "  \"scenario\": \"tiny\",\n"
        << "  \"days\": " << days << ",\n"
        << "  \"packets\": " << packets.size() << ",\n"
        << "  \"reps\": " << reps << ",\n"
        << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
        << ",\n"
        << "  \"simd_tier\": \"" << net::simd::to_string(detected) << "\",\n"
        << "  \"simd_tiers_checked\": [";
    for (std::size_t i = 0; i < tiers.size(); ++i) {
      out << "\"" << net::simd::to_string(tiers[i]) << "\""
          << (i + 1 < tiers.size() ? ", " : "");
    }
    out << "],\n"
        << "  \"checksums_ok\": " << (checksums_ok ? "true" : "false") << ",\n"
        << "  \"checkpoint_payload_crc32\": " << per_packet_ref.checkpoint_crc << ",\n"
        << "  \"runs\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      out << "    {\"config\": \"" << runs[i].config << "\", \"tier\": \""
          << runs[i].tier << "\", \"seconds\": " << runs[i].timing.best
          << ", \"median_seconds\": " << runs[i].timing.median
          << ", \"worst_seconds\": " << runs[i].timing.worst
          << ", \"pps\": " << runs[i].pps << ", \"speedup_vs_per_packet\": "
          << runs[i].pps / per_packet_pps << "}"
          << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    out << "  ],\n"
        << "  \"best_config\": \"" << best_config << "\",\n"
        << "  \"speedup\": " << best_speedup << "\n"
        << "}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return checksums_ok ? 0 : 1;
}
