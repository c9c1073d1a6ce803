// Throughput scaling of the sharded parallel telescope pipeline.
//
// Generates one fixed scangen packet stream (tiny scenario, deterministic
// seed), then measures end-to-end packets/sec of the serial path
// (TelescopeCapture + StreamingDetector) and of ParallelPipeline at
// 1/2/4/8 worker shards. Every configuration produces byte-identical
// results (pinned by tests/parallel_test.cpp), so this measures pure
// pipeline overhead and scaling.
//
//   $ ./bench_pipeline_scaling [--days N] [--reps R] [--json PATH]
//
// --json writes the machine-readable BENCH_pipeline.json consumed by the
// repo's tracking of the ISSUE-2 acceptance numbers. Scaling is bounded
// by the host: the JSON records hardware_concurrency so a 1-core CI box
// reporting ~1x is distinguishable from a real regression.
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "orion/detect/streaming.hpp"
#include "orion/scangen/packet_gen.hpp"
#include "orion/scangen/scenario.hpp"
#include "orion/telescope/capture.hpp"
#include "orion/telescope/parallel.hpp"

namespace {

using namespace orion;

struct Measurement {
  std::size_t shards = 0;  // 0: serial reference path
  bench::Timing timing;
  double pps = 0;  // at the best time
  /// More worker shards than hardware threads: the numbers measure
  /// context-switch overhead, not scaling.
  bool oversubscribed = false;
};

}  // namespace

int main(int argc, char** argv) {
  std::int64_t days = 14;
  int reps = 3;
  bool run_all = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--days" && i + 1 < argc) {
      days = std::stoll(argv[++i]);
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::stoi(argv[++i]);
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--all") {
      run_all = true;
    } else {
      std::cerr << "usage: bench_pipeline_scaling [--days N] [--reps R] "
                   "[--json PATH] [--all]\n";
      return 1;
    }
  }

  bench::print_header(
      "Parallel pipeline scaling (packets/sec by shard count)",
      "ISSUE 2 acceptance: >= 3x pps at 8 shards vs 1 shard on a "
      "multi-core host; results byte-identical at every shard count.");

  const scangen::Scenario scenario{scangen::tiny()};

  // One fixed packet stream, materialized so every run times pipeline
  // work only (not generation).
  std::vector<pkt::Packet> packets;
  {
    scangen::PacketStreamGenerator generator(
        scenario.population_2021().scanners, scenario.darknet(),
        net::SimTime::epoch(),
        net::SimTime::epoch() + net::Duration::days(days),
        {.seed = 17, .exact_targets = true, .stable_streams = true});
    while (auto packet = generator.next()) packets.push_back(*packet);
  }

  detect::StreamingConfig detector_config;
  detector_config.base = {
      .dispersion_threshold = scenario.config().def1_dispersion,
      .packet_volume_alpha = scenario.config().def2_alpha,
      .port_count_alpha = scenario.config().def3_alpha};
  detector_config.warmup_samples = 500;
  telescope::AggregatorConfig aggregator_config;
  aggregator_config.timeout = scenario.event_timeout();

  const unsigned hw = std::thread::hardware_concurrency();
  std::cout << "stream: " << packets.size() << " packets over " << days
            << " days; host hardware_concurrency = " << hw << "\n\n";

  std::vector<Measurement> results;

  // Serial reference: capture -> dataset -> streaming detector.
  {
    Measurement m;
    m.shards = 0;
    m.timing = bench::time_reps(reps, [&]() {
      telescope::TelescopeCapture capture(scenario.darknet(),
                                          aggregator_config);
      for (const pkt::Packet& p : packets) capture.observe(p);
      const telescope::EventDataset dataset = capture.finish();
      detect::StreamingDetector detector(
          detector_config, scenario.darknet().total_addresses());
      for (const auto& e : dataset.events()) (void)detector.observe(e);
      (void)detector.finish();
    });
    m.pps = static_cast<double>(packets.size()) / m.timing.best;
    results.push_back(m);
  }

  // Shard counts beyond the host's hardware threads measure scheduler
  // thrash, not scaling; skip them unless --all asks for the full sweep,
  // so 1-core CI hosts aren't dominated by meaningless slowdown rows.
  std::vector<std::size_t> skipped;
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    const bool oversubscribed = hw != 0 && shards > hw;
    if (oversubscribed && !run_all) {
      skipped.push_back(shards);
      continue;
    }
    Measurement m;
    m.shards = shards;
    m.oversubscribed = oversubscribed;
    m.timing = bench::time_reps(reps, [&]() {
      telescope::ParallelConfig config;
      config.shards = shards;
      config.aggregator = aggregator_config;
      config.detector = detector_config;
      telescope::ParallelPipeline pipeline(scenario.darknet(), config);
      for (const pkt::Packet& p : packets) pipeline.observe(p);
      (void)pipeline.finish();
    });
    m.pps = static_cast<double>(packets.size()) / m.timing.best;
    results.push_back(m);
  }

  const double base_pps = results[1].pps;  // 1 shard (never skipped)
  const double serial_pps = results[0].pps;
  report::Table table({"configuration", "seconds (best)", "seconds (median)",
                       "packets/sec", "speedup vs 1 shard"});
  for (const Measurement& m : results) {
    std::string name =
        m.shards == 0 ? "serial reference"
                      : std::to_string(m.shards) + " shard" +
                            (m.shards == 1 ? "" : "s");
    if (m.oversubscribed) name += " (oversubscribed)";
    char pps_buf[64], sec_buf[64], med_buf[64], spd_buf[64];
    std::snprintf(sec_buf, sizeof sec_buf, "%.3f", m.timing.best);
    std::snprintf(med_buf, sizeof med_buf, "%.3f", m.timing.median);
    std::snprintf(pps_buf, sizeof pps_buf, "%.0f", m.pps);
    std::snprintf(spd_buf, sizeof spd_buf, "%.2fx", m.pps / base_pps);
    table.add_row({name, sec_buf, med_buf, pps_buf, spd_buf});
  }
  std::cout << table.to_ascii();
  if (!skipped.empty()) {
    std::cout << "skipped (oversubscribed on " << hw << " hardware thread"
              << (hw == 1 ? "" : "s") << "; rerun with --all):";
    for (const std::size_t s : skipped) std::cout << ' ' << s << "-shard";
    std::cout << "\n";
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::trunc);
    out << "{\n"
        << "  \"bench\": \"pipeline_scaling\",\n"
        << "  \"scenario\": \"tiny\",\n"
        << "  \"days\": " << days << ",\n"
        << "  \"packets\": " << packets.size() << ",\n"
        << "  \"reps\": " << reps << ",\n"
        << "  \"hardware_concurrency\": " << hw << ",\n"
        << "  \"batch_size\": " << telescope::ParallelConfig{}.batch_size
        << ",\n"
        << "  \"runs\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const Measurement& m = results[i];
      out << "    {\"config\": "
          << (m.shards == 0 ? std::string("\"serial\"")
                            : std::to_string(m.shards))
          << ", \"seconds\": " << m.timing.best
          << ", \"median_seconds\": " << m.timing.median
          << ", \"worst_seconds\": " << m.timing.worst << ", \"pps\": " << m.pps
          << ", \"speedup_vs_1shard\": " << m.pps / base_pps
          << ", \"speedup_vs_serial\": " << m.pps / serial_pps
          << ", \"oversubscribed\": " << (m.oversubscribed ? "true" : "false")
          << "}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"skipped_oversubscribed\": [";
    for (std::size_t i = 0; i < skipped.size(); ++i) {
      out << skipped[i] << (i + 1 < skipped.size() ? ", " : "");
    }
    out << "]\n}\n";
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}
