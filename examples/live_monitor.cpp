// Live telescope monitoring: the streaming (online) detector consuming a
// darknet event feed day by day and publishing daily AH lists with
// thresholds calibrated only on past data — the deployment mode behind
// the paper's plan to share daily scanner lists with the community.
//
// Fault tolerance: --checkpoint FILE snapshots the detector (versioned,
// CRC-guarded "OCP1" format) every published day, and --resume FILE
// restarts a killed deployment from the snapshot; the resumed run
// publishes daily lists identical to an uninterrupted one.
//
// Parallel mode: --shards N switches to the packet-driven
// ParallelPipeline — the raw packet stream is sharded by source IP over
// N worker threads and the merged daily lists are byte-identical to the
// serial path. Checkpoints then snapshot the whole pipeline (every shard,
// recorded shard count) and --resume skips the already-ingested prefix of
// the deterministic packet feed.
//
// Supervised crash-safe mode: --supervise runs the sharded pipeline with
// self-healing workers (panic capture + snapshot/replay restart), and
// --archive DIR replaces plain checkpoint files with the crash-safe
// archive: every snapshot and the final event dataset are published as
// atomic generation swaps behind the CRC-guarded MANIFEST, and startup
// runs the recover_archive() sweep before resuming from the live
// checkpoint generation.
//
//   $ ./live_monitor
//   $ ./live_monitor --checkpoint /tmp/monitor.ocp          # crash...
//   $ ./live_monitor --checkpoint /tmp/monitor.ocp --resume /tmp/monitor.ocp
//   $ ./live_monitor --shards 4 --checkpoint /tmp/monitor.ocp
//   $ ./live_monitor --supervise --archive /tmp/telescope.archive
#include <cstring>
#include <iostream>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "orion/detect/list_diff.hpp"
#include "orion/detect/streaming.hpp"
#include "orion/netbase/io.hpp"
#include "orion/report/table.hpp"
#include "orion/scangen/event_synth.hpp"
#include "orion/scangen/packet_gen.hpp"
#include "orion/scangen/scenario.hpp"
#include "orion/store/archive.hpp"
#include "orion/telescope/checkpoint.hpp"
#include "orion/telescope/parallel.hpp"

namespace {

// A refused resume is an operator error, not a corrupt snapshot: the
// checkpoint's config echo does not match the current flags. Distinct
// exit code so scripts can tell "fix your flags" from "snapshot is bad".
constexpr int kExitConfigMismatch = 2;

int refuse_config_mismatch(const char* what) {
  std::cerr << "resume refused: the checkpoint was written under a different "
               "configuration than the current flags (" << what << ").\n"
            << "rerun with the settings the checkpoint was taken under "
               "(e.g. the same --shards N), or start fresh without --resume.\n";
  return kExitConfigMismatch;
}

/// The --resume file's bytes, or nullopt (reported) if it cannot be read.
std::optional<std::vector<std::uint8_t>> read_checkpoint(const std::string& path) {
  try {
    return orion::net::io::read_file(path);
  } catch (const orion::net::io::IoError&) {
    std::cerr << "cannot open resume checkpoint: " << path << "\n";
    return std::nullopt;
  }
}

/// Writes the --checkpoint file through the io::File seam, durably.
void write_checkpoint(const orion::telescope::CheckpointWriter& writer,
                      const std::string& path) {
  orion::net::io::File out = orion::net::io::File::create(path);
  writer.finish(out);
  out.sync();
  out.close();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace orion;

  std::string checkpoint_path;
  std::string resume_path;
  std::string archive_dir;
  bool supervise = false;
  std::size_t shards = 0;  // 0: serial event-driven mode
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--checkpoint" && i + 1 < argc) {
      checkpoint_path = argv[++i];
    } else if (arg == "--resume" && i + 1 < argc) {
      resume_path = argv[++i];
    } else if (arg == "--shards" && i + 1 < argc) {
      shards = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (arg == "--supervise") {
      supervise = true;
    } else if (arg == "--archive" && i + 1 < argc) {
      archive_dir = argv[++i];
    } else {
      std::cerr << "usage: live_monitor [--shards N] [--supervise] "
                   "[--archive DIR] [--checkpoint FILE] [--resume FILE]\n";
      return 1;
    }
  }
  // Supervision and archive publication are pipeline-mode features.
  if ((supervise || !archive_dir.empty()) && shards == 0) shards = 4;

  const scangen::Scenario scenario{scangen::tiny()};

  detect::StreamingConfig config;
  config.base = {.dispersion_threshold = scenario.config().def1_dispersion,
                 .packet_volume_alpha = scenario.config().def2_alpha,
                 .port_count_alpha = scenario.config().def3_alpha};
  config.warmup_samples = 500;
  config.tolerate_late_events = true;  // live mode: fold, never throw

  report::Table table({"date", "status", "D1 new", "D2 new", "D3 new",
                       "D2 thresh (pkts)", "D3 thresh (ports)"});
  std::map<std::int64_t, std::vector<net::Ipv4Address>> daily_d1;
  const auto record_day = [&](const detect::StreamingDayResult& day) {
    daily_d1[day.day] = day.daily[0];
    table.add_row({net::day_label(day.day),
                   day.calibrated ? "published" : "warming up",
                   std::to_string(day.daily[0].size()),
                   std::to_string(day.daily[1].size()),
                   std::to_string(day.daily[2].size()),
                   day.calibrated ? report::fmt_count(day.packet_threshold) : "-",
                   day.calibrated ? report::fmt_count(day.port_threshold) : "-"});
  };
  const auto print_churn = [&]() {
    std::vector<detect::DailyListEntry> published;
    for (const auto& [day, ips] : daily_d1) {
      for (const net::Ipv4Address ip : ips) published.push_back({day, ip, 1});
    }
    double churn_sum = 0;
    std::size_t churn_days = 0;
    for (const auto& [day, diff] : detect::churn_series(published)) {
      churn_sum += diff.churn();
      ++churn_days;
    }
    if (churn_days > 0) {
      std::cout << "mean day-over-day list churn: "
                << report::fmt_percent(
                       churn_sum / static_cast<double>(churn_days), 1)
                << " (across " << churn_days << " day pairs)\n";
    }
  };

  if (shards > 0) {
    // Packet-driven parallel mode: shard the raw packet stream by source
    // IP; the merged result is byte-identical to the serial path.
    telescope::ParallelConfig pconfig;
    pconfig.shards = shards;
    pconfig.aggregator.timeout = scenario.event_timeout();
    pconfig.detector = config;
    pconfig.supervisor.enabled = supervise;
    telescope::ParallelPipeline pipeline(scenario.darknet(), pconfig);

    // Crash-safe archive mode: sweep partial generations first, then open
    // through the recovered manifest.
    std::optional<store::ArchiveDir> archive;
    if (!archive_dir.empty()) {
      const store::RecoverReport swept = store::recover_archive(archive_dir);
      if (!swept.clean()) {
        std::cout << "archive recovery: swept " << swept.removed_temporaries
                  << " temporaries, " << swept.removed_orphans << " orphans, "
                  << swept.quarantined << " quarantined ("
                  << (swept.detail.empty() ? "no detail" : swept.detail)
                  << ")\n";
      }
      archive.emplace(archive_dir);
    }

    std::uint64_t skip_packets = 0;
    const auto restore_from =
        [&](std::span<const std::uint8_t> frame) -> std::optional<int> {
      try {
        telescope::CheckpointReader reader(frame);
        pipeline.restore(reader);
      } catch (const telescope::ConfigMismatchError& err) {
        return refuse_config_mismatch(err.what());
      } catch (const std::exception& err) {
        std::cerr << "resume failed: " << err.what() << "\n";
        return 1;
      }
      return std::nullopt;
    };
    if (archive) {
      // Resume automatically from the live checkpoint generation, if one
      // was ever published; orphaned temporaries are invisible here.
      if (const auto live = archive->find("checkpoint")) {
        const auto bytes = net::io::read_file(archive->path_of(*live));
        if (const auto exit_code = restore_from(bytes)) return *exit_code;
        skip_packets = pipeline.packets_ingested();
        std::cout << "resumed from archive generation " << live->generation
                  << " (" << skip_packets << " packets already ingested)\n";
      }
    } else if (!resume_path.empty()) {
      const auto bytes = read_checkpoint(resume_path);
      if (!bytes) return 1;
      if (const auto exit_code = restore_from(*bytes)) return *exit_code;
      skip_packets = pipeline.packets_ingested();
      std::cout << "resumed from " << resume_path << " (" << skip_packets
                << " packets already ingested)\n";
    }

    std::uint64_t checkpoints_written = 0;
    const auto save_checkpoint = [&]() {
      if (archive) {
        telescope::CheckpointWriter writer;
        pipeline.checkpoint(writer);
        archive->publish("checkpoint", [&](net::io::File& out) {
          writer.finish(out);
        });
        ++checkpoints_written;
        return;
      }
      if (checkpoint_path.empty()) return;
      telescope::CheckpointWriter writer;
      pipeline.checkpoint(writer);
      write_checkpoint(writer, checkpoint_path);
      ++checkpoints_written;
    };

    // The same deterministic packet feed on every run: resume just skips
    // the already-ingested prefix.
    const net::SimTime t0 = net::SimTime::epoch();
    const net::SimTime t1 = t0 + net::Duration::days(14);
    scangen::PacketStreamGenerator generator(
        scenario.population_2021().scanners, scenario.darknet(), t0, t1,
        {.seed = 17, .exact_targets = true, .stable_streams = true});
    for (std::uint64_t i = 0; i < skip_packets; ++i) {
      if (!generator.next()) break;
    }

    // Batched ingest: packets are generated straight into a reused
    // columnar arena and fed to the pipeline's batch dispatcher. Batches
    // are cut at UTC day boundaries so the day-boundary snapshot still
    // happens before any packet of the new day is observed (mirroring
    // the serial publish-then-persist order).
    constexpr std::size_t kIngestBatch = 256;
    constexpr std::int64_t kDayNanos = 86400000000000LL;
    std::int64_t open_day = -1;
    pkt::PacketBatch batch(kIngestBatch);
    while (auto next_ns = generator.peek_time()) {
      const std::int64_t day = *next_ns / kDayNanos;
      if (open_day >= 0 && day != open_day) save_checkpoint();
      open_day = day;
      const std::int64_t day_end_ns = (day + 1) * kDayNanos;
      batch.clear();
      while (batch.size() < kIngestBatch) {
        const auto t = generator.peek_time();
        if (!t || *t >= day_end_ns) break;
        generator.next_batch(batch, 1);
      }
      pipeline.observe_batch(batch);
    }
    const std::uint64_t ingested = pipeline.packets_ingested();
    save_checkpoint();
    const telescope::ParallelResult result = pipeline.finish();
    if (archive) {
      // The closed dataset becomes the live "events" generation: an
      // atomic swap, so a concurrent reader sees the old complete
      // dataset or the new complete one, never a partial file.
      const store::ManifestEntry entry =
          store::publish_events_ode2(*archive, "events", result.dataset);
      std::cout << "published " << entry.file << " (" << entry.bytes
                << " bytes) to " << archive->dir() << "\n";
    }

    std::cout << "sharded " << ingested << " darknet packets over " << shards
              << " worker shards" << (supervise ? " (supervised)" : "")
              << " -> " << result.dataset.event_count() << " events\n\n";
    for (const auto& day : result.days) record_day(day);
    std::cout << table.to_ascii() << "\n";
    print_churn();
    std::cout << "cumulative AH discovered online: D1 " << result.ips[0].size()
              << ", D2 " << result.ips[1].size() << ", D3 "
              << result.ips[2].size() << "\n";
    std::cout << "health: " << result.health.to_string() << "\n";
    if (checkpoints_written > 0) {
      std::cout << "checkpoints written to "
                << (archive ? archive->dir() : checkpoint_path) << ": "
                << checkpoints_written << "\n";
    }
    return 0;
  }

  const auto events = scangen::synthesize_events(
      scenario.population_2021(),
      {.darknet_size = scenario.darknet().total_addresses(), .seed = 17});
  detect::StreamingDetector detector(config,
                                     scenario.darknet().total_addresses());

  // Resume from a snapshot: restore the detector, then skip the part of
  // the (deterministic) feed it had already consumed.
  std::size_t skip_events = 0;
  if (!resume_path.empty()) {
    const auto bytes = read_checkpoint(resume_path);
    if (!bytes) return 1;
    try {
      telescope::CheckpointReader reader(*bytes);
      detector.restore(reader);
    } catch (const telescope::ConfigMismatchError& err) {
      return refuse_config_mismatch(err.what());
    } catch (const std::exception& err) {
      std::cerr << "resume failed: " << err.what() << "\n";
      return 1;
    }
    skip_events = static_cast<std::size_t>(detector.events_seen());
    std::cout << "resumed from " << resume_path << " (" << skip_events
              << " events already processed)\n";
  }
  std::cout << "replaying " << events.size() - skip_events
            << " darknet events through the online detector...\n\n";

  std::uint64_t checkpoints_written = 0;
  const auto save_checkpoint = [&]() {
    if (checkpoint_path.empty()) return;
    telescope::CheckpointWriter writer;
    detector.checkpoint(writer);
    write_checkpoint(writer, checkpoint_path);
    ++checkpoints_written;
  };

  for (std::size_t i = skip_events; i < events.size(); ++i) {
    const auto days = detector.observe(events[i]);
    for (const auto& day : days) record_day(day);
    // Snapshot at day boundaries: the natural publish-then-persist point.
    if (!days.empty()) save_checkpoint();
  }
  if (const auto last = detector.finish()) record_day(*last);
  save_checkpoint();

  std::cout << table.to_ascii() << "\n";

  // What a list subscriber would apply day over day.
  print_churn();

  std::cout << "cumulative AH discovered online: D1 "
            << detector.ips(detect::Definition::AddressDispersion).size()
            << ", D2 " << detector.ips(detect::Definition::PacketVolume).size()
            << ", D3 " << detector.ips(detect::Definition::DistinctPorts).size()
            << " (from " << detector.events_seen() << " events, "
            << detector.late_events_folded() << " late folded)\n";
  if (checkpoints_written > 0) {
    std::cout << "checkpoints written to " << checkpoint_path << ": "
              << checkpoints_written << "\n";
  }
  return 0;
}
