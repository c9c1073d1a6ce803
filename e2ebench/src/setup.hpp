// Workload definitions and the set-up half of the benchmark: the
// paper-scaled scenario, the seed's packet and flow inputs, and the
// archive + in-process daemon the timed phase publishes into and queries.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "orion/flowsim/flows.hpp"
#include "orion/packet/batch.hpp"
#include "orion/scangen/scenario.hpp"
#include "orion/serve/daemon.hpp"
#include "orion/store/archive.hpp"
#include "orion/telescope/parallel.hpp"

namespace e2e {

using namespace orion;

/// Days of Darknet-1 traffic every workload replays.
constexpr std::int64_t kDays = 14;
/// Records per pre-generated ingest batch.
constexpr std::size_t kIngestBatch = 1024;
/// ParallelPipeline shards in every workload: with the dispatcher thread
/// that makes 4 busy threads, the VM's hardware concurrency.
constexpr std::size_t kShards = 3;

/// One workload: a shape of the same packets -> lists -> published
/// generation -> answered query path. Rates and shares are fixed numbers;
/// phase lengths scale with --seconds.
struct Workload {
  const char* name = "";
  std::size_t daemon_workers = 1;
  /// The timed phase is max(1, round(seconds * rounds_per_second))
  /// rounds; each is one ingest pass (about 1.4 s with its publish on a
  /// 4-vCPU VM), then a closed-loop slice and an open-loop slice. Counts
  /// and shares are sized so the phase lasts about --seconds.
  double rounds_per_second = 0;
  /// Shares of --seconds for the closed- and open-loop slices (split
  /// evenly over the rounds), and the open loop's fixed rate (README.md
  /// gives the reason for each rate).
  double closed_share = 0;
  double open_share = 0;
  double open_qps = 0;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// The seed's inputs. The scenario (address plan and scanner population)
/// is the fixed paper-scaled one; the seed drives packet generation, the
/// border flow simulation and (in loadgen) the query schedule.
class World {
 public:
  explicit World(std::uint64_t seed);

  const scangen::Scenario& scenario() const { return scenario_; }
  const std::vector<pkt::PacketBatch>& batches() const { return batches_; }
  /// UTC day of each batch.
  const std::vector<std::int64_t>& batch_days() const { return batch_days_; }
  std::uint64_t packets() const { return packets_; }
  const flowsim::FlowDataset& flows() const { return *flows_; }
  /// Every cloud-scanner and botnet source of the population (~1.3k).
  const std::vector<net::Ipv4Address>& cloud_botnet() const {
    return cloud_botnet_;
  }

  telescope::ParallelConfig pipeline_config(std::size_t shards) const;

 private:
  scangen::Scenario scenario_;
  std::vector<pkt::PacketBatch> batches_;
  std::vector<std::int64_t> batch_days_;
  std::uint64_t packets_ = 0;
  std::optional<flowsim::FlowDataset> flows_;
  std::vector<net::Ipv4Address> cloud_botnet_;
};

/// The generation files a published manifest generation resolves to,
/// hard-linked aside so they outlive the archive's garbage collection and
/// can be re-queried when responses are verified.
struct GenerationFiles {
  std::string flows;
  std::string events;  // empty when the generation has no events artifact
};

/// An archive directory plus the daemon watching it.
class Service {
 public:
  /// Creates a fresh archive under `work_dir` (removing any leftover) and
  /// a daemon with `workers` query workers on an ephemeral port, watching
  /// it with the library's default manifest poll interval;
  /// start_daemon() starts it.
  Service(const std::string& work_dir, std::size_t workers);
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// publish_many + keep the generation's files for verification.
  /// Returns the new manifest generation.
  std::uint64_t publish(
      const std::vector<std::pair<std::string, store::ArchiveDir::Writer>>&
          items,
      std::uint64_t* bytes_written = nullptr);
  void start_daemon();

  serve::Daemon& daemon() { return *daemon_; }
  int refresh_ms() const { return refresh_ms_; }
  const std::map<std::uint64_t, GenerationFiles>& generations() const {
    return generations_;
  }

 private:
  std::string dir_;
  std::string keep_dir_;
  store::ArchiveDir archive_;
  int refresh_ms_ = 0;
  std::unique_ptr<serve::Daemon> daemon_;
  std::map<std::uint64_t, GenerationFiles> generations_;
};

/// Filesystem type name of `path` (statfs), for the environment stamp.
std::string filesystem_type(const std::string& path);

}  // namespace e2e
