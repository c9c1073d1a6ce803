#include "setup.hpp"

#include <sys/vfs.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "orion/flowsim/routing.hpp"
#include "orion/netbase/shard.hpp"
#include "orion/scangen/packet_gen.hpp"
#include "orion/serve/client.hpp"
#include "trace.hpp"

namespace e2e {

namespace {

/// Merit-like border user traffic, calibrated as in the paper's Table 2
/// reproduction (in-network caching shrinks the border denominator).
flowsim::UserTrafficConfig merit_user_config() {
  flowsim::UserTrafficConfig config;
  config.base_pps = 23000.0;
  config.cache_fraction = 0.55;
  config.weekend_factor = 0.72;
  config.diurnal_amplitude = 0.35;
  config.growth_per_year = 0.10;
  config.seed = 4242;
  return config;
}

flowsim::FlowDataset simulate_flows(const scangen::Scenario& scenario,
                                    std::uint64_t seed) {
  ScopedSpan span("flowsim.generate");
  flowsim::FlowSimConfig config;
  config.isp_space = scenario.merit();
  config.start_day = 0;
  config.end_day = kDays;
  config.sampling_rate = 100;
  config.sampling_mode = flowsim::SamplingMode::Random;
  config.seed = net::derive_seed(seed, 1);
  config.user = merit_user_config();
  return flowsim::generate_flows(scenario.population_2021(),
                                 scenario.registry(),
                                 flowsim::PeeringPolicy::merit_like(), config);
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      // Mostly ingest: pipeline/telescope/detect; a quarter of the time
      // goes to short query slices on 1 daemon worker.
      {.name = "ingest-14d",
       .daemon_workers = 1,
       .rounds_per_second = 0.55,
       .closed_share = 0.1,
       .open_share = 0.15,
       .open_qps = 1000},
      // Loads serve/impact; identical co-arriving requests show batching.
      {.name = "serve-zipf",
       .daemon_workers = 2,
       .rounds_per_second = 0.27,
       .closed_share = 0.3,
       .open_share = 0.33,
       .open_qps = 2500},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

World::World(std::uint64_t seed)
    : scenario_([] {
        ScopedSpan span("scangen.scenario");
        return scangen::paper_scaled();
      }()) {
  // Packets: the Darknet-1 population's stream, one generator per UTC day
  // (seeded per day) on up to 4 threads, concatenated in day order —
  // all generated before anything is timed.
  std::vector<std::vector<pkt::PacketBatch>> per_day(kDays);
  std::vector<std::exception_ptr> errors(kDays);
  const std::size_t threads = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  {
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        for (auto d = static_cast<std::int64_t>(t); d < kDays;
             d += static_cast<std::int64_t>(threads)) {
          const auto i = static_cast<std::size_t>(d);
          try {
            ScopedSpan span("scangen.generate", i);
            const net::SimTime start =
                net::SimTime::epoch() + net::Duration::days(d);
            scangen::PacketStreamGenerator generator(
                scenario_.population_2021().scanners, scenario_.darknet(),
                start, start + net::Duration::days(1),
                {.seed = net::derive_seed(seed, 100 + i),
                 .exact_targets = true,
                 .stable_streams = true});
            for (;;) {
              pkt::PacketBatch batch(kIngestBatch);
              if (generator.next_batch(batch, kIngestBatch) == 0) break;
              per_day[i].push_back(std::move(batch));
            }
          } catch (...) {
            errors[i] = std::current_exception();
          }
        }
      });
    }
    for (std::thread& t : pool) t.join();
  }
  for (std::int64_t d = 0; d < kDays; ++d) {
    const auto i = static_cast<std::size_t>(d);
    if (errors[i]) std::rethrow_exception(errors[i]);
    for (pkt::PacketBatch& batch : per_day[i]) {
      packets_ += batch.size();
      batches_.push_back(std::move(batch));
      batch_days_.push_back(d);
    }
  }

  flows_.emplace(simulate_flows(scenario_, seed));
  for (const scangen::ScannerProfile& s :
       scenario_.population_2021().scanners) {
    if (s.category == scangen::Category::CloudScanner ||
        s.category == scangen::Category::Botnet) {
      cloud_botnet_.push_back(s.source);
    }
  }
}

telescope::ParallelConfig World::pipeline_config(std::size_t shards) const {
  telescope::ParallelConfig config;
  config.shards = shards;
  config.aggregator.timeout = scenario_.event_timeout();
  config.detector.base = {
      .dispersion_threshold = scenario_.config().def1_dispersion,
      .packet_volume_alpha = scenario_.config().def2_alpha,
      .port_count_alpha = scenario_.config().def3_alpha};
  return config;
}

namespace {

std::string fresh_archive_dir(const std::string& work_dir) {
  std::filesystem::remove_all(work_dir);
  std::filesystem::create_directories(work_dir + "/keep");
  return work_dir + "/archive";
}

}  // namespace

Service::Service(const std::string& work_dir, std::size_t workers)
    : dir_(fresh_archive_dir(work_dir)),
      keep_dir_(work_dir + "/keep"),
      archive_(dir_) {
  serve::DaemonConfig config;
  config.archive_dir = dir_;
  config.port = 0;
  config.workers = workers;
  config.batching = true;
  refresh_ms_ = config.refresh_ms;
  daemon_ = std::make_unique<serve::Daemon>(config);
}

Service::~Service() {
  // serve::Daemon::stop() sets its stop flag without holding the task
  // queue's mutex, so a worker that is between checking the flag and
  // blocking can miss the wake-up and never join. Stop only once the
  // workers have been idle long enough to be parked.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  daemon_->stop();
}

void Service::start_daemon() {
  ScopedSpan span("serve.daemon_start");
  daemon_->start();
  // Started means answering: one Ping round trip through a worker.
  serve::Client client;
  client.connect("127.0.0.1", daemon_->port());
  (void)client.call(serve::QueryRequest{});
}

std::uint64_t Service::publish(
    const std::vector<std::pair<std::string, store::ArchiveDir::Writer>>& items,
    std::uint64_t* bytes_written) {
  std::vector<store::ManifestEntry> fresh;
  {
    ScopedSpan span("store.publish");
    fresh = archive_.publish_many(items);
  }
  if (bytes_written) {
    for (const auto& e : fresh) *bytes_written += e.bytes;
  }
  GenerationFiles files;
  for (const store::ManifestEntry& e : archive_.entries()) {
    if (e.name != "flows" && e.name != "events") continue;
    const std::string kept = keep_dir_ + "/" + e.file;
    if (!std::filesystem::exists(kept)) {
      std::filesystem::create_hard_link(archive_.path_of(e), kept);
    }
    (e.name == "flows" ? files.flows : files.events) = kept;
  }
  generations_[archive_.generation()] = files;
  return archive_.generation();
}

std::string filesystem_type(const std::string& path) {
  struct statfs st{};
  if (::statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
  }
  char magic[32];
  std::snprintf(magic, sizeof magic, "0x%lx", static_cast<unsigned long>(st.f_type));
  return magic;
}

}  // namespace e2e
