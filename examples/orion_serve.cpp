// orion_serve — the multi-tenant impact query daemon (DESIGN.md §16).
//
//   orion_serve --archive DIR [--port N] [--workers N] [--refresh-ms N]
//               [--rate TOKENS_PER_SEC] [--burst N] [--batching on|off]
//               [--bootstrap tiny|paper] [--days N]
//   orion_serve --flows FILE.fde1 [--port N] [--workers N] ...
//
// Archive mode watches DIR's OMF1 manifest: each publish_many() of the
// "events" + "flows" artifacts flips the served generation atomically,
// at the manifest's commit rename (inotify; the poll is the fallback);
// in-flight queries finish on the snapshot they started on. --bootstrap
// seeds an EMPTY archive with a simulated scenario so the two-terminal
// quickstart (README "Serving") works out of the box — events and flows
// go through ONE publish_many manifest commit, exactly how a real
// pipeline should publish so the daemon never sees them half-updated.
//
// Static mode (--flows) serves a single FDE1 file as generation 0.
//
// Clients: `orion_cli serve-query` for one-shot typed queries,
// serve::Client for programmatic use, bench_serve for load + the
// byte-identity equivalence gate. Ctrl-C stops cleanly and prints the
// final ServeStats.
#include <csignal>
#include <chrono>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "orion/flowsim/flows.hpp"
#include "orion/scangen/event_synth.hpp"
#include "orion/scangen/scenario.hpp"
#include "orion/serve/daemon.hpp"
#include "orion/store/archive.hpp"
#include "orion/telescope/capture.hpp"

namespace {

using namespace orion;

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr
      << "usage: orion_serve (--archive DIR | --flows FILE.fde1) [options]\n"
         "  --port N          listen port on 127.0.0.1 (default 7411; 0 = "
         "ephemeral)\n"
         "  --workers N       query worker threads (default 2)\n"
         "  --refresh-ms N    fallback manifest poll period, archive mode "
         "(default 50;\n"
         "                    a commit is adopted at its rename where the "
         "directory\n"
         "                    can be watched)\n"
         "  --rate F          per-tenant admitted queries/sec (0 = unlimited)\n"
         "  --burst F         per-tenant token-bucket capacity (default = "
         "rate)\n"
         "  --batching on|off share computations across identical co-arriving "
         "queries (default on)\n"
         "  --bootstrap tiny|paper  seed an empty archive with a simulated "
         "scenario\n"
         "  --days N          bootstrap window length in days (default 3)\n";
  std::exit(2);
}

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) usage("unexpected argument: " + key);
    if (i + 1 >= argc) usage("missing value for " + key);
    flags[key.substr(2)] = argv[++i];
  }
  return flags;
}

std::string get_or(const std::map<std::string, std::string>& flags,
                   const std::string& key, const std::string& fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

/// Seeds an empty archive: simulated darknet events + border flows for
/// the scenario, published as ONE publish_many batch so both artifacts
/// land under the same manifest generation (the composition the daemon's
/// snapshot cache is built around).
void bootstrap(const std::string& dir, const std::string& which,
               std::int64_t days) {
  store::ArchiveDir archive(dir);
  if (archive.find("flows")) {
    std::cout << "archive already has a flows generation; skipping bootstrap\n";
    return;
  }
  if (which != "tiny" && which != "paper") {
    usage("--bootstrap must be tiny or paper");
  }
  const scangen::Scenario scenario{which == "paper" ? scangen::paper_scaled()
                                                    : scangen::tiny()};
  const auto& population = scenario.population_2021();
  const telescope::EventDataset events(
      scangen::synthesize_events(
          population, {.darknet_size = scenario.darknet().total_addresses(),
                       .seed = scenario.config().seed}),
      scenario.darknet().total_addresses());

  flowsim::FlowSimConfig config;
  config.isp_space = scenario.merit();
  config.start_day = events.first_day();
  config.end_day = std::min(events.last_day() + 1, config.start_day + days);
  if (config.end_day <= config.start_day) config.end_day = config.start_day + 1;
  config.sampling_rate = 100;
  config.user.base_pps = 4000;
  config.user.cache_fraction = 0.55;
  const flowsim::FlowDataset flows = generate_flows(
      population, scenario.registry(), flowsim::PeeringPolicy::merit_like(),
      config);

  archive.publish_many({{"events", store::events_ode2_writer(events)},
                        {"flows", store::flows_fde1_writer(flows)}});
  std::cout << "bootstrapped " << dir << " (generation "
            << archive.generation() << "): " << events.event_count()
            << " events + flows over "
            << (config.end_day - config.start_day) << " days" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = parse_flags(argc, argv);
  const std::string archive_dir = get_or(flags, "archive", "");
  const std::string fde1 = get_or(flags, "flows", "");
  if (archive_dir.empty() == fde1.empty()) {
    usage("exactly one of --archive and --flows is required");
  }

  serve::DaemonConfig config;
  config.archive_dir = archive_dir;
  config.fde1_path = fde1;
  config.port =
      static_cast<std::uint16_t>(std::stoul(get_or(flags, "port", "7411")));
  config.workers = std::stoul(get_or(flags, "workers", "2"));
  config.refresh_ms = std::stoi(get_or(flags, "refresh-ms", "50"));
  config.admission.refill_per_sec = std::stod(get_or(flags, "rate", "0"));
  config.admission.capacity = std::stod(
      get_or(flags, "burst", get_or(flags, "rate", "0")));
  const std::string batching = get_or(flags, "batching", "on");
  if (batching != "on" && batching != "off") usage("--batching must be on|off");
  config.batching = batching == "on";

  try {
    if (!archive_dir.empty()) {
      store::recover_archive(archive_dir);  // sweep crash leftovers first
      const auto it = flags.find("bootstrap");
      if (it != flags.end()) {
        bootstrap(archive_dir, it->second,
                  std::stoll(get_or(flags, "days", "3")));
      }
    }

    serve::Daemon daemon(config);
    daemon.start();
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    std::cout << "orion_serve listening on 127.0.0.1:" << daemon.port()
              << (archive_dir.empty()
                      ? " (static FDE1, generation 0)"
                      : " (archive " + archive_dir + ", generation " +
                            std::to_string(daemon.generation()) + ")")
              << "\n"
              << "query it:  orion_cli serve-query --port "
              << daemon.port() << " --kind info" << std::endl;

    while (!g_stop) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    const serve::ServeStats stats = daemon.stats();
    daemon.stop();
    std::cout << "\nstopped. connections=" << stats.accepted_connections
              << " requests=" << stats.requests
              << " responses=" << stats.responses
              << " shared=" << stats.shared_computations
              << " overloaded=" << stats.overload_rejections
              << " bad=" << stats.bad_requests
              << " swaps=" << stats.generation_swaps << "\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
