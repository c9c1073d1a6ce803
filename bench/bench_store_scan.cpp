// ODE2 scan throughput: what it costs to get every event of an archive
// through one scan, by the four ways a caller can read an ODE2 file.
//
// Writes one synthesized dataset, then measures events/sec of four read
// paths over the same scan workload (fold every event's packets /
// unique_dests / day into a checksum):
//
//   ode2_materialize : MappedEventStore(path).to_dataset(), then scan the
//                      vector (what every `orion_cli --in` does; baseline)
//   ode2_cold        : MappedEventStore open (mmap + footer parse) + scan
//   ode2_warm        : scan through an already-open store
//   ode2_parallel    : parallel_scan() at hardware_concurrency threads
//
// All four paths must produce the identical checksum — the bench exits 1
// if they disagree. Each row reports the best and the median seconds over
// the reps.
//
//   $ ./bench_store_scan [--scenario tiny|paper] [--reps R] [--json PATH]
//                        [--smoke]
//
// --json writes the machine-readable BENCH_store.json; --smoke is the
// ctest mode (tiny scenario, 1 rep, correctness checks only).
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "orion/scangen/scenario.hpp"
#include "orion/store/mapped.hpp"
#include "orion/store/ode2.hpp"
#include "orion/telescope/capture.hpp"

namespace {

using namespace orion;
using bench::Timing;
using bench::time_reps;

/// The per-event fold all read paths share: cheap enough that the
/// measurement is dominated by how the bytes reach the CPU, stateful
/// enough that dead-code elimination can't skip the scan.
struct ScanState {
  std::uint64_t packets = 0;
  std::uint64_t dests = 0;
  std::uint64_t day_weighted = 0;
  std::uint64_t events = 0;

  template <typename Event>
  void fold(const Event& e) {
    packets += e.packets;
    dests += e.unique_dests;
    day_weighted += static_cast<std::uint64_t>(e.day()) * (e.key.dst_port + 1);
    ++events;
  }
  void merge(const ScanState& other) {
    packets += other.packets;
    dests += other.dests;
    day_weighted += other.day_weighted;
    events += other.events;
  }
  std::uint64_t checksum() const {
    return packets ^ (dests << 1) ^ (day_weighted << 2) ^ (events << 3);
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::string which = "tiny";
  int reps = 5;
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scenario" && i + 1 < argc) {
      which = argv[++i];
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::stoi(argv[++i]);
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      std::cerr << "usage: bench_store_scan [--scenario tiny|paper] [--reps R] "
                   "[--json PATH] [--smoke]\n";
      return 1;
    }
  }
  if (smoke) reps = 1;
  if (which != "tiny" && which != "paper") {
    std::cerr << "error: --scenario must be tiny or paper\n";
    return 1;
  }

  bench::print_header(
      "ODE2 store scan: materialized vs mapped (events/sec)",
      "Identical checksums on every path; speedups are against "
      "materializing the archive into an EventDataset.");

  const scangen::Scenario scenario{which == "paper" ? scangen::paper_scaled()
                                                    : scangen::tiny()};
  const telescope::EventDataset dataset(
      scangen::synthesize_events(
          scenario.population_2021(),
          {.darknet_size = scenario.darknet().total_addresses(),
           .seed = scenario.config().seed}),
      scenario.darknet().total_addresses());

  const std::string ode2_path =
      (std::filesystem::temp_directory_path() / "bench_store_scan.ode2")
          .string();
  const std::uint64_t ode2_bytes =
      store::write_events_ode2_file(dataset, ode2_path);

  const unsigned hw = std::thread::hardware_concurrency();
  const auto n = static_cast<double>(dataset.event_count());
  std::cout << "dataset: " << dataset.event_count() << " events ("
            << which << " scenario); ODE2 " << ode2_bytes
            << " bytes; hardware_concurrency = " << hw << "; reps = " << reps
            << "\n\n";

  // Reference checksum straight off the in-memory dataset.
  ScanState reference;
  for (const auto& e : dataset.events()) reference.fold(e);

  struct Run {
    std::string name;
    Timing timing;
    double eps = 0;  // at the best time
  };
  std::vector<Run> runs;
  bool checksums_ok = true;
  const auto check = [&](const char* name, const ScanState& state) {
    if (state.checksum() != reference.checksum()) {
      std::cerr << "CHECKSUM MISMATCH in " << name << ": " << state.checksum()
                << " != " << reference.checksum() << "\n";
      checksums_ok = false;
    }
  };

  {
    ScanState last;
    const Timing t = time_reps(reps, [&]() {
      const telescope::EventDataset d =
          store::MappedEventStore(ode2_path).to_dataset();
      ScanState state;
      for (const auto& e : d.events()) state.fold(e);
      last = state;
    });
    check("ode2_materialize", last);
    runs.push_back({"ode2_materialize", t, n / t.best});
  }
  {
    ScanState last;
    const Timing t = time_reps(reps, [&]() {
      const store::MappedEventStore st(ode2_path);
      ScanState state;
      st.for_each_event([&](const store::EventRow& e) { state.fold(e); });
      last = state;
    });
    check("ode2_cold", last);
    runs.push_back({"ode2_cold", t, n / t.best});
  }
  const store::MappedEventStore st(ode2_path);
  {
    ScanState last;
    const Timing t = time_reps(reps, [&]() {
      ScanState state;
      st.for_each_event([&](const store::EventRow& e) { state.fold(e); });
      last = state;
    });
    check("ode2_warm", last);
    runs.push_back({"ode2_warm", t, n / t.best});
  }
  {
    ScanState last;
    const Timing t = time_reps(reps, [&]() {
      last = st.parallel_scan<ScanState>(
          hw == 0 ? 1 : hw,
          [](ScanState& state, const store::BlockView& view) {
            for (std::size_t i = 0; i < view.rows(); ++i) {
              state.packets += view.packets[i];
              state.dests += view.unique_dests[i];
              state.day_weighted +=
                  static_cast<std::uint64_t>(
                      net::SimTime::at(net::Duration::nanos(view.start_ns[i]))
                          .day()) *
                  (static_cast<std::uint64_t>(view.dst_port[i]) + 1);
              ++state.events;
            }
          },
          [](ScanState& into, ScanState&& from) { into.merge(from); });
    });
    check("ode2_parallel", last);
    runs.push_back({"ode2_parallel", t, n / t.best});
  }

  const double baseline_eps = runs[0].eps;
  report::Table table({"path", "seconds (best)", "seconds (median)",
                       "events/sec", "vs materialize"});
  for (const Run& r : runs) {
    char sec_buf[64], med_buf[64], eps_buf[64], spd_buf[64];
    std::snprintf(sec_buf, sizeof sec_buf, "%.4f", r.timing.best);
    std::snprintf(med_buf, sizeof med_buf, "%.4f", r.timing.median);
    std::snprintf(eps_buf, sizeof eps_buf, "%.0f", r.eps);
    std::snprintf(spd_buf, sizeof spd_buf, "%.2fx", r.eps / baseline_eps);
    table.add_row({r.name, sec_buf, med_buf, eps_buf, spd_buf});
  }
  std::cout << table.to_ascii();
  std::cout << "\nchecksums identical on all paths:  "
            << (checksums_ok ? "yes" : "NO") << "\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::trunc);
    out << "{\n"
        << "  \"bench\": \"store_scan\",\n"
        << "  \"scenario\": \"" << which << "\",\n"
        << "  \"events\": " << dataset.event_count() << ",\n"
        << "  \"reps\": " << reps << ",\n"
        << "  \"hardware_concurrency\": " << hw << ",\n"
        << "  \"ode2_bytes\": " << ode2_bytes << ",\n"
        << "  \"checksums_ok\": " << (checksums_ok ? "true" : "false") << ",\n"
        << "  \"runs\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      out << "    {\"path\": \"" << runs[i].name
          << "\", \"seconds\": " << runs[i].timing.best
          << ", \"median_seconds\": " << runs[i].timing.median
          << ", \"events_per_sec\": " << runs[i].eps
          << ", \"speedup_vs_materialize\": " << runs[i].eps / baseline_eps
          << "}" << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    out << "  ]\n"
        << "}\n";
    std::cout << "wrote " << json_path << "\n";
  }

  std::filesystem::remove(ode2_path);
  return checksums_ok ? 0 : 1;
}
