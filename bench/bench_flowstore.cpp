// FDE1 flow archive vs NetFlow-decode-then-query — the ISSUE-8
// acceptance bench.
//
// Writes one simulated multi-month flow dataset in both at-rest forms —
// a NetFlow v5 export-packet stream (the collector-native legacy input)
// and an FDE1 columnar archive — then measures flows/sec of the full
// Section-4 query workload (one query() per (router, day) cell against
// the cloud-scanner AH set) over four read paths:
//
//   netflow_decode_query : read + decode every export packet into
//                          columnar rows, build each cell's index, join
//   fde1_cold            : MappedFlowStore open (mmap + footer parse) +
//                          zero-copy index build + join, per rep
//   fde1_warm            : query through an analyzer whose indexes are
//                          already built
//   fde1_parallel        : cold open + prebuild_indexes() across all
//                          router-day cells at hardware_concurrency
//
// Always-on equivalence gate: every path's RouterDayReport for every
// cell — and the untimed in-memory FDE1 image's — must equal the scalar
// reference join over each cell's own rows field for field (impact,
// protocol mix, bounded port histogram incl. spill, visibility) — the
// bench aborts on any mismatch. Acceptance: fde1_cold
// >= 5x the flows/sec of the NetFlow-decode path.
//
//   $ ./bench_flowstore [--days N] [--reps R] [--json PATH] [--smoke]
//
// --json writes the machine-readable BENCH_flowstore.json; --smoke is
// the ctest mode (short window, 1 rep, correctness gate only).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common.hpp"
#include "orion/flowsim/netflow5.hpp"
#include "orion/impact/flow_join.hpp"
#include "orion/scangen/scenario.hpp"
#include "orion/store/fde1.hpp"
#include "orion/store/mapped_flow.hpp"

namespace {

using namespace orion;

constexpr std::int64_t kNanosPerDay = 86'400'000'000'000;

bool same_report(const impact::RouterDayReport& a,
                 const impact::RouterDayReport& b) {
  return a.impact.router == b.impact.router && a.impact.day == b.impact.day &&
         a.impact.matched_packets == b.impact.matched_packets &&
         a.impact.total_packets == b.impact.total_packets &&
         a.impact.matched_sources == b.impact.matched_sources &&
         a.protocols == b.protocols && a.ports == b.ports &&
         a.probed_sources == b.probed_sources;
}

/// Serializes the dataset's sampled rows as a NetFlow v5 export-packet
/// stream in archive cell order: each packet carries its cell's router in
/// engine_id and the day in unix_secs, the way a per-router collector
/// feed would.
std::uint64_t write_netflow_v5_file(const flowsim::FlowDataset& flows,
                                    const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  std::uint64_t bytes = 0;
  for (const flowsim::RouterDay& cell : flows.cells()) {
    const flowsim::FlowBatch& rows = cell.rows;
    flowsim::NetflowV5Header header;
    header.unix_secs = static_cast<std::uint32_t>(cell.day * 86'400);
    header.engine_id = static_cast<std::uint8_t>(cell.router);
    header.sampling_interval =
        static_cast<std::uint16_t>(flows.sampling_rate() & 0x3FFF);
    std::vector<flowsim::NetflowV5Record> chunk;
    for (std::size_t i = 0; i < rows.size(); i += flowsim::kNetflowV5MaxRecords) {
      const std::size_t hi =
          std::min(rows.size(), i + flowsim::kNetflowV5MaxRecords);
      chunk.clear();
      for (std::size_t k = i; k < hi; ++k) {
        const flowsim::FlowRecord r = rows.record_at(k);
        flowsim::NetflowV5Record rec;
        rec.src = r.src;
        rec.dst = r.dst;
        rec.packets = static_cast<std::uint32_t>(r.packets);
        rec.octets = static_cast<std::uint32_t>(r.bytes);
        rec.src_port = r.src_port;
        rec.dst_port = r.dst_port;
        rec.protocol = r.proto;
        chunk.push_back(rec);
      }
      const auto packet = flowsim::encode_netflow_v5(header, chunk);
      out.write(reinterpret_cast<const char*>(packet.data()),
                static_cast<std::streamsize>(packet.size()));
      bytes += packet.size();
    }
  }
  return bytes;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t days = 92;  // three months — the paper's archive regime
  int reps = 3;
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
    } else {
      std::cerr << "usage: bench_flowstore [--days N] [--reps R] "
                   "[--json PATH] [--smoke]\n";
      return 1;
    }
  }
  if (smoke) {
    reps = 1;
    days = std::min<std::int64_t>(days, 5);
  }

  bench::print_header(
      "FDE1 flow archive query vs NetFlow decode-then-query (flows/sec)",
      "ISSUE 8 acceptance: cold FDE1 query() >= 5x the flows/sec of the "
      "NetFlow-v5 decode path; byte-identical RouterDayReports on every "
      "path for every (router, day) cell.");

  // The simulated multi-month border feed (tiny population so the row
  // volume, not the simulation, dominates the prep).
  const scangen::Scenario scenario{scangen::tiny()};
  flowsim::FlowSimConfig config;
  config.isp_space = scenario.merit();
  config.start_day = 0;
  config.end_day = days;
  config.sampling_rate = 100;
  config.seed = 77;
  config.user.base_pps = 4000;
  const flowsim::FlowDataset flows =
      generate_flows(scenario.population_2021(), scenario.registry(),
                     flowsim::PeeringPolicy::merit_like(), config);

  // The AH set the Section-4 join probes: the cloud scanners.
  detect::IpSet ah;
  for (const auto& s : scenario.population_2021().scanners) {
    if (s.category == scangen::Category::CloudScanner) ah.insert(s.source);
  }
  const impact::SourceSet sources(ah);

  const auto dir = std::filesystem::temp_directory_path();
  const std::string nfv5_path = (dir / "bench_flowstore.nfv5").string();
  const std::string fde1_path = (dir / "bench_flowstore.fde1").string();
  const std::uint64_t nfv5_bytes = write_netflow_v5_file(flows, nfv5_path);
  const std::uint64_t fde1_bytes = store::write_flows_fde1_file(flows, fde1_path);

  const unsigned hw = std::thread::hardware_concurrency();
  const store::MappedFlowStore probe(fde1_path);
  const std::uint64_t n_flows = probe.flow_count();
  const std::size_t n_cells = probe.segments().size();
  std::cout << "archive: " << n_flows << " flows across " << n_cells
            << " (router, day) cells over " << days << " days; NFV5 "
            << nfv5_bytes << " bytes, FDE1 " << fde1_bytes
            << " bytes; hardware_concurrency = " << hw << "\n\n";

  // Reference reports (untimed): the scalar join over an index built
  // straight from each cell's rows, independent of any FDE1 bytes.
  std::vector<impact::RouterDayReport> reference;
  for (const flowsim::RouterDay& cell : flows.cells()) {
    reference.push_back(
        bench::reference_report(flows, cell.router, cell.day, ah));
  }
  // Ground-truth interface totals, keyed for the decode path (a real
  // deployment reads these from the SNMP side, not from the flow feed).
  std::map<std::pair<std::size_t, std::int64_t>, std::uint64_t> cell_totals;
  for (std::size_t router = 0; router < flowsim::kRouterCount; ++router) {
    for (std::int64_t day = flows.start_day(); day < flows.end_day(); ++day) {
      cell_totals[{router, day}] = flows.at(router, day).total_packets;
    }
  }

  bool equivalent = true;
  const auto check = [&](const char* name,
                         const std::vector<impact::RouterDayReport>& got) {
    if (got.size() != reference.size()) {
      std::cerr << "EQUIVALENCE FAILURE in " << name << ": " << got.size()
                << " cells != " << reference.size() << "\n";
      equivalent = false;
      return;
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (!same_report(got[i], reference[i])) {
        std::cerr << "EQUIVALENCE FAILURE in " << name << " at cell " << i
                  << " (router " << reference[i].impact.router << ", day "
                  << reference[i].impact.day << ")\n";
        equivalent = false;
        return;
      }
    }
  };

  struct Run {
    std::string name;
    bench::Timing timing;
    double fps = 0;  // at the best time
  };
  std::vector<Run> runs;

  {  // Baseline: decode the NetFlow stream, then build + join per cell.
    std::vector<impact::RouterDayReport> last;
    const bench::Timing t = bench::time_reps(reps, [&]() {
      std::ifstream in(nfv5_path, std::ios::binary);
      const std::vector<char> raw{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
      const std::span<const std::uint8_t> bytes{
          reinterpret_cast<const std::uint8_t*>(raw.data()), raw.size()};

      // Decode every packet into one columnar batch, tracking cell
      // boundaries as (engine_id, unix_secs) change packet to packet.
      flowsim::FlowBatch all;
      std::vector<std::tuple<std::size_t, std::int64_t, std::size_t>> cells;
      std::size_t offset = 0;
      while (offset + flowsim::kNetflowV5HeaderSize <= bytes.size()) {
        const auto router = static_cast<std::size_t>(bytes[offset + 21]);
        const std::size_t before = all.size();
        const auto header = flowsim::decode_netflow_v5_into(
            bytes.subspan(offset), all, static_cast<std::uint16_t>(router), 0);
        if (!header) {
          std::cerr << "bad NetFlow packet at byte " << offset << "\n";
          std::exit(1);
        }
        const std::int64_t day = header->unix_secs / 86'400;
        if (cells.empty() || std::get<0>(cells.back()) != router ||
            std::get<1>(cells.back()) != day) {
          cells.emplace_back(router, day, before);
        }
        offset += flowsim::kNetflowV5HeaderSize +
                  (all.size() - before) * flowsim::kNetflowV5RecordSize;
      }

      std::vector<impact::RouterDayReport> reports;
      reports.reserve(reference.size());
      for (std::size_t c = 0; c < reference.size(); ++c) {
        // The stream holds only non-empty cells; reference order is the
        // full window grid, so walk it and match.
        const std::size_t router = reference[c].impact.router;
        const std::int64_t day = reference[c].impact.day;
        std::size_t lo = all.size(), hi = all.size();
        for (std::size_t k = 0; k < cells.size(); ++k) {
          if (std::get<0>(cells[k]) == router && std::get<1>(cells[k]) == day) {
            lo = std::get<2>(cells[k]);
            hi = k + 1 < cells.size() ? std::get<2>(cells[k + 1]) : all.size();
            break;
          }
        }
        impact::FlowSourceIndex index;
        index.append_span(all.src_col().data() + lo,
                          all.dst_port_col().data() + lo,
                          all.proto_col().data() + lo,
                          all.packets_col().data() + lo, hi - lo);
        index.finalize();
        reports.push_back(impact::join_flow_index(
            index, sources, flows.sampling_rate(), cell_totals[{router, day}],
            router, day));
      }
      last = std::move(reports);
    });
    check("netflow_decode_query", last);
    runs.push_back(
        {"netflow_decode_query", t, static_cast<double>(n_flows) / t.best});
  }

  const auto query_all = [&](const impact::FlowImpactAnalyzer& analyzer) {
    std::vector<impact::RouterDayReport> reports;
    reports.reserve(reference.size());
    for (std::size_t router = 0; router < flowsim::kRouterCount; ++router) {
      for (std::int64_t day = flows.start_day(); day < flows.end_day(); ++day) {
        reports.push_back(analyzer.query(router, day, sources));
      }
    }
    return reports;
  };

  {  // Cold: open + zero-copy lazy index builds, every rep.
    std::vector<impact::RouterDayReport> last;
    const bench::Timing t = bench::time_reps(reps, [&]() {
      const store::MappedFlowStore st(fde1_path);
      const impact::FlowImpactAnalyzer analyzer(&st);
      last = query_all(analyzer);
    });
    check("fde1_cold", last);
    runs.push_back(
        {"fde1_cold", t, static_cast<double>(n_flows) / t.best});
  }
  {  // The dataset's in-memory FDE1 image answers like the file (untimed).
    const store::MappedFlowStore image(store::fde1_image(flows));
    check("fde1_memory", query_all(impact::FlowImpactAnalyzer(&image)));
  }
  const store::MappedFlowStore st(fde1_path);
  const impact::FlowImpactAnalyzer warm_analyzer(&st);
  warm_analyzer.prebuild_indexes();
  {  // Warm: indexes already built; pure join cost.
    std::vector<impact::RouterDayReport> last;
    const bench::Timing t =
        bench::time_reps(reps, [&]() { last = query_all(warm_analyzer); });
    check("fde1_warm", last);
    runs.push_back(
        {"fde1_warm", t, static_cast<double>(n_flows) / t.best});
  }
  {  // Parallel: cold analyzer, indexes built across all cells at hw.
    std::vector<impact::RouterDayReport> last;
    const bench::Timing t = bench::time_reps(reps, [&]() {
      const impact::FlowImpactAnalyzer analyzer(&st);
      analyzer.prebuild_indexes(hw == 0 ? 1 : hw);
      last = query_all(analyzer);
    });
    check("fde1_parallel", last);
    runs.push_back(
        {"fde1_parallel", t, static_cast<double>(n_flows) / t.best});
  }

  const double base_fps = runs[0].fps;
  report::Table table({"path", "seconds (best)", "flows/sec", "vs netflow"});
  for (const Run& r : runs) {
    char sec_buf[64], fps_buf[64], spd_buf[64];
    std::snprintf(sec_buf, sizeof sec_buf, "%.4f", r.timing.best);
    std::snprintf(fps_buf, sizeof fps_buf, "%.0f", r.fps);
    std::snprintf(spd_buf, sizeof spd_buf, "%.2fx", r.fps / base_fps);
    table.add_row({r.name, sec_buf, fps_buf, spd_buf});
  }
  std::cout << table.to_ascii();
  const bool accepted = runs[1].fps >= 5.0 * base_fps;
  std::cout << "\nreports identical on all paths:      "
            << (equivalent ? "yes" : "NO") << "\n"
            << "acceptance (fde1 cold >= 5x netflow): "
            << (accepted ? "yes" : (smoke ? "skipped (smoke)" : "NO")) << "\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::trunc);
    out << "{\n"
        << "  \"bench\": \"flowstore\",\n"
        << "  \"days\": " << days << ",\n"
        << "  \"flows\": " << n_flows << ",\n"
        << "  \"cells\": " << n_cells << ",\n"
        << "  \"reps\": " << reps << ",\n"
        << "  \"hardware_concurrency\": " << hw << ",\n"
        << "  \"nfv5_bytes\": " << nfv5_bytes << ",\n"
        << "  \"fde1_bytes\": " << fde1_bytes << ",\n"
        << "  \"equivalent\": " << (equivalent ? "true" : "false") << ",\n"
        << "  \"runs\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      out << "    {\"path\": \"" << runs[i].name
          << "\", \"seconds\": " << runs[i].timing.best
          << ", \"median_seconds\": " << runs[i].timing.median
          << ", \"worst_seconds\": " << runs[i].timing.worst
          << ", \"flows_per_sec\": " << runs[i].fps
          << ", \"speedup_vs_netflow\": " << runs[i].fps / base_fps << "}"
          << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    out << "  ],\n"
        << "  \"speedup_cold_vs_netflow\": " << runs[1].fps / base_fps << ",\n"
        << "  \"speedup_warm_vs_netflow\": " << runs[2].fps / base_fps << ",\n"
        << "  \"speedup_parallel_vs_netflow\": " << runs[3].fps / base_fps
        << "\n"
        << "}\n";
    std::cout << "wrote " << json_path << "\n";
  }

  std::filesystem::remove(nfv5_path);
  std::filesystem::remove(fde1_path);
  // Smoke gates correctness only; timing acceptance needs real reps.
  return equivalent && (smoke || accepted) ? 0 : 1;
}
